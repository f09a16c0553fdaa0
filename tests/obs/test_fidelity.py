"""The Fidelity section: paper cells and checks judged from the journal."""

import pytest

from repro.experiments import EXPERIMENT_MODULES
from repro.obs.report import (_fidelity, generate_report, load_run,
                              render_markdown)
from repro.runner.campaign import Campaign

#: The experiments that reproduce a paper artifact.
PAPER_EXPERIMENTS = (
    "table1", "table2", "table3", "fig2", "fig5", "trigger",
    "dns-mechanism", "tcpip", "statefulness", "evasion", "ooni-failures",
    "https", "idiosyncrasies",
)

#: Table 2's seed-1808 payload rows at scale 1.0.
TABLE2_ROWS = {
    "airtel": ["airtel", "70.90", "52.50", "WM", "208", "-"],
    "idea": ["idea", "91.10", "91.70", "IM", "338", "-"],
    "vodafone": ["vodafone", "11.40", "5.00", "IM", "385", "-"],
    "jio": ["jio", "8.50", "0.00", "WM", "152", "-"],
}


def _paper_in_band(cell) -> bool:
    paper, band = cell.paper, cell.band
    if isinstance(paper, tuple) and isinstance(band, tuple):
        return paper[0] <= band[1] and band[0] <= paper[1]
    return cell.holds(paper)


def _table2_run(scale=1.0, loss=0.0, **changed):
    rows = dict(TABLE2_ROWS, **changed)
    return {"meta": {"scale": scale, "loss": loss,
                     "experiments": ["table2"]},
            "units": {("table2", isp): {"status": "ok",
                                        "payload": {"rows": [row]}}
                      for isp, row in rows.items() if row is not None}}


def _statuses(entries):
    return {(entry.get("unit"), entry.get("column", entry.get("check"))):
            entry["status"] for entry in entries}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("fidelity") / "run")
    report = Campaign(experiments=list(PAPER_EXPERIMENTS), scale=0.05,
                      run_dir=run_dir, workers=2).run()
    assert report.complete
    return run_dir


class TestDeclarations:
    def test_every_paper_experiment_declares_cells(self):
        declaring = {key for key, module in EXPERIMENT_MODULES.items()
                     if hasattr(module, "CELLS")}
        assert declaring == set(PAPER_EXPERIMENTS)

    @pytest.mark.parametrize("key", PAPER_EXPERIMENTS)
    def test_cause_exactly_when_paper_lies_outside_band(self, key):
        for cell in EXPERIMENT_MODULES[key].CELLS:
            assert bool(cell.cause) != _paper_in_band(cell), cell

    def test_rows_carry_every_cell(self, small_run):
        """Each experiment's parser finds every cell it declares in the
        rows its units journal."""
        for (key, unit), rec in load_run(small_run)["units"].items():
            module = EXPERIMENT_MODULES[key]
            columns = {cell.column for cell in module.CELLS
                       if cell.unit == unit}
            assert columns <= set(module.measured(
                rec["payload"]["rows"])), (key, unit)


class TestJudging:
    def test_small_run_is_shown_but_not_judged(self, small_run):
        report = generate_report(small_run)
        fidelity = report["deterministic"]["fidelity"]
        assert not fidelity["judged"]
        assert "scale 0.05" in fidelity["reason"]
        assert {entry["status"] for entry in fidelity["cells"]
                + fidelity["checks"]} == {"not-judged"}
        assert "- not judged: bands hold at scale 1.0" in \
            render_markdown(report)

    def test_seed_band_rows_hold(self):
        fidelity = _fidelity(_table2_run())
        assert fidelity["judged"] and fidelity["counts"]["regression"] == 0
        statuses = _statuses(fidelity["cells"])
        assert statuses[("idea", "inside %")] == "in-tolerance"
        assert statuses[("vodafone", "blocked")] == "known-deviation"
        assert set(_statuses(fidelity["checks"]).values()) == \
            {"in-tolerance"}

    def test_value_outside_band_is_a_named_regression(self):
        fidelity = _fidelity(_table2_run(
            idea=["idea", "80.00", "91.70", "IM", "338", "-"]))
        regressions = [key for key, status
                       in _statuses(fidelity["cells"]).items()
                       if status == "regression"]
        assert regressions == [("idea", "inside %")]

    def test_failing_check_is_a_regression(self):
        fidelity = _fidelity(_table2_run(
            jio=["jio", "8.50", "0.00", "WM", "400", "-"]))
        assert _statuses(fidelity["checks"])[
            (None, "blocked counts order Vodafone > Idea > Airtel > Jio")
        ] == "regression"

    def test_lossy_run_is_not_judged(self):
        fidelity = _fidelity(_table2_run(
            loss=0.05, idea=["idea", "1.00", "1.00", "WM", "1", "-"]))
        assert not fidelity["judged"]
        assert fidelity["counts"]["regression"] == 0
        idea = [cell for cell in fidelity["cells"]
                if (cell["unit"], cell["column"]) == ("idea", "inside %")]
        assert idea[0]["measured"] == 1.0

    def test_unit_without_result_leaves_its_cells_unjudged(self):
        fidelity = _fidelity(_table2_run(jio=None))
        statuses = _statuses(fidelity["cells"] + fidelity["checks"])
        assert {status for (unit, _), status in statuses.items()
                if unit in ("jio", None)} == {"not-judged"}
        assert fidelity["counts"]["regression"] == 0
