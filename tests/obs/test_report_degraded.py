"""``repro report`` on damaged run directories.

A crash can land between the journal fsync and any sidecar write, so
a run directory with a missing or torn ``metrics.json`` /
``timings.jsonl`` / ``supervision.jsonl`` must still render — the
deterministic half unchanged, the gap flagged with a "(sidecar
unavailable)" note instead of a traceback.
"""

import json
import os
import shutil

import pytest

from repro.obs.report import (
    ReportError,
    generate_report,
    load_run,
    render_markdown,
    write_report,
)
from repro.runner.campaign import Campaign


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("degraded") / "run"
    report = Campaign(experiments=["tcpip"], scale=0.05,
                      run_dir=str(run_dir), workers=2).run()
    assert report.complete
    # supervision.jsonl is written lazily (only on supervision
    # events); plant one so missing/torn damage is distinguishable
    # from a clean run that simply had nothing to report
    with open(run_dir / "supervision.jsonl", "w",
              encoding="utf-8") as fh:
        fh.write('{"kind": "worker-crash", "worker": 0}\n')
    return run_dir


def _damaged_copy(pristine, tmp_path, *, remove=(), tear=()):
    run_dir = tmp_path / "damaged"
    shutil.copytree(pristine, run_dir)
    for name in remove:
        os.remove(run_dir / name)
    for name in tear:
        with open(run_dir / name, "w", encoding="utf-8") as fh:
            fh.write('{"deterministic": {"counters": {"x"')  # torn
    return run_dir


SIDECARS = ("metrics.json", "timings.jsonl", "supervision.jsonl")


class TestDegradedRendering:
    @pytest.mark.parametrize("name",
                             ("metrics.json", "timings.jsonl"))
    def test_missing_sidecar_still_renders(self, pristine, tmp_path,
                                           name):
        run_dir = _damaged_copy(pristine, tmp_path, remove=[name])
        data = generate_report(str(run_dir))
        markdown = render_markdown(data, run_dir="damaged")
        assert f"(sidecar unavailable: {name} missing" in markdown

    def test_missing_supervision_is_a_clean_run(self, pristine,
                                                tmp_path):
        """supervision.jsonl only exists when supervision events
        occurred — absence is normal, not damage."""
        run_dir = _damaged_copy(pristine, tmp_path,
                                remove=["supervision.jsonl"])
        markdown = render_markdown(generate_report(str(run_dir)))
        assert "supervision.jsonl" not in markdown

    @pytest.mark.parametrize("name", SIDECARS)
    def test_torn_sidecar_still_renders(self, pristine, tmp_path,
                                        name):
        run_dir = _damaged_copy(pristine, tmp_path, tear=[name])
        data = generate_report(str(run_dir))
        markdown = render_markdown(data, run_dir="damaged")
        assert f"(sidecar unavailable: {name} torn" in markdown

    def test_all_sidecars_gone_at_once(self, pristine, tmp_path):
        run_dir = _damaged_copy(pristine, tmp_path, remove=SIDECARS)
        data = generate_report(str(run_dir))
        assert data["deterministic"]["unit_counts"]["ok"] == 5
        md_path, json_path = write_report(str(run_dir))
        assert os.path.exists(md_path) and os.path.exists(json_path)

    def test_deterministic_half_unchanged_by_damage(self, pristine,
                                                    tmp_path):
        """Losing wall-half sidecars must not perturb the
        deterministic half (beyond its own metrics note)."""
        intact = generate_report(str(pristine))
        run_dir = _damaged_copy(
            pristine, tmp_path,
            remove=["timings.jsonl", "supervision.jsonl"])
        damaged = generate_report(str(run_dir))
        assert damaged["deterministic"] == intact["deterministic"]
        assert damaged["wall"]["sidecar_notes"] == [
            "(sidecar unavailable: timings.jsonl missing — derived "
            "numbers omitted)",
        ]

    def test_metrics_note_lands_in_deterministic_half(self, pristine,
                                                      tmp_path):
        run_dir = _damaged_copy(pristine, tmp_path,
                                remove=["metrics.json"])
        data = generate_report(str(run_dir))
        assert data["deterministic"]["sidecar_notes"] == [
            "(sidecar unavailable: metrics.json missing — derived "
            "numbers omitted)"]
        assert data["deterministic"]["drops"] == {}

    def test_healthy_run_has_no_notes(self, pristine):
        data = generate_report(str(pristine))
        assert data["deterministic"]["sidecar_notes"] == []
        assert data["wall"]["sidecar_notes"] == []
        markdown = render_markdown(data)
        assert "sidecar unavailable" not in markdown

    def test_missing_journal_still_raises(self, tmp_path):
        with pytest.raises(ReportError):
            load_run(str(tmp_path))

    def test_sidecar_status_exposed_by_load_run(self, pristine,
                                                tmp_path):
        run_dir = _damaged_copy(pristine, tmp_path,
                                remove=["metrics.json"],
                                tear=["timings.jsonl"])
        run = load_run(str(run_dir))
        assert run["sidecars"] == {"metrics": "missing",
                                   "timings": "torn",
                                   "supervision": "ok"}


def _rewrite_timings(run_dir, edit):
    path = run_dir / "timings.jsonl"
    with open(path, encoding="utf-8") as fh:
        timings = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for index, timing in enumerate(timings):
            edit(index, timing)
            fh.write(json.dumps(timing) + "\n")


class TestWorkerPeakRss:
    def test_largest_peak_and_the_unit_that_first_reached_it(
            self, pristine, tmp_path):
        run_dir = _damaged_copy(pristine, tmp_path)
        planted = [20.5, 31.25, 25.0, 31.25, 30.0]
        units = []

        def plant(index, timing):
            timing["peak_rss_mb"] = planted[index]
            units.append(f"{timing['experiment']}:{timing['unit']}")

        _rewrite_timings(run_dir, plant)
        data = generate_report(str(run_dir))
        assert data["wall"]["peak_rss"] == {"mb": 31.25, "unit": units[1]}
        assert (f"- worker peak RSS: 31.25 MB, first reached by "
                f"{units[1]}") in render_markdown(data)

    def test_timings_from_before_the_field_still_render(self, pristine,
                                                        tmp_path):
        run_dir = _damaged_copy(pristine, tmp_path)
        _rewrite_timings(run_dir,
                         lambda index, timing: timing.pop("peak_rss_mb"))
        data = generate_report(str(run_dir))
        assert data["wall"]["peak_rss"] is None
        assert data["wall"]["sidecar_notes"] == []
        assert "peak RSS" not in render_markdown(data)
        assert data["deterministic"] == \
            generate_report(str(pristine))["deterministic"]


class TestAtomicReportWrites:
    def test_no_tmp_residue(self, pristine):
        write_report(str(pristine))
        assert not [name for name in os.listdir(pristine)
                    if name.endswith(".tmp")]

    def test_report_json_valid(self, pristine):
        _, json_path = write_report(str(pristine))
        with open(json_path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert set(data) == {"deterministic", "wall"}
