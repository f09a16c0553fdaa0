"""Experiment modules: run each on the small world, check structure.

Full-scale shape assertions are the fidelity cells and checks each
experiment declares, which ``repro report`` judges; these smoke tests
guarantee each experiment runs end to end and renders.
"""

import pytest

from repro.experiments import (
    dns_mechanism,
    evasion_matrix,
    fig2_dns,
    fig5_http,
    https_filtering,
    ooni_failures,
    statefulness,
    table1_ooni,
    table2_http,
    table3_collateral,
    tcpip_filtering,
    trigger_analysis,
)
from repro.experiments.common import (
    format_table,
    ground_truth_any,
    ground_truth_dns,
    ground_truth_http,
)


@pytest.fixture(scope="module")
def sample(small_world):
    return small_world.corpus.domains()[:60]


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", (1.0, 2.0)]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "(1.00, 2.00)" in text

    def test_ground_truth_consistency(self, small_world, sample):
        truth = ground_truth_any(small_world, "idea", sample)
        http = ground_truth_http(small_world, "idea", sample)
        dns = ground_truth_dns(small_world, "idea", sample)
        assert set(truth) == http | dns
        assert not dns  # idea poisons nothing

    def test_ground_truth_mtnl_has_dns(self, small_world, sample):
        dns = ground_truth_dns(small_world, "mtnl",
                               small_world.corpus.domains())
        assert dns


class TestTable1:
    def test_runs_and_renders(self, small_world, sample):
        result = table1_ooni.run(small_world, sample, isps=("idea",))
        assert "OONI" in result.render()
        row = result.row("idea")
        assert row.tcp.as_tuple() == (0.0, 0.0)
        assert 0 <= row.total.precision <= 1

    def test_unknown_row_raises(self, small_world, sample):
        result = table1_ooni.run(small_world, sample, isps=("idea",))
        with pytest.raises(KeyError):
            result.row("bsnl")


class TestTable2:
    def test_runs_and_renders(self, small_world, sample):
        result = table2_http.run(small_world, sample, isps=("idea",),
                                 classify=False)
        assert result.row("idea").inside_coverage > 0.5
        assert "Table 2" in result.render()


class TestTable3:
    def test_runs_and_renders(self, small_world, sample):
        result = table3_collateral.run(small_world,
                                       small_world.corpus.domains(),
                                       stubs=("siti",))
        assert result.dominant_neighbour("siti") in ("airtel", None)
        assert "Collateral" in result.render()


class TestFigures:
    def test_fig2(self, small_world):
        result = fig2_dns.run(small_world, isps=("bsnl",))
        assert "bsnl" in result.scans
        assert 0 <= result.coverage("bsnl") <= 1
        assert "Figure 2" in result.render()
        assert "Website ID" in result.render_series("bsnl")

    def test_fig5(self, small_world, sample):
        result = fig5_http.run(small_world, sample, isps=("idea",))
        assert result.consistency("idea") > 0.4
        assert "Figure 5" in result.render()


class TestSectionExperiments:
    def test_trigger(self, small_world):
        result = trigger_analysis.run(small_world, isps=("idea",))
        assert "idea" in result.analyses
        assert "request-only" in result.analyses["idea"].conclusion
        assert "3.4" in result.render()

    def test_dns_mechanism(self, small_world):
        result = dns_mechanism.run(small_world, isps=("mtnl",),
                                   resolvers_per_isp=2)
        assert result.mechanisms("mtnl") == {"poisoning"}
        assert result.injector_trace.mechanism == "injection"
        assert "poisoning" in result.render()

    def test_tcpip(self, small_world):
        result = tcpip_filtering.run(small_world, isps=("nkn",),
                                     sites_per_isp=4)
        assert not result.any_filtering
        assert "3.3" in result.render()

    def test_statefulness(self, small_world):
        result = statefulness.run(small_world, isps=("idea",),
                                  with_timeout=False)
        assert result.reports["idea"].stateful
        assert "4.2.1" in result.render()

    def test_evasion(self, small_world):
        result = evasion_matrix.run(small_world, isps=("idea",),
                                    sites_per_isp=2)
        assert result.matrices["idea"].success_rate(
            "host-value-whitespace") == 1.0
        assert result.all_sites_evaded("idea")
        assert "evasion" in result.render()

    def test_ooni_failures(self, small_world, sample):
        result = ooni_failures.run(small_world, sample, isps=("idea",),
                                   detector_sample=10)
        breakdown = result.breakdowns["idea"]
        assert breakdown.true_positives >= 0
        assert "OONI" in result.render()

    def test_https(self, small_world):
        result = https_filtering.run(small_world, isps=("idea", "mtnl"))
        assert result.instances("idea") == []
        assert result.all_instances_dns_caused
        assert "HTTPS" in result.render()

    def test_idiosyncrasies(self, small_world):
        from repro.experiments import idiosyncrasies
        result = idiosyncrasies.run(small_world, isps=("idea",))
        report = result.reports["idea"]
        if report.port80_censored is not None:
            assert report.port_80_only
            assert report.keepalive_extends_flow
        assert "6.3" in result.render()
