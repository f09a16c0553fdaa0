"""Experiment modules: run units on the small world, check structure.

Full-scale shape assertions are the fidelity cells and checks each
experiment declares, which ``repro report`` judges; these smoke tests
guarantee each experiment's units run end to end and that its own
``measured(rows)`` parses what they return.
"""

import pytest

from repro.experiments import (
    dns_mechanism,
    evasion_matrix,
    fig2_dns,
    fig5_http,
    https_filtering,
    idiosyncrasies,
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


def measure(module, name, world, domains):
    """Run *module*'s unit *name* as the campaign would; returns its
    payload and the cells its ``measured(rows)`` reads from it."""
    unit = next(unit for unit in module.units() if unit.name == name)
    payload = unit.fn(world, domains)
    assert payload["rows"] and not payload["errors"]
    return payload, module.measured(payload["rows"])


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
        _, cells = measure(table1_ooni, "idea", small_world, sample)
        assert (cells["TCP P"], cells["TCP R"]) == (0.0, 0.0)
        assert 0 <= cells["Total P"] <= 1


class TestTable2:
    def test_runs_and_renders(self, small_world, sample):
        _, cells = measure(table2_http, "idea", small_world, sample)
        assert cells["inside %"] > 50


class TestTable3:
    def test_runs_and_renders(self, small_world):
        _, cells = measure(table3_collateral, "siti", small_world,
                           small_world.corpus.domains())
        counts = {name: count for name, count in cells.items() if count}
        assert not counts or max(counts, key=counts.get) == "airtel"


class TestFigures:
    def test_fig2(self, small_world):
        _, cells = measure(fig2_dns, "bsnl", small_world,
                           small_world.corpus.domains())
        assert 0 <= cells["coverage %"] <= 100

    def test_fig5(self, small_world, sample):
        _, cells = measure(fig5_http, "idea", small_world, sample)
        assert cells["consistency %"] > 40


class TestSectionExperiments:
    def test_trigger(self, small_world):
        _, cells = measure(trigger_analysis, "idea", small_world, [])
        assert cells["conclusion"] == "request-only"

    def test_dns_mechanism(self, small_world):
        _, cells = measure(dns_mechanism, "mtnl", small_world, [])
        assert cells["mechanism"] == "poisoning"
        _, cells = measure(dns_mechanism, "synthetic-injector",
                           small_world, [])
        assert cells["mechanism"] == "injection"

    def test_tcpip(self, small_world):
        _, cells = measure(tcpip_filtering, "idea", small_world,
                           small_world.corpus.domains())
        assert cells["sites tested"] > 0
        assert cells["filtered"] == 0

    def test_statefulness(self, small_world):
        _, cells = measure(statefulness, "idea", small_world, [])
        assert cells["stateful"] == "True"

    def test_evasion(self, small_world):
        _, cells = measure(evasion_matrix, "idea", small_world, [])
        assert cells["host-value-whitespace"] == 100
        assert cells["all evaded"] == "True"

    def test_ooni_failures(self, small_world, sample):
        _, cells = measure(ooni_failures, "idea", small_world, sample)
        assert cells["TP"] >= 0

    def test_https(self, small_world):
        _, idea = measure(https_filtering, "idea", small_world, [])
        _, mtnl = measure(https_filtering, "mtnl", small_world, [])
        assert idea["filtering instances"] == 0
        assert mtnl["causes"] in ("-", "dns-poisoning")

    def test_idiosyncrasies(self, small_world):
        _, cells = measure(idiosyncrasies, "idea", small_world, [])
        if cells["port-80 only"] != "-":
            assert cells["port-80 only"] == "True"
            assert cells["keep-alive extends state"] == "True"
