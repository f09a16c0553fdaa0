"""Graceful degradation: headline experiments on a lossy world.

With a fixed fault seed and 5% per-link loss every headline experiment
must complete without exceptions, report any retried/degraded probes,
and stay within a small tolerance of its zero-loss metrics.  A final
regression shows the same fault schedule wrecks the seed repo's
single-shot (``NO_HARDENING``) clients — proof the hardening is doing
the work.
"""

import pytest

from repro.dnssim import dns_lookup
from repro.experiments import (
    fig2_dns,
    fig5_http,
    table1_ooni,
    table2_http,
    table3_collateral,
)
from repro.httpsim import fetch_url
from repro.isps import build_world
from repro.netsim import NO_HARDENING, FaultPlan

LOSS = 0.05
FAULT_SEED = 42
TOLERANCE = 0.05
SCALE = 0.15
SEED = 1808


def make_faulty_world(fault_seed=FAULT_SEED, hardening=None):
    world = build_world(seed=SEED, scale=SCALE)
    world.install_faults(FaultPlan(LOSS, seed=fault_seed),
                         hardening=hardening)
    return world


@pytest.fixture(scope="module")
def faulty_world():
    return make_faulty_world()


@pytest.fixture(scope="module")
def sample(small_world):
    return small_world.corpus.domains()[:60]


def measure(module, name, world, domains):
    """Run *module*'s unit *name* as the campaign would; returns its
    payload and the cells its ``measured(rows)`` reads from it."""
    unit = next(unit for unit in module.units() if unit.name == name)
    payload = unit.fn(world, domains)
    return payload, module.measured(payload["rows"])


def dominant(counts):
    counts = {name: count for name, count in counts.items() if count}
    return max(counts, key=counts.get) if counts else None


class TestHeadlineExperimentsUnderLoss:
    """Each experiment completes and lands within TOLERANCE of the
    zero-loss run on an identically-built world."""

    def test_table1_ooni(self, small_world, faulty_world, sample):
        clean, clean_cells = measure(table1_ooni, "idea", small_world,
                                     sample)
        lossy, lossy_cells = measure(table1_ooni, "idea", faulty_world,
                                     sample)
        for cell in ("Total P", "Total R", "HTTP P", "HTTP R"):
            assert abs(lossy_cells[cell] - clean_cells[cell]) <= TOLERANCE
        # The unit reports what the faults cost it.
        assert lossy["retries"] > 0
        assert clean["retries"] == 0

    def test_table2_http(self, small_world, faulty_world, sample):
        _, clean = measure(table2_http, "idea", small_world, sample)
        lossy_payload, lossy = measure(table2_http, "idea", faulty_world,
                                       sample)
        assert not lossy_payload["errors"]
        for cell in ("inside %", "outside %"):
            assert abs(lossy[cell] - clean[cell]) <= TOLERANCE * 100

    def test_fig2_dns(self, small_world, faulty_world):
        domains = small_world.corpus.domains()
        _, clean = measure(fig2_dns, "bsnl", small_world, domains)
        lossy_payload, lossy = measure(fig2_dns, "bsnl", faulty_world,
                                       domains)
        assert not lossy_payload["errors"]
        assert abs(lossy["coverage %"]
                   - clean["coverage %"]) <= TOLERANCE * 100

    def test_fig5_http(self, small_world, faulty_world, sample):
        _, clean = measure(fig5_http, "idea", small_world, sample)
        lossy_payload, lossy = measure(fig5_http, "idea", faulty_world,
                                       sample)
        assert not lossy_payload["errors"]
        assert abs(lossy["consistency %"]
                   - clean["consistency %"]) <= TOLERANCE * 100

    def test_table3_collateral(self, small_world, faulty_world):
        domains = small_world.corpus.domains()
        _, clean = measure(table3_collateral, "siti", small_world, domains)
        lossy_payload, lossy = measure(table3_collateral, "siti",
                                       faulty_world, domains)
        assert not lossy_payload["errors"]
        assert dominant(lossy) == dominant(clean)


class TestSeededDeterminism:
    """Satellite: the fault schedule is a pure function of the seed."""

    def run_once(self, fault_seed, domains):
        world = make_faulty_world(fault_seed=fault_seed)
        return measure(table1_ooni, "idea", world, domains)

    def test_same_fault_seed_byte_identical(self, sample):
        domains = sample[:20]
        first, _ = self.run_once(FAULT_SEED, domains)
        second, _ = self.run_once(FAULT_SEED, domains)
        assert first == second

    def test_different_fault_seed_within_tolerance(self, sample):
        """A different schedule shifts which probes retry, but hardened
        clients keep the metrics inside the documented tolerance."""
        domains = sample[:20]
        _, first = self.run_once(FAULT_SEED, domains)
        _, other = self.run_once(FAULT_SEED + 1, domains)
        for cell in ("Total P", "Total R"):
            assert abs(other[cell] - first[cell]) <= TOLERANCE


class TestUnhardenedRegression:
    """Zero-retry clients under the same faults demonstrably fail."""

    N_DOMAINS = 15

    def probe_successes(self, world):
        """Resolve-and-fetch wins for the first corpus domains, from a
        client in a non-censoring ISP.  The PBW corpus deliberately
        contains dead/parked sites, so wins are compared against a
        clean-world baseline rather than a perfect score."""
        client = world.client_of("nkn")
        resolver_ip = world.isp("nkn").default_resolver_ip
        wins = 0
        for domain in world.corpus.domains()[:self.N_DOMAINS]:
            lookup = dns_lookup(world.network, client, resolver_ip, domain)
            if not lookup.ok:
                continue
            result = fetch_url(world.network, client, lookup.ips[0], domain)
            if result.ok:
                wins += 1
        return wins

    def test_hardened_beats_single_shot(self):
        baseline = self.probe_successes(build_world(seed=SEED, scale=SCALE))
        hardened = self.probe_successes(make_faulty_world())
        naked = self.probe_successes(
            make_faulty_world(hardening=NO_HARDENING))
        # Hardened clients recover everything the clean network offers;
        # the seed repo's single-shot clients visibly lose probes.
        assert hardened == baseline
        assert naked < hardened
