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


class TestHeadlineExperimentsUnderLoss:
    """Each experiment completes and lands within TOLERANCE of the
    zero-loss run on an identically-built world."""

    def test_table1_ooni(self, small_world, faulty_world, sample):
        clean = table1_ooni.run(small_world, sample, isps=("idea",))
        lossy = table1_ooni.run(faulty_world, sample, isps=("idea",))
        assert "Table 1" in lossy.render()
        for attr in ("total", "http"):
            clean_pr = getattr(clean.row("idea"), attr).as_tuple()
            lossy_pr = getattr(lossy.row("idea"), attr).as_tuple()
            for got, want in zip(lossy_pr, clean_pr):
                assert abs(got - want) <= TOLERANCE
        # The campaign reports what the faults cost it.
        assert lossy.row("idea").retries > 0
        assert "degraded" in lossy.render()
        assert clean.row("idea").retries == 0

    def test_table2_http(self, small_world, faulty_world, sample):
        clean = table2_http.run(small_world, sample, isps=("idea",),
                                classify=False)
        lossy = table2_http.run(faulty_world, sample, isps=("idea",),
                                classify=False)
        assert not lossy.degradation.partial
        assert abs(lossy.row("idea").inside_coverage
                   - clean.row("idea").inside_coverage) <= TOLERANCE
        assert abs(lossy.row("idea").outside_coverage
                   - clean.row("idea").outside_coverage) <= TOLERANCE

    def test_fig2_dns(self, small_world, faulty_world):
        clean = fig2_dns.run(small_world, isps=("bsnl",))
        lossy = fig2_dns.run(faulty_world, isps=("bsnl",))
        assert not lossy.degradation.partial
        assert abs(lossy.coverage("bsnl")
                   - clean.coverage("bsnl")) <= TOLERANCE

    def test_fig5_http(self, small_world, faulty_world, sample):
        clean = fig5_http.run(small_world, sample, isps=("idea",))
        lossy = fig5_http.run(faulty_world, sample, isps=("idea",))
        assert not lossy.degradation.partial
        assert abs(lossy.consistency("idea")
                   - clean.consistency("idea")) <= TOLERANCE

    def test_table3_collateral(self, small_world, faulty_world):
        domains = small_world.corpus.domains()
        clean = table3_collateral.run(small_world, domains, stubs=("siti",))
        lossy = table3_collateral.run(faulty_world, domains, stubs=("siti",))
        assert not lossy.degradation.partial
        assert (lossy.dominant_neighbour("siti")
                == clean.dominant_neighbour("siti"))


class TestSeededDeterminism:
    """Satellite: the fault schedule is a pure function of the seed."""

    def run_once(self, fault_seed, domains):
        world = make_faulty_world(fault_seed=fault_seed)
        result = table1_ooni.run(world, domains, isps=("idea",))
        return result

    def test_same_fault_seed_byte_identical(self, sample):
        domains = sample[:20]
        first = self.run_once(FAULT_SEED, domains)
        second = self.run_once(FAULT_SEED, domains)
        assert first.render() == second.render()
        assert first.row("idea").retries == second.row("idea").retries

    def test_different_fault_seed_within_tolerance(self, sample):
        """A different schedule shifts which probes retry, but hardened
        clients keep the metrics inside the documented tolerance."""
        domains = sample[:20]
        first = self.run_once(FAULT_SEED, domains)
        other = self.run_once(FAULT_SEED + 1, domains)
        for got, want in zip(other.row("idea").total.as_tuple(),
                             first.row("idea").total.as_tuple()):
            assert abs(got - want) <= TOLERANCE


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
