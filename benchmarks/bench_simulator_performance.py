"""Simulator performance characteristics.

Not a paper artifact — these benchmarks characterize the substrate
itself (the one part of this repository where wall-clock time *is* the
result): world construction, packet-level fetch throughput, express
probe throughput, and resolver-scan throughput.  Unlike the experiment
benches these run multiple rounds for stable statistics.
"""

import statistics
import time

import pytest

from repro.core.measure import canonical_payload, express_http_probe
from repro.core.measure.fastprobe import express_dns_probe
from repro.httpsim import fetch_url
from repro.isps import build_world


@pytest.fixture(scope="module")
def perf_world():
    return build_world(seed=99, scale=0.25)


def test_world_build_small(benchmark):
    world = benchmark.pedantic(
        lambda: build_world(seed=7, scale=0.1), rounds=3, iterations=1)
    assert len(world.network.nodes) > 100


def test_packet_level_fetch_throughput(benchmark, perf_world):
    world = perf_world
    client = world.client_of("nkn")
    blocked = world.blocklists.all_blocked_domains()
    sites = [s for s in world.corpus
             if s.domain not in blocked and s.hosting == "normal"
             and not s.https][:20]
    targets = [(world.hosting.ip_for(s.domain, "in"), s.domain)
               for s in sites]

    def fetch_batch():
        ok = 0
        for ip, domain in targets:
            result = fetch_url(world.network, client, ip, domain)
            ok += bool(result.ok)
        return ok

    ok = benchmark.pedantic(fetch_batch, rounds=5, iterations=1)
    assert ok == len(targets)


def test_web_connectivity_throughput(benchmark, perf_world):
    """OONI web_connectivity from every tested ISP: each vantage tests
    every second corpus site, 750 packet-level tests a round.

    Each test resolves the site twice (control and ISP resolver) and
    fetches it over TCP through the middleboxes, so a round carries
    tens of thousands of packets through hosts whose captures no
    reader holds open.  One warm-up round fills the FIB and plan
    caches first.  CI's --min-speedup keeps this case at least 1.3x
    faster than when every host cloned and kept every packet (its
    median is kept under previous_cases)."""
    from repro.core.measure import web_connectivity
    from repro.core.vantage import VantagePoint
    from repro.isps.profiles import OONI_TESTED_ISPS

    world = perf_world
    vantages = [VantagePoint.inside(world, isp) for isp in OONI_TESTED_ISPS]
    domains = world.corpus.domains()[::2]

    def web_test_all():
        anomalous = 0
        for vantage in vantages:
            for domain in domains:
                anomalous += web_connectivity(world, vantage,
                                              domain).anomalous
        return anomalous

    anomalous = benchmark.pedantic(web_test_all, rounds=5, iterations=1,
                                   warmup_rounds=1)
    assert len(vantages) * len(domains) == 750
    assert anomalous > 0


def test_population_session_throughput(benchmark):
    """Population-engine day: 50k sessions over a 100k-domain corpus.

    Tracks sessions/second through the one-pass batch path (Zipf
    draw, per-rank code memo refilled by each fresh engine,
    outcome count, sketches folded once per day — see
    docs/POPULATION.md).  The in-bench floor is deliberately loose for
    shared runners; the committed baseline case gives the real gate
    via perf_trajectory check, and CI's --min-speedup keeps this case
    at least 2x faster than the two-pass column engine it replaced
    (its median is kept under previous_cases)."""
    from repro.population import PopulationConfig, PopulationEngine
    from repro.websites.synthetic import SyntheticCorpus

    sessions = 50_000
    corpus = SyntheticCorpus(seed=1808, size=100_000)
    config = PopulationConfig(seed=1808, corpus_size=100_000,
                              sessions=sessions)

    def run_day():
        return PopulationEngine("idea", corpus=corpus,
                                config=config).run()

    start = time.perf_counter()
    outcome = run_day()
    elapsed = time.perf_counter() - start
    assert sum(outcome.hourly) == sessions
    assert outcome.blocked_total > 0
    assert sessions / elapsed > 40_000, (
        f"population engine at {sessions / elapsed:,.0f} sessions/s "
        f"(floor 40,000)")

    outcome = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert sum(outcome.hourly) == sessions


def test_express_http_probe_throughput(benchmark, perf_world):
    world = perf_world
    client = world.client_of("idea")
    domains = world.corpus.domains()
    payloads = [(world.hosting.ip_for(d, "in"), canonical_payload(d))
                for d in domains]

    def probe_all():
        censored = 0
        for ip, payload in payloads:
            verdict = express_http_probe(world.network, client, ip, payload)
            censored += verdict.censored
        return censored

    censored = benchmark.pedantic(probe_all, rounds=3, iterations=1)
    assert censored > 0


def test_express_dns_probe_throughput(benchmark, perf_world):
    world = perf_world
    deployment = world.isp("mtnl")
    client = deployment.client
    resolver_ip = deployment.default_resolver_ip
    domains = world.corpus.domains()

    def resolve_all():
        answered = 0
        for domain in domains:
            answer = express_dns_probe(world.network, client,
                                       resolver_ip, domain)
            answered += answer.responded
        return answered

    answered = benchmark.pedantic(resolve_all, rounds=3, iterations=1)
    assert answered == len(domains)


def test_resolver_sweep_throughput(benchmark, perf_world):
    """Open-resolver sweep (section 3.2-III) of the mtnl and bsnl pools.

    Both whole ISP pools, 524,288 addresses, as fig2 sweeps them.  The
    sweep counts every address but probes only the owned ones, so its
    cost follows the resolvers, not the pool size.  One untimed round
    first fills the FIB toward the resolvers, so the median times the
    sweep itself.  CI's --min-speedup keeps this case at least 10x
    faster than the sweep that formatted and looked up every address
    (its median is kept under previous_cases)."""
    from repro.core.measure import sweep_open_resolvers

    world = perf_world

    def sweep_both():
        return [len(sweep_open_resolvers(world, isp).open_resolvers)
                for isp in ("mtnl", "bsnl")]

    found = benchmark.pedantic(sweep_both, rounds=3, iterations=1,
                               warmup_rounds=1)
    assert all(found), found


def test_fib_speedup_express_probe(perf_world):
    """Acceptance check: the FIB fast path buys >=2x on express probes.

    The same sweep as the throughput bench, timed once through the
    engine's warm forwarding caches and once walking every probe with
    the seed router (``tests/netsim/reference_router.py``): no FIB,
    path cache, box memo or compiled plan, only its per-destination
    distance maps, which the first of its two timed rounds fills.
    """
    from tests.netsim.reference_router import ReferenceRouter

    world = perf_world
    client = world.client_of("idea")
    domains = world.corpus.domains()
    payloads = [(world.hosting.ip_for(d, "in"), canonical_payload(d))
                for d in domains]
    network = world.network
    oracle = ReferenceRouter(network)

    def sweep():
        censored = []
        for ip, payload in payloads:
            verdict = express_http_probe(network, client, ip, payload)
            if verdict.censored:
                censored.append((ip, verdict.domain, verdict.hop))
        return censored

    def oracle_sweep():
        censored = []
        for ip, payload in payloads:
            for hop, box in oracle.boxes_along(client, ip, client.ip):
                spec = getattr(box, "spec", None)
                if (spec is None or not spec.inspects_port(80)
                        or not box.in_scope(client.ip)):
                    continue
                domain = spec.matched_domain(payload)
                if domain is not None:
                    censored.append((ip, domain, hop))
                    break
        return censored

    def timed(run):
        start = time.perf_counter()
        censored = run()
        return time.perf_counter() - start, censored

    sweep()  # warm the FIB, path cache, and box memo
    fast = min((timed(sweep) for _ in range(3)), key=lambda r: r[0])
    slow = min((timed(oracle_sweep) for _ in range(2)), key=lambda r: r[0])
    assert fast[1] == slow[1], "cached and uncached verdicts diverged"
    speedup = slow[0] / fast[0]
    assert speedup >= 2.0, (
        f"FIB fast path only {speedup:.2f}x over the seed routing "
        f"(cached {fast[0] * 1e3:.1f} ms vs uncached "
        f"{slow[0] * 1e3:.1f} ms)")


def test_event_core_speedup_fetch(perf_world):
    """Acceptance check: the event-core fast paths buy >=1.5x on fetches.

    The same batch as the fetch throughput bench, timed once with the
    defaults (delivery plans, content memo) and once with both escape
    hatches pulled — ``delivery_plans_enabled = False``, content cache
    off — while the routing caches stay ON, so the ratio isolates these
    two from the FIB (which has its own gate above).  Twelve runs of
    this file on a shared 2-core Xeon (``PYTHONHASHSEED=0``) measured
    2.04-3.06x, median 2.25x, quartiles 2.19-2.47x; the gate sits at
    1.5x to absorb shared-runner jitter (the full >=2x-versus-seed gate
    runs in CI via ``perf_trajectory check``, where the baseline
    predates the FIB too).
    """
    from repro.websites.content import set_content_cache

    world = perf_world
    network = world.network
    client = world.client_of("nkn")
    blocked = world.blocklists.all_blocked_domains()
    sites = [s for s in world.corpus
             if s.domain not in blocked and s.hosting == "normal"
             and not s.https][:20]
    targets = [(world.hosting.ip_for(s.domain, "in"), s.domain)
               for s in sites]

    def fetch_batch():
        ok = 0
        for ip, domain in targets:
            result = fetch_url(network, client, ip, domain)
            ok += bool(result.ok)
        return ok

    def timed():
        start = time.perf_counter()
        ok = fetch_batch()
        return time.perf_counter() - start, ok

    fetch_batch()  # warm the FIB and plan caches
    fast = min(timed() for _ in range(3))
    try:
        network.delivery_plans_enabled = False
        set_content_cache(False)
        slow = min(timed() for _ in range(2))
    finally:  # perf_world is shared
        network.delivery_plans_enabled = True
        set_content_cache(True)
    assert fast[1] == slow[1] == len(targets), \
        "event core changed fetch outcomes"
    speedup = slow[0] / fast[0]
    assert speedup >= 1.5, (
        f"event-core fast paths only {speedup:.2f}x over the seed core "
        f"(defaults {fast[0] * 1e3:.1f} ms vs escape hatches "
        f"{slow[0] * 1e3:.1f} ms)")


def test_trace_overhead_express_probe(perf_world):
    """Acceptance check: an attached-but-unsubscribed trace bus costs
    <5% on the express probe sweep.

    This is the cost a campaign pays for *enabled* tracing when no one
    is listening — each probe's emit site runs its two attribute tests
    (``trace is not None``, ``trace.active``) and nothing else.  The
    sweep is the same one the FIB gate times; both states are measured
    min-of-N to shave scheduler noise.
    """
    from repro.obs.trace import TraceBus

    world = perf_world
    client = world.client_of("idea")
    domains = world.corpus.domains()
    payloads = [(world.hosting.ip_for(d, "in"), canonical_payload(d))
                for d in domains]
    network = world.network

    def sweep():
        censored = 0
        for ip, payload in payloads:
            verdict = express_http_probe(network, client, ip, payload)
            censored += verdict.censored
        return censored

    def timed():
        # One sweep is ~1.5 ms — too short to resolve a 5% gate
        # against scheduler jitter; time a batch instead.
        start = time.perf_counter()
        censored = 0
        for _ in range(5):
            censored = sweep()
        return time.perf_counter() - start, censored

    sweep()  # warm caches so both states measure steady-state cost
    assert network.trace is None
    bus = TraceBus()
    # Interleave off/on rounds so clock-frequency drift and scheduler
    # noise land on both states equally; compare medians (min-of-N is
    # too sensitive to a single lucky round to resolve a 5% gate).
    off_rounds = []
    on_rounds = []
    try:
        for _ in range(9):
            network.trace = None
            off_rounds.append(timed())
            network.trace = bus
            assert not bus.active
            on_rounds.append(timed())
    finally:
        network.trace = None  # perf_world is shared
    assert off_rounds[0][1] == on_rounds[0][1], \
        "tracing changed probe verdicts"
    assert bus.emitted == 0, "unsubscribed bus delivered events"
    baseline = statistics.median(t for t, _ in off_rounds)
    traced = statistics.median(t for t, _ in on_rounds)
    overhead = traced / baseline - 1.0
    assert overhead < 0.05, (
        f"unsubscribed tracing costs {overhead * 100:.1f}% on the "
        f"express sweep (off {baseline * 1e3:.1f} ms vs on "
        f"{traced * 1e3:.1f} ms; gate is 5%)")
