"""Ablations of the design choices DESIGN.md calls out.

Each ablation perturbs one modelling decision and shows the measurement
layer *notices* — evidence that the paper's findings are re-derived
from behaviour rather than read back from configuration:

1. statefulness: against a stateless packet matcher, the incomplete-
   handshake probes DO draw censorship — so the probes discriminate;
2. the wiretap race: measured render-rate tracks the deployed
   miss-rate (the paper's "3 of 10 attempts render");
3. consistency mechanics: measured Figure-5 consistency tracks per-box
   blocklist density, with the 1/#boxes floor at sparse deployments;
4. the authors' diff threshold: lowering it floods manual verification
   with hosting artifacts, raising it starts missing censored sites —
   0.3 sits in the workable band.
"""

import random

from repro.core.measure import consistency as consistency_metric
from repro.core.measure.stateful import probe_statefulness
from repro.httpsim import OriginServer, fetch_url, make_response
from repro.middlebox import (
    InterceptiveMiddlebox,
    TriggerSpec,
    WiretapMiddlebox,
    looks_like_block_page,
    profile_for,
)
from repro.netsim import Network

BLOCKED = "blocked.example"
BODY = (b"<html><head><title>Real Content Page</title></head>"
        b"<body>genuine material, long enough to be unmistakable "
        b"in a body diff comparison run</body></html>")


def build_lab(tag):
    """client -- r1 -- r2 (attach here) -- r3 -- server."""
    net = Network()
    client = net.add_host(f"client-{tag}", "10.0.0.1")
    server_host = net.add_host(f"web-{tag}", "93.184.216.34")
    for index in (1, 2, 3):
        net.add_router(f"{tag}-r{index}", f"10.1.0.{index}")
    net.link(f"client-{tag}", f"{tag}-r1")
    net.link(f"{tag}-r1", f"{tag}-r2")
    net.link(f"{tag}-r2", f"{tag}-r3")
    net.link(f"{tag}-r3", f"web-{tag}")
    server = OriginServer()
    server.add_domain(BLOCKED, lambda req, ip: make_response(200, BODY))
    server.install(server_host)
    return net, client, server_host


class _LabWorld:
    """Just enough world surface for the probe helpers."""

    def __init__(self, net, client):
        self.network = net
        self._client = client
        self.isps = {"lab": self}
        self.profile = type("P", (), {"censors_http": True})()

    def isp(self, name):
        return self

    def client_of(self, name):
        return self._client

    @property
    def client(self):
        return self._client

    @property
    def default_resolver_ip(self):
        return self._client.ip

    def isp_owning(self, ip):
        return None


def test_ablation_statefulness_probes_discriminate():
    """Stateless boxes fail the handshake-gating probes the deployed
    (stateful) boxes pass — the probes measure a real property."""

    outcomes = {}
    for stateful in (True, False):
        net, client, server_host = build_lab(
            f"st-{int(stateful)}")
        spec = TriggerSpec(blocklist=frozenset({BLOCKED}))
        box = InterceptiveMiddlebox(
            "im", "lab", spec, notification=profile_for("idea"),
            require_handshake=stateful)
        net.node(f"st-{int(stateful)}-r2").attach_inline(box)
        world = _LabWorld(net, client)
        report = probe_statefulness(world, "lab", BLOCKED,
                                    server_host.ip, attempts=2)
        outcomes[stateful] = report

    stateful, stateless = outcomes[True], outcomes[False]

    assert stateful.stateful
    assert not stateful.no_handshake and not stateful.syn_only

    # The stateless matcher fires on everything carrying the Host line.
    assert stateless.no_handshake
    assert stateless.syn_only
    assert not stateless.stateful


def test_ablation_wiretap_race():
    """Measured render-rate tracks the wiretap box's miss-rate."""

    rates = {}
    for miss_rate in (0.0, 0.3, 0.7):
        net, client, server_host = build_lab(f"race-{miss_rate}")
        spec = TriggerSpec(blocklist=frozenset({BLOCKED}))
        box = WiretapMiddlebox(
            "wm", "lab", spec, profile_for("airtel"),
            miss_rate=miss_rate, seed=1808)
        net.node(f"race-{miss_rate}-r2").attach_tap(box)
        rendered = 0
        attempts = 40
        for _ in range(attempts):
            result = fetch_url(net, client, server_host.ip, BLOCKED)
            response = result.first_response
            if response is not None and not looks_like_block_page(
                    response.body):
                rendered += 1
            net.run_until_idle()
        rates[miss_rate] = rendered / attempts

    assert rates[0.0] == 0.0
    assert 0.15 <= rates[0.3] <= 0.45   # the paper's ~3 in 10
    assert 0.50 <= rates[0.7] <= 0.90
    assert rates[0.0] < rates[0.3] < rates[0.7]


def test_ablation_consistency_mechanics():
    """Measured consistency tracks per-box density, with the
    1/#boxes floor at sparse deployments."""

    rng = random.Random(42)
    master = [f"site{i}.example" for i in range(300)]
    measured = {}
    for density in (0.1, 0.4, 0.8):
        for n_boxes in (3, 20):
            per_box = {}
            for box in range(n_boxes):
                blocked = {d for d in master
                           if rng.random() < density}
                per_box[box] = blocked
            measured[(density, n_boxes)] = consistency_metric(per_box)

    # With many boxes, consistency ~ density.
    for density in (0.1, 0.4, 0.8):
        value = measured[(density, 20)]
        assert abs(value - density) < 0.08, (density, value)

    # With 3 boxes the floor is ~1/3: low densities read high.
    assert measured[(0.1, 3)] > 0.25
    # Monotone in density for fixed box count.
    assert measured[(0.1, 20)] < measured[(0.4, 20)] < measured[(0.8, 20)]


def test_ablation_detector_threshold(full_world):
    """The 0.3 body-diff threshold: lower floods manual verification,
    higher risks missing censored sites."""
    from repro.core.measure import run_detector

    world = full_world
    blocked_any = world.blocklists.all_blocked_domains()
    confounders = [s.domain for s in world.corpus
                   if (s.dynamic or s.is_dead)
                   and s.domain not in blocked_any][:25]
    censored = [s for s in sorted(world.blocklists.http["idea"])][:25]
    sample = confounders + censored

    outcomes = {}
    for threshold in (0.05, 0.3, 0.8):
        detector = run_detector(world, "idea", sample,
                                threshold=threshold)
        outcomes[threshold] = (
            detector.flagged_count,
            len(detector.censored_domains()),
        )

    flagged = {t: f for t, (f, _) in outcomes.items()}
    found = {t: c for t, (_, c) in outcomes.items()}

    # Lower thresholds always flag at least as much for manual review.
    assert flagged[0.05] >= flagged[0.3] >= flagged[0.8]
    # The paper's 0.3 finds everything the paranoid threshold finds.
    assert found[0.3] == found[0.05]
    assert found[0.3] > 0
