"""Warm-world probe sweep: the program the ``probe-sweep`` workload runs.

One process builds one world, warms it with one untimed round, prints
``ready``, then runs ``--rounds`` measured rounds.  Each round, from
every ISP's measurement client and one call at a time:

* ``express``: an express HTTP probe and an express DNS probe for every
  corpus domain (path walks, no packet simulation), repeated until the
  round has made at least :data:`EXPRESS_MIN_OPS` of them;
* ``web``: OONI ``web_connectivity`` tests, from each ISP the
  ``table1`` experiment covers, over an evenly spaced
  :data:`SAMPLE_FRACTION` of the corpus (packet-level DNS and HTTP
  through the middleboxes);
* ``trace``: ``http_iterative_trace`` toward a :data:`SAMPLE_FRACTION`
  sample of the sites on the ISP's own HTTP blocklist (per-hop
  TTL-limited probes, which delivery plans skip).

``--sample-seed`` picks which corpus domains get web tests (the offset
of the spacing) and which blocklisted sites get traced, so a different
seed probes different sites of the same world.

The last stdout line is a JSON object with, per round and phase, the
operation count, seconds, failures and an outcome tally, plus the
world's deterministic metrics snapshot.  Run it with ``src`` on
``PYTHONPATH``::

    PYTHONPATH=src python3 e2ebench/sweep.py --seed 1808 --scale 1.0 --sample-seed 0
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

PHASES = ("express", "web", "trace")
EXPRESS_MIN_OPS = 24_000

#: Share of its list each packet-level phase probes per round.  The
#: default campaign's ``table1`` unit web-tests 300 sites from each ISP
#: it covers, its whole scale-0.25 corpus; a quarter of the scale-1.0
#: corpus is the same 300 sites.  No campaign experiment runs an HTTP
#: iterative trace; the paper uses it to locate the middlebox in front
#: of a blocked site, so traces take the same share of each ISP's HTTP
#: blocklist, and web tests and traces keep the proportion of one full
#: pass over both lists.
SAMPLE_FRACTION = 0.25


def build_plan(world, sample_seed: int) -> Dict:
    """The fixed inputs every round probes, drawn from the world."""
    from repro.core.measure.fastprobe import canonical_payload
    from repro.core.vantage import VantagePoint
    from repro.isps.profiles import OONI_TESTED_ISPS

    domains = world.corpus.domains()
    targets: List[Tuple[str, str, bytes]] = []
    for domain in domains:
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is not None:
            targets.append((domain, dst_ip, canonical_payload(domain)))
    vantages, web_vantages, traces = [], [], []
    for name in sorted(world.isps):
        deployment = world.isps[name]
        if deployment.client is None:
            continue
        vantages.append(VantagePoint.inside(world, name))
        if name in OONI_TESTED_ISPS:
            web_vantages.append(vantages[-1])
        blocked = [d for d in sorted(deployment.http_blocklist)
                   if world.hosting.ip_for(d, "in") is not None]
        picked = random.Random(f"{sample_seed}:{name}").sample(
            blocked, round(len(blocked) * SAMPLE_FRACTION))
        for domain in picked:
            traces.append((deployment.client, world.hosting.ip_for(domain, "in"),
                           domain))
    stride = round(1 / SAMPLE_FRACTION)
    per_pass = 2 * len(targets) * len(vantages)
    return {"targets": targets, "vantages": vantages,
            "express_passes": max(1, -(-EXPRESS_MIN_OPS // per_pass)),
            "web_vantages": web_vantages,
            "web_domains": domains[sample_seed % stride::stride],
            "traces": traces}


class _Phase:
    """Counts, failures and an outcome tally for one phase of a round."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.tally: Dict[str, int] = {}

    def note(self, outcome: str) -> None:
        self.tally[outcome] = self.tally.get(outcome, 0) + 1

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.note(f"error:{type(exc).__name__}")

    def result(self, seconds: float) -> Dict:
        return {"ops": self.ops, "seconds": seconds, "failed": self.failed,
                "tally": dict(sorted(self.tally.items()))}


def run_round(world, plan: Dict, tracer=None, label: str = "") -> Dict:
    """One measured round; every call waits for the previous one."""
    from repro.core.measure.fastprobe import express_dns_probe, express_http_probe
    from repro.core.measure.ooni import web_connectivity
    from repro.core.measure.tracer import http_iterative_trace

    network = world.network
    events_before = network.events_processed
    result: Dict = {}

    if tracer is not None:
        tracer.unit = f"{label}/express"
    phase, start = _Phase(), time.perf_counter()
    for vantage in plan["vantages"] * plan["express_passes"]:
        client, resolver_ip = vantage.host, vantage.default_resolver_ip
        for domain, dst_ip, payload in plan["targets"]:
            phase.ops += 2
            try:
                verdict = express_http_probe(network, client, dst_ip, payload)
                answer = express_dns_probe(network, client, resolver_ip,
                                           domain)
            except Exception as exc:  # counted, never fatal to the sweep
                phase.fail(exc)
                continue
            phase.note(f"http:{verdict.box_kind or 'open'}")
            phase.note(f"dns:{answer.rcode}:{'injected' if answer.injected else 'resolver'}"
                       if answer.responded else "dns:silent")
    result["express"] = phase.result(time.perf_counter() - start)

    if tracer is not None:
        tracer.unit = f"{label}/web"
    phase, start = _Phase(), time.perf_counter()
    for vantage in plan["web_vantages"]:
        for domain in plan["web_domains"]:
            phase.ops += 1
            try:
                site = web_connectivity(world, vantage, domain)
            except Exception as exc:  # counted, never fatal to the sweep
                phase.fail(exc)
                continue
            if site.error is not None or site.notes.startswith("control"):
                phase.failed += 1
            phase.note(f"{site.blocking}:{site.notes or '-'}")
    result["web"] = phase.result(time.perf_counter() - start)

    if tracer is not None:
        tracer.unit = f"{label}/trace"
    phase, start = _Phase(), time.perf_counter()
    for client, dst_ip, domain in plan["traces"]:
        phase.ops += 1
        try:
            trace = http_iterative_trace(world, client, dst_ip, domain)
        except Exception as exc:  # counted, never fatal to the sweep
            phase.fail(exc)
            continue
        phase.note(f"hop:{trace.censor_hop}" if trace.censorship_observed
                   else "unobserved")
    result["trace"] = phase.result(time.perf_counter() - start)

    if tracer is not None:
        tracer.unit = None
    result["events"] = network.events_processed - events_before
    return result


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1808,
                        help="world seed")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--rounds", type=int, default=2,
                        help="measured rounds after the warm-up round")
    parser.add_argument("--sample-seed", type=int, default=0,
                        help="picks the web-tested and traced sites")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None, tracer=None) -> int:
    args = parse_args(argv)
    from repro.isps import build_world
    from repro.obs.metrics import MetricsRegistry, collect_world_metrics

    world = build_world(seed=args.seed, scale=args.scale)
    plan = build_plan(world, args.sample_seed)
    run_round(world, plan, tracer, label="warm-up")
    print("ready", flush=True)
    rounds = [run_round(world, plan, tracer, label=f"round-{index}")
              for index in range(args.rounds)]
    registry = MetricsRegistry()
    collect_world_metrics(registry, world)
    print(json.dumps({
        "scale": args.scale,
        "sizes": {"express": 2 * len(plan["targets"]) * len(plan["vantages"])
                  * plan["express_passes"],
                  "web": len(plan["web_domains"])
                  * len(plan["web_vantages"]),
                  "trace": len(plan["traces"])},
        "rounds": rounds,
        "metrics": registry.snapshot(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
