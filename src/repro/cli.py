"""Command-line interface.

::

    python -m repro info                      # world summary
    python -m repro experiment table2        # regenerate a table/figure
    python -m repro campaign                 # ALL experiments, durable
    python -m repro campaign --resume DIR    # continue a killed run
    python -m repro fetch airtel <domain>    # fetch like a browser
    python -m repro evade idea <domain>      # try every evasion
    python -m repro trace idea <domain>      # iterative network trace
    python -m repro fuzz --seed 7            # deterministic fuzz campaign
    python -m repro report <run-dir>         # campaign run dir -> report
    python -m repro serve --port 0          # measurement service daemon

All commands accept ``--scale`` (world size; 1.0 = paper scale) and
``--seed``.  Fault injection is available everywhere: ``--loss 0.05``
drops 5% of packets on every link, ``--fault-seed`` picks the
deterministic fault schedule, ``--retries`` overrides how often the
hardened clients retry, and ``--verbose`` prints drop/fault statistics
after the command.  Experiments additionally honour
``REPRO_BENCH_FRACTION``; the population-scale experiment honours
``REPRO_POPULATION_SCALE`` (session-volume multiplier).

``campaign`` journals every measurement unit to
``<run-dir>/journal.jsonl`` and renders ``<run-dir>/tables.txt`` from
the journal, so a killed run resumes with ``--resume`` and re-measures
only missing units — see ``docs/CAMPAIGNS.md``.

``fuzz`` runs the deterministic protocol fuzzer with its differential
server/middlebox oracle; same seed ⇒ byte-identical journal — see
``docs/FUZZING.md``.

``campaign --trace`` records hop-level trace events to a
``trace.jsonl`` sidecar, and ``report`` renders any finished (or
killed) run directory into ``report.md`` + ``report.json`` — see
``docs/OBSERVABILITY.md``.

``serve`` runs the long-lived multi-tenant measurement service:
campaign submission over local HTTP/JSON, weighted fair-share
scheduling with per-tenant quotas, live SSE event streams, graceful
drain on SIGTERM, and crash recovery from the spool on boot — see
``docs/SERVICE.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

from .isps import PROFILES, build_world
from .netsim.faults import DEFAULT_HARDENING, FaultPlan

#: CLI experiment names (canonical registry lives in
#: :data:`repro.experiments.EXPERIMENT_MODULES`; mirrored here so
#: building the parser doesn't import the whole measurement stack).
EXPERIMENTS = (
    "table1", "table2", "table3", "fig2", "fig5", "trigger",
    "dns-mechanism", "tcpip", "statefulness", "session-dynamics",
    "population-scale", "evasion", "ooni-failures", "https",
    "idiosyncrasies",
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=float, default=0.25,
                        help="world scale (1.0 = full paper scale)")
    common.add_argument("--seed", type=int, default=1808)
    common.add_argument("--loss", type=float, default=0.0,
                        help="per-link packet loss probability "
                             "(enables fault injection)")
    common.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault schedule")
    common.add_argument("--retries", type=int, default=None,
                        help="override DNS/HTTP client attempts under "
                             "faults (default: hardening policy)")
    common.add_argument("--verbose", action="store_true",
                        help="print drop and fault-injector statistics "
                             "after the command")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Where The Light Gets In' (IMC 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common],
                   help="summarize the simulated world")

    experiment = sub.add_parser("experiment", parents=[common],
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    campaign = sub.add_parser(
        "campaign", parents=[common],
        help="run experiments as a crash-safe, resumable campaign")
    # No argparse choices= here: nargs="*" validates its empty default
    # against them on some Python versions; Campaign rejects unknown
    # names with the full list instead.
    campaign.add_argument("names", nargs="*", metavar="experiment",
                          help="experiments to run (default: all; "
                               "same names as 'experiment')")
    campaign.add_argument("--run-dir", default="campaign-run",
                          help="directory for journal.jsonl + tables.txt")
    campaign.add_argument("--resume", metavar="RUN_DIR", default=None,
                          help="resume a killed campaign from its "
                               "run directory")
    campaign.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget for the whole campaign")
    campaign.add_argument("--unit-deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget per measurement unit, "
                               "from dispatch; the supervisor kills a "
                               "worker still busy 2 s past it and "
                               "journals a timeout")
    campaign.add_argument("--unit-steps", type=int, default=None,
                          metavar="N",
                          help="simulated-event budget per unit: the "
                               "event past N ends the unit as a "
                               "deterministic timeout")
    campaign.add_argument("--workers", type=int, default=1, metavar="N",
                          help="execute units in N worker processes; "
                               "results are committed to the journal "
                               "in canonical unit order, so output is "
                               "byte-identical to --workers 1 "
                               "(default: 1)")
    campaign.add_argument("--worker-memory-mb", type=int, default=None,
                          metavar="MB",
                          help="address-space budget per worker process "
                               "(resource.setrlimit); a unit blowing it "
                               "is retried in a fresh worker and "
                               "quarantined on repeat")
    campaign.add_argument("--max-worker-crashes", type=int, default=2,
                          metavar="N",
                          help="quarantine a unit after it kills N "
                               "consecutive workers (default: 2)")
    campaign.add_argument("--journal", action="store_true",
                          help="echo journal records as they are "
                               "appended")
    campaign.add_argument("--trace", action="store_true",
                          help="record hop-level trace events to "
                               "<run-dir>/trace.jsonl (journal bytes "
                               "are unaffected)")

    report = sub.add_parser(
        "report",
        help="render a campaign run directory into report.md + "
             "report.json")
    report.add_argument("run_dir", metavar="RUN_DIR",
                        help="a campaign run directory "
                             "(contains journal.jsonl)")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant measurement service "
             "(campaign submission over local HTTP, fair-share "
             "scheduling, graceful drain, crash recovery)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8437,
                       help="bind port; 0 picks a free port and "
                            "records it in <spool>/service.json "
                            "(default: 8437)")
    serve.add_argument("--spool", default="serve-spool",
                       help="durable submission spool directory "
                            "(default: serve-spool)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="total worker-slot budget shared by all "
                            "tenants; one slot = one supervised "
                            "worker process (default: 2)")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="SPEC",
                       help="declare a tenant as "
                            "name[:weight[:max_slots[:max_queued]]]; "
                            "repeatable (default: one tenant named "
                            "'default')")
    serve.add_argument("--default-workers", type=int, default=1,
                       metavar="N",
                       help="worker slots a submission gets when it "
                            "does not specify (default: 1)")

    fuzz = sub.add_parser(
        "fuzz",
        help="deterministic protocol fuzzing with a differential "
             "server/middlebox oracle")
    fuzz.add_argument("--seed", type=int, default=1808,
                      help="campaign seed (same seed = byte-identical "
                           "journal)")
    fuzz.add_argument("--iterations", type=int, default=2000,
                      help="iterations per target")
    fuzz.add_argument("--target", action="append", default=None,
                      choices=["http", "dns", "tcp", "diff", "session"],
                      help="fuzz target(s); repeatable (default: all)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="extra corpus entries (*.json) merged with "
                           "the built-in seeds")
    fuzz.add_argument("--run-dir", default="fuzz-run",
                      help="directory for fuzz-journal.jsonl")
    fuzz.add_argument("--resume", action="store_true",
                      help="continue a killed campaign from its journal "
                           "instead of starting over")
    fuzz.add_argument("--checkpoint-every", type=int, default=500,
                      metavar="N", help="journal a checkpoint every N "
                                        "iterations")
    fuzz.add_argument("--emit-fixtures", default=None, metavar="DIR",
                      help="write minimized reproducers as replayable "
                           "fixtures into DIR")
    fuzz.add_argument("--journal", action="store_true",
                      help="print the journal path and tail after the run")

    fetch = sub.add_parser("fetch", parents=[common],
                           help="fetch a domain from inside an ISP")
    fetch.add_argument("isp", choices=sorted(PROFILES))
    fetch.add_argument("domain", nargs="?", default=None,
                       help="default: first censored site found")

    evade = sub.add_parser("evade", parents=[common],
                           help="try every evasion strategy")
    evade.add_argument("isp", choices=sorted(PROFILES))
    evade.add_argument("domain", nargs="?", default=None)

    trace = sub.add_parser("trace", parents=[common],
                           help="iterative network trace")
    trace.add_argument("isp", choices=sorted(PROFILES))
    trace.add_argument("domain", nargs="?", default=None)

    return parser


def main(argv: Optional[list] = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(raw)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "campaign":
        return _cmd_campaign(args, raw)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    world = build_world(seed=args.seed, scale=args.scale)
    _install_faults(world, args)
    if args.command == "info":
        status = _cmd_info(world)
    elif args.command == "fetch":
        status = _cmd_fetch(world, args.isp, args.domain)
    elif args.command == "evade":
        status = _cmd_evade(world, args.isp, args.domain)
    elif args.command == "trace":
        status = _cmd_trace(world, args.isp, args.domain)
    else:  # pragma: no cover - argparse enforces choices
        return 2
    if args.verbose:
        _print_fault_stats(world)
    return status


def _install_faults(world, args) -> None:
    """Activate the ``--loss``/``--fault-seed``/``--retries`` flags."""
    if not args.loss:
        return
    try:
        plan = FaultPlan.uniform_loss(args.loss, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    hardening = DEFAULT_HARDENING
    if args.retries is not None:
        hardening = dataclasses.replace(
            hardening,
            dns_attempts=max(1, args.retries),
            fetch_attempts=max(1, args.retries),
        )
    world.install_faults(plan, hardening)


def _print_fault_stats(world) -> None:
    network = world.network
    drops = network.drop_stats()
    print("drop stats:" if drops else "drop stats: (none)")
    for reason, count in sorted(drops.items()):
        print(f"  {reason}: {count}")
    if network.faults is not None:
        print("fault injector:")
        for line in network.faults.stats_lines():
            print(f"  {line}")


def _cmd_info(world) -> int:
    print(f"nodes: {len(world.network.nodes)}, "
          f"links: {sum(map(len, world.network.adjacency.values())) // 2}")
    print(f"PBW corpus: {len(world.corpus)} sites, "
          f"Alexa destinations: {len(world.alexa)}")
    print(f"{'ISP':10s} {'mechanism':16s} {'boxes':>5s} "
          f"{'resolvers':>9s} {'blocklist':>9s}")
    for name, deployment in sorted(world.isps.items()):
        profile = deployment.profile
        blocked = len(deployment.http_blocklist
                      or deployment.dns_blocklist)
        print(f"{name:10s} {profile.mechanism:16s} "
              f"{len(deployment.middleboxes):5d} "
              f"{len(deployment.resolvers):9d} {blocked:9d}")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    module = experiments.EXPERIMENT_MODULES[args.name]
    world = experiments.get_world(seed=args.seed, scale=args.scale)
    _install_faults(world, args)
    result = module.run(world)
    print(result.render())
    if args.verbose:
        _print_fault_stats(world)
    return 0


#: Campaign flags that pin journal meta fields; any the user does NOT
#: pass are adopted from the journal on ``--resume``, so the printed
#: ``repro campaign --resume <run_dir>`` hint works verbatim.
_CAMPAIGN_META_FLAGS = (
    ("--seed", "seed"), ("--scale", "scale"), ("--loss", "loss"),
    ("--fault-seed", "fault_seed"), ("--retries", "retries"),
    ("--unit-steps", "unit_steps"),
    ("--worker-memory-mb", "memory_limit"),
)


def _resume_adoptions(raw) -> set:
    flagged = {
        key for opt, key in _CAMPAIGN_META_FLAGS
        if any(tok == opt or tok.startswith(opt + "=") for tok in raw)
    }
    adopt = {key for _, key in _CAMPAIGN_META_FLAGS} - flagged
    adopt.add("fraction")
    if os.environ.get("REPRO_BENCH_FRACTION"):
        # The env var is this run's explicit fraction choice; keep the
        # mismatch check instead of silently overriding it.
        adopt.discard("fraction")
    return adopt


def _cmd_campaign(args, raw=()) -> int:
    import signal
    import threading

    from .runner import CampaignError
    from .runner.campaign import Campaign

    if args.workers < 1:
        return _campaign_trouble(
            f"--workers must be >= 1, got {args.workers}")
    cores = os.cpu_count()
    if cores is not None and args.workers > cores:
        print(f"repro: warning: --workers {args.workers} exceeds "
              f"{cores} available CPU core(s); workers will contend",
              file=sys.stderr)
    run_dir = args.resume if args.resume is not None else args.run_dir
    # SIGINT/SIGTERM request a graceful stop: the campaign finishes
    # and journals the unit(s) in flight, then returns a drained
    # report — never a torn journal.  A second signal falls through to
    # the default handler (hard kill; the journal survives that too).
    stop_event = threading.Event()
    restore = {}

    def _request_stop(signum, frame):
        stop_event.set()
        for signum_restore, handler in restore.items():
            signal.signal(signum_restore, handler)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            restore[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # non-main thread / platform
            pass
    try:
        campaign = Campaign(
            experiments=list(args.names) or None,
            seed=args.seed,
            scale=args.scale,
            run_dir=run_dir,
            resume=args.resume is not None,
            unit_steps=args.unit_steps,
            unit_wall=args.unit_deadline,
            deadline=args.deadline,
            loss=args.loss,
            fault_seed=args.fault_seed,
            retries=args.retries,
            echo_journal=args.journal,
            workers=args.workers,
            trace=args.trace,
            memory_limit_mb=args.worker_memory_mb,
            max_worker_crashes=args.max_worker_crashes,
            stop_event=stop_event,
            adopt_settings=(_resume_adoptions(raw)
                            if args.resume is not None else None),
        )
        report = campaign.run()
    except CampaignError as exc:
        return _campaign_trouble(str(exc))
    finally:
        for signum, handler in restore.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    print(report.render())
    if report.drained:
        print(f"repro campaign --resume {run_dir}", file=sys.stderr)
        return 130
    return 0 if report.complete else 1


def _campaign_trouble(message: str) -> int:
    """Report *message*; status 2 says the campaign did not run or
    aborted.  As with grep and diff, 2 means trouble, while 1 means
    the campaign finished with units missing."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _cmd_serve(args) -> int:
    import asyncio

    from .serve.app import Service, ServiceConfig
    from .serve.tenants import TenantSpecError, parse_tenants

    if args.workers < 1:
        raise SystemExit(
            f"repro: error: --workers must be >= 1, got {args.workers}")
    if args.default_workers < 1:
        raise SystemExit(f"repro: error: --default-workers must be "
                         f">= 1, got {args.default_workers}")
    try:
        tenants = parse_tenants(args.tenant or ["default"])
    except TenantSpecError as exc:
        raise SystemExit(f"repro: error: {exc}")
    service = Service(ServiceConfig(
        tenants=tenants,
        host=args.host,
        port=args.port,
        spool=args.spool,
        slots=args.workers,
        default_workers=args.default_workers,
    ))
    try:
        return asyncio.run(service.run())
    except KeyboardInterrupt:  # loop without signal-handler support
        return 0
    except OSError as exc:
        raise SystemExit(f"repro: error: {exc}")


def _cmd_report(args) -> int:
    from .obs.report import ReportError, write_report

    try:
        md_path, json_path = write_report(args.run_dir)
    except ReportError as exc:
        raise SystemExit(f"repro: error: {exc}")
    with open(md_path, encoding="utf-8") as fh:
        print(fh.read(), end="")
    print(f"\nwrote {md_path} and {json_path}")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzEngine
    from .runner.errors import JournalError

    try:
        engine = FuzzEngine(
            seed=args.seed,
            iterations=args.iterations,
            targets=args.target,
            run_dir=args.run_dir,
            corpus_dir=args.corpus,
            checkpoint_every=args.checkpoint_every,
            fixtures_dir=args.emit_fixtures,
            resume=args.resume,
        )
        report = engine.run()
    except JournalError as exc:
        raise SystemExit(f"repro: error: {exc}")
    print(report.render())
    if args.journal:
        with open(report.journal_path, "r", encoding="utf-8") as fh:
            for line in fh:
                print(line.rstrip("\n"))
    return 0 if report.findings == 0 else 1


def _pick_domain(world, isp: str, domain: Optional[str]) -> Optional[str]:
    if domain is not None:
        return domain
    from .core.measure import canonical_payload, express_http_probe

    client = world.client_of(isp)
    for candidate in sorted(world.blocklists.http.get(isp, ())):
        dst_ip = world.hosting.ip_for(candidate, "in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(candidate))
        if verdict.censored:
            return candidate
    deployment = world.isp(isp)
    if deployment.profile.censors_dns:
        from .core.measure import resolver_service_at

        service = resolver_service_at(world.network,
                                      deployment.default_resolver_ip)
        if service is not None and service.config.blocklist:
            return sorted(service.config.blocklist)[0]
    return None


def _cmd_fetch(world, isp: str, domain: Optional[str]) -> int:
    from .core.groundtruth import manually_verify
    from .core.vantage import VantagePoint
    from .middlebox import identify_isp, looks_like_block_page

    domain = _pick_domain(world, isp, domain)
    if domain is None:
        print(f"no censored site found for {isp}; pass a domain explicitly")
        return 1
    vantage = VantagePoint.inside(world, isp)
    print(f"fetching http://{domain}/ from inside {isp}...")
    lookup = vantage.resolve(domain)
    print(f"  resolved: {lookup.ips or 'FAILED'}")
    result = vantage.fetch_domain(domain)
    if result is None:
        print("  fetch failed: resolution returned nothing")
    else:
        response = result.first_response
        if response is not None and looks_like_block_page(response.body):
            print(f"  BLOCK PAGE (fingerprint: "
                  f"{identify_isp(response.body)!r})")
        elif response is not None:
            print(f"  HTTP {response.status}, {len(response.body)} bytes, "
                  f"title: {response.title()!r}")
        else:
            print(f"  no response ({result.outcome()})")
    verdict = manually_verify(world, vantage.host, domain)
    print(f"  manual verification: censored={verdict.censored} "
          f"mechanism={verdict.mechanism} ({verdict.evidence})")
    return 0


def _cmd_evade(world, isp: str, domain: Optional[str]) -> int:
    from .core.evasion import STRATEGIES, attempt_strategy
    from .core.vantage import VantagePoint

    domain = _pick_domain(world, isp, domain)
    if domain is None:
        print(f"no censored site found for {isp}")
        return 1
    vantage = VantagePoint.inside(world, isp)
    print(f"trying every strategy for {domain} in {isp}:")
    any_success = False
    for strategy in STRATEGIES:
        attempt = attempt_strategy(world, vantage, domain, strategy)
        mark = "OK " if attempt.success else "no "
        print(f"  [{mark}] {strategy.name:26s} {attempt.detail}")
        any_success = any_success or attempt.success
    return 0 if any_success else 1


def _cmd_trace(world, isp: str, domain: Optional[str]) -> int:
    from .core.measure import http_iterative_trace

    domain = _pick_domain(world, isp, domain)
    if domain is None:
        print(f"no censored site found for {isp}")
        return 1
    client = world.client_of(isp)
    dst_ip = world.hosting.ip_for(domain, "in")
    print(f"iterative network trace toward {domain} ({dst_ip}):")
    trace = http_iterative_trace(world, client, dst_ip, domain)
    for index, (hop, label) in enumerate(
            zip(trace.traceroute.hops + [None] * 32, trace.per_ttl),
            start=1):
        print(f"  ttl={index:2d}  {hop or '*':16s} {label}")
    if trace.censorship_observed:
        print(f"  -> middlebox at hop {trace.censor_hop} "
              f"({'anonymized' if trace.middlebox_anonymized else trace.censor_hop_ip})")
    else:
        print("  -> no censorship observed on this path")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
