"""End-to-end benchmark: ``repro campaign`` serial and on two workers,
plus a warm-world probe sweep.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload campaign-serial --seed 0 --seconds 30 --trace 0

Workloads, all closed loops (each call waits for the previous one):

``campaign-serial``
    ``repro campaign`` over every experiment at ``--scale 0.25`` with
    ``--workers 1``.
``campaign-workers``
    The same campaign with ``--workers 2``.
``probe-sweep``
    ``sweep.py`` at ``--scale 1.0``: one world per process, warmed, then
    rounds of express probes, web tests and iterative traces; the rate
    of each kind prints above the result line.

The workload seed is the only input: every process gets
``PYTHONHASHSEED = seed mod 2**32`` (spawned workers inherit it), the
campaign seed is ``1808 + seed``, and the sweep, on the seed-1808 world,
uses the workload seed to pick the sites it web-tests and traces.
Every other ``REPRO_*`` and ``PYTHON*`` variable is cleared.  Each run
checks its outputs: digests of the
campaign's tables, journal and deterministic metrics, and the sweep's
per-round outcome tallies and event counts, must match across repeats,
across workloads and across runs with the same inputs (kept under
``e2ebench/.state``, keyed by the inputs alone, so a changed program is
compared with what the code before it computed).  A failed check prints
``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with spans around each layer
(``traced.py``) and prints the per-layer metrics.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``e2ebench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import figures
import spans
from sweep import PHASES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "e2ebench"
RUNS = BENCH / ".runs"
STATE = BENCH / ".state"
PROGRAM = ROOT / "src" / "repro"

#: Environment variable marking every process this benchmark starts in
#: this checkout, so leftovers from an earlier run can be found.
MARKER = "E2EBENCH_CHECKOUT"

#: The default campaign seed; sweeps always probe this world, because
#: per-trace cost differs by up to 1.5x between worlds.
SEED_BASE = 1808
CAMPAIGN_SCALE = 0.25
SWEEP_SCALE = 1.0
SWEEP_ROUNDS = 2
#: Campaign set-up launches per run, half before the repeats, half after.
SETUP_SAMPLES = 9
STRAY_GRACE_S = 10.0

#: workload -> (campaign workers or None, nominal seconds of one repeat).
WORKLOADS: Dict[str, Tuple[Optional[int], float]] = {
    "campaign-serial": (1, 30.0),
    "campaign-workers": (2, 15.0),
    "probe-sweep": (None, 14.0),
}


class Checks:
    """Failed output checks; the run is correct when there are none."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


@dataclasses.dataclass
class Launch:
    """One process tree, timed from spawn to exit."""

    wall: float
    #: Spawn to first stdout line (None when the process printed none).
    setup: Optional[float]
    cpu: float
    peak_rss_mb: float
    returncode: int
    lines: List[str]


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env(hash_seed: int) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed),
               PYTHONUNBUFFERED="1")
    env[MARKER] = str(ROOT)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv: List[str], env: Dict[str, str],
           until_first_line: bool = False) -> Launch:
    """Run *argv* in its own process group and wait for it.

    CPU time and peak RSS come from ``wait4`` and cover the process and
    every descendant it waited for.  With *until_first_line* the group
    is killed as soon as the first stdout line arrives.
    """
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    first: Optional[float] = None
    lines: List[str] = []
    try:
        for raw in proc.stdout:
            if first is None:
                first = time.monotonic()
                if until_first_line:
                    _kill_group(proc.pid)
                    break
            lines.append(raw.decode("utf-8", "replace"))
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            _kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
    return Launch(wall=end - start,
                  setup=None if first is None else first - start,
                  cpu=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  returncode=proc.returncode, lines=lines)


def marked_processes() -> List[int]:
    """Live processes carrying this checkout's marker."""
    wanted = f"{MARKER}={ROOT}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if wanted in fh.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def settle_strays(grace: float) -> List[int]:
    """Wait up to *grace* seconds for marked processes to exit, then
    kill the rest; returns the pids that had to be killed."""
    deadline = time.monotonic() + grace
    while True:
        pids = marked_processes()
        if not pids:
            return []
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STRAY_GRACE_S
    while marked_processes() and time.monotonic() < deadline:
        time.sleep(0.05)
    return pids


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop: reports machine drift."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def agree_across_runs(kind: str, inputs, value, checks: Checks) -> None:
    """*value* must equal what earlier runs with the same inputs recorded,
    whatever code they ran; the first run records it."""
    key = _digest(json.dumps([kind, inputs]).encode())
    path = STATE / f"{kind}-{key}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        checks.require(stored == value,
                       f"{kind}: differs from an earlier run with the same "
                       f"inputs ({path.name})")
        return
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, sort_keys=True))
    os.replace(tmp, path)


@dataclasses.dataclass
class CampaignOutcome:
    digests: Dict[str, str]
    units: int
    units_failed: int
    unit_wall_total: float
    counters: Dict[str, int]
    supervision_events: int


def read_campaign(run_dir: Path, run: Launch, checks: Checks
                  ) -> Optional[CampaignOutcome]:
    """Check a finished campaign's outputs and digest them; ``None``
    when they cannot be read."""
    checks.require(run.returncode == 0,
                   f"campaign exited with {run.returncode}")
    checks.require(bool(run.lines) and '"type":"meta"' in run.lines[0],
                   "campaign did not echo its journal meta record first")
    try:
        return _digest_campaign(run_dir, run, checks)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.require(False, f"campaign outputs unreadable: {exc!r}")
        return None


def _digest_campaign(run_dir: Path, run: Launch, checks: Checks
                     ) -> CampaignOutcome:
    journal = (run_dir / "journal.jsonl").read_bytes()
    records = [json.loads(line) for line in journal.splitlines()]
    units = [rec for rec in records if rec.get("type") == "unit"]
    failed = sum(1 for rec in units if rec.get("status") != "ok")
    checks.require(failed == 0, f"{failed} campaign unit(s) not ok")
    checks.require(records[-1].get("type") == "end"
                   and records[-1].get("status") == "complete",
                   "campaign journal has no complete end record")
    summary = next((line for line in run.lines
                    if line.startswith("units: ")), "")
    match = re.match(r"units: (\d+) total", summary)
    checks.require(bool(match) and int(match.group(1)) == len(units),
                   f"campaign summary {summary.strip()!r} does not match "
                   f"{len(units)} journaled units")
    metrics = json.loads((run_dir / "metrics.json").read_text())
    deterministic = json.dumps(metrics["deterministic"], sort_keys=True,
                               separators=(",", ":")).encode()
    timings = [json.loads(line) for line in
               (run_dir / "timings.jsonl").read_text().splitlines()]
    supervision = run_dir / "supervision.jsonl"
    return CampaignOutcome(
        digests={"tables": _digest((run_dir / "tables.txt").read_bytes()),
                 "journal": _digest(journal),
                 "metrics": _digest(deterministic)},
        units=len(units), units_failed=failed,
        unit_wall_total=sum(row["wall"] for row in timings),
        counters=metrics["deterministic"]["counters"],
        supervision_events=(len(supervision.read_text().splitlines())
                            if supervision.exists() else 0))


@dataclasses.dataclass
class SweepOutcome:
    rounds: List[Dict]
    sizes: Dict[str, int]
    counters: Dict[str, int]
    failed: int
    attempted: int

    def seconds(self, phase: str) -> float:
        return sum(rnd[phase]["seconds"] for rnd in self.rounds)

    def rate(self, phase: str) -> float:
        """Operations per second of *phase*, pooled over the rounds."""
        return figures.rate(sum(rnd[phase]["ops"] for rnd in self.rounds),
                            self.seconds(phase))

    def round_share(self, phase: str) -> float:
        """*phase*'s share of the measured rounds' time."""
        return figures.share(self.seconds(phase),
                             sum(self.seconds(p) for p in PHASES))

    def fingerprint(self) -> List:
        """Per-round outcome tallies and event counts."""
        return [[{phase: rnd[phase]["tally"] for phase in PHASES},
                 rnd["events"]] for rnd in self.rounds]


def read_sweep(run: Launch, checks: Checks) -> Optional[SweepOutcome]:
    checks.require(run.returncode == 0, f"sweep exited with {run.returncode}")
    checks.require(bool(run.lines) and run.lines[0].strip() == "ready",
                   "sweep did not print 'ready' first")
    try:
        result = json.loads(run.lines[-1])
        rounds = result["rounds"]
    except (IndexError, ValueError, KeyError):
        checks.require(False, "sweep printed no result")
        return None
    failed = sum(rnd[p]["failed"] for rnd in rounds for p in PHASES)
    attempted = sum(rnd[p]["ops"] for rnd in rounds for p in PHASES)
    checks.require(failed == 0, f"{failed} sweep operation(s) failed")
    return SweepOutcome(rounds=rounds, sizes=result["sizes"],
                        counters=result["metrics"]["counters"],
                        failed=failed, attempted=attempted)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Bench:
    """One invocation: a workload, its seeds and sizes, and its checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.workers, nominal = WORKLOADS[args.workload]
        self.repeats = max(1, round(args.seconds / nominal))
        self.seed = args.seed
        self.world_seed = SEED_BASE + args.seed
        self.hash_seed = args.seed % 2 ** 32
        self.env = child_env(self.hash_seed)
        self.scale = args.scale if args.scale is not None else (
            CAMPAIGN_SCALE if self.workers is not None else SWEEP_SCALE)
        self.rounds = args.rounds
        self.experiments = [name for name in args.experiments.split(",")
                            if name]
        self.checks = Checks()
        self.tally = Tally()
        self.machine: List[float] = []
        self._dirs = 0

    # -- plumbing --------------------------------------------------------

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = RUNS / f"{self.workload}-{os.getpid()}-{self._dirs}-{label}"
        shutil.rmtree(path, ignore_errors=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def after_launch(self, what: str) -> None:
        """Nothing this benchmark started may outlive its process tree."""
        killed = settle_strays(STRAY_GRACE_S)
        self.checks.require(not killed,
                            f"{len(killed)} process(es) outlived {what}")

    def warm_up(self) -> None:
        """Untimed: costs users pay once, not on every run."""
        killed = settle_strays(STRAY_GRACE_S)
        if killed:
            print(f"note: killed {len(killed)} process(es) left by an "
                  f"earlier run", file=sys.stderr)
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
        warm = launch([sys.executable, "-c",
                       "import repro.cli, repro.experiments, networkx"],
                      self.env)
        self.checks.require(warm.returncode == 0, "program does not import")

    def campaign_argv(self, run_dir: Path) -> List[str]:
        return ["campaign", *self.experiments, "--scale", str(self.scale),
                "--seed", str(self.world_seed), "--workers",
                str(self.workers), "--run-dir", str(run_dir), "--journal"]

    def sweep_argv(self) -> List[str]:
        return ["--seed", str(SEED_BASE), "--sample-seed", str(self.seed),
                "--scale", str(self.scale), "--rounds", str(self.rounds)]

    def traced_argv(self, spans_dir: Path, target: str,
                    rest: List[str]) -> List[str]:
        spans_dir.mkdir(parents=True)
        return [sys.executable, str(BENCH / "traced.py"), str(spans_dir),
                target, *rest]

    # -- campaigns -------------------------------------------------------

    def setup_sample(self) -> float:
        """Spawn the campaign and stop it once its journal is open."""
        run_dir = self.fresh_dir("setup")
        run = launch([sys.executable, "-m", "repro",
                      *self.campaign_argv(run_dir)], self.env,
                     until_first_line=True)
        self.after_launch("a set-up sample")
        shutil.rmtree(run_dir, ignore_errors=True)
        self.checks.require(run.setup is not None,
                            "campaign printed nothing")
        return run.setup or 0.0

    def campaign(self, traced_into: Optional[Path] = None
                 ) -> Tuple[Launch, Optional[CampaignOutcome]]:
        run_dir = self.fresh_dir("traced" if traced_into else "campaign")
        argv = self.campaign_argv(run_dir)
        argv = (self.traced_argv(traced_into, "repro", argv) if traced_into
                else [sys.executable, "-m", "repro", *argv])
        self.machine.append(machine_probe())
        run = launch(argv, self.env)
        self.after_launch("the campaign")
        outcome = read_campaign(run_dir, run, self.checks)
        shutil.rmtree(run_dir, ignore_errors=True)
        if outcome is None:
            self.tally.attempted += 1
            self.tally.failed += 1
            return run, None
        self.tally.attempted += outcome.units
        self.tally.failed += outcome.units_failed
        print(f"campaign{' (traced)' if traced_into else ''}: "
              f"wall {run.wall:.3f} s, set-up {run.setup or 0:.3f} s, "
              f"cpu {run.cpu:.3f} s, peak rss {run.peak_rss_mb:.1f} MB, "
              f"units {outcome.units - outcome.units_failed}/"
              f"{outcome.units} ok, unit wall {outcome.unit_wall_total:.3f}"
              f" s, supervision events {outcome.supervision_events}")
        print("digest " + " ".join(f"{key}={value}" for key, value
                                   in sorted(outcome.digests.items())))
        agree_across_runs(
            "campaign", [self.world_seed, self.hash_seed, self.scale,
                         self.experiments],
            outcome.digests, self.checks)
        return run, outcome

    # -- sweeps ----------------------------------------------------------

    def sweep(self, traced_into: Optional[Path] = None
              ) -> Tuple[Launch, Optional[SweepOutcome]]:
        argv = (self.traced_argv(traced_into, "sweep", self.sweep_argv())
                if traced_into else
                [sys.executable, str(BENCH / "sweep.py"), *self.sweep_argv()])
        self.machine.append(machine_probe())
        run = launch(argv, self.env)
        self.after_launch("the sweep")
        outcome = read_sweep(run, self.checks)
        if outcome is None:
            self.tally.attempted += 1
            self.tally.failed += 1
            return run, None
        self.tally.attempted += outcome.attempted
        self.tally.failed += outcome.failed
        print(f"sweep{' (traced)' if traced_into else ''} at scale "
              f"{self.scale}: wall {run.wall:.3f} s, set-up "
              f"{run.setup or 0:.3f} s, cpu {run.cpu:.3f} s, peak rss "
              f"{run.peak_rss_mb:.1f} MB, {len(outcome.rounds)} rounds of "
              + ", ".join(f"{n} {phase}" for phase, n
                          in sorted(outcome.sizes.items())))
        fingerprint = outcome.fingerprint()
        print("digest sweep="
              + _digest(json.dumps(fingerprint, sort_keys=True).encode()))
        agree_across_runs(
            "sweep", [self.seed, self.hash_seed, self.scale, self.rounds],
            fingerprint, self.checks)
        return run, outcome

    # -- the two modes ---------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """``--trace 0``: every end-to-end metric."""
        runs: List[Launch] = []
        sweeps: List[SweepOutcome] = []
        setups: List[float] = []
        if self.workers is not None:
            before = SETUP_SAMPLES // 2
            setups = [self.setup_sample() for _ in range(before)]
            runs = [self.campaign()[0] for _ in range(self.repeats)]
            setups += [self.setup_sample()
                       for _ in range(SETUP_SAMPLES - before)]
        else:
            for _ in range(self.repeats):
                run, outcome = self.sweep()
                runs.append(run)
                if outcome is not None:
                    sweeps.append(outcome)
        setups += [run.setup for run in runs if run.setup is not None]
        values = {
            "setup_s": figures.median(setups),
            "wall_s": figures.median([run.wall for run in runs]),
            "cpu_s": figures.median([run.cpu for run in runs]),
            "peak_rss_mb": figures.median([run.peak_rss_mb for run in runs]),
            "ok_share": figures.ok_share(self.tally.attempted,
                                         self.tally.failed),
        }
        figures.require_names(values, figures.END_TO_END)
        for name, phase in (("express_probes_per_s", "express"),
                            ("web_tests_per_s", "web"),
                            ("traces_per_s", "trace")):
            if sweeps:
                pooled = [outcome.rate(phase) for outcome in sweeps]
                shares = [outcome.round_share(phase) for outcome in sweeps]
                print(f"{name} = {figures.median(pooled):.6g} 1/s (median "
                      f"over {len(pooled)} process(es) of the rate over "
                      f"{self.rounds} rounds of {sweeps[0].sizes[phase]} "
                      f"operations at scale {self.scale}; "
                      f"{figures.median(shares):.1%} of round time)")
        print(f"  setup_s: median of {len(setups)} set-ups; wall_s, cpu_s, "
              f"peak_rss_mb: median of {len(runs)} run(s); ok_share: "
              f"{self.tally.attempted - self.tally.failed} of "
              f"{self.tally.attempted} operations ok (failed_share "
              f"{figures.failed_share(self.tally.attempted, self.tally.failed):g})")
        return values

    def per_layer(self) -> Dict[str, float]:
        """``--trace 1``: every per-layer metric."""
        traced_dir = self.fresh_dir("spans")
        runner = None
        counters: List[Dict[str, int]] = []
        if self.workers is not None:
            plain, outcome = self.campaign()
            traced, traced_outcome = self.campaign(traced_into=traced_dir)
            if outcome and traced_outcome and plain.setup is not None:
                runner = figures.runner_figures(outcome.unit_wall_total,
                                                plain.wall, plain.setup,
                                                self.workers)
                self.checks.require(
                    traced_outcome.digests == outcome.digests,
                    "tracing changed the campaign's outputs")
                counters.append(traced_outcome.counters)
        else:
            plain, _ = self.sweep()
            traced, sweep = self.sweep(traced_into=traced_dir)
            if sweep:
                counters.append(sweep.counters)
        dumps = sorted(glob.glob(str(traced_dir / "**" / "spans-*.marshal"),
                                 recursive=True))
        processes, gc_seconds, gc_collections = spans.load_dumps(dumps)
        shutil.rmtree(traced_dir, ignore_errors=True)
        totals = spans.merge_totals(spans.layer_totals(p) for p in processes)
        merged = figures.add_counters(*counters)
        values = figures.layer_metrics(
            totals, merged, gc_seconds, gc_collections, runner,
            overhead_share=traced.wall / plain.wall - 1.0)
        print(f"  spans from {len(processes)} process(es); "
              f"httpsim.fetch_p50_ms and _p99_ms over "
              f"{values['httpsim.fetches']} fetches")
        for name, (part, whole) in figures.ratio_bases(totals,
                                                       merged).items():
            print(f"  {name}: {part} of {whole}")
        return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro (see e2ebench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; sets how many times the "
                             "workload repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sizes = parser.add_argument_group("sizes (for shrunk smoke runs)")
    sizes.add_argument("--scale", type=float, default=None,
                       help=f"world scale (default {CAMPAIGN_SCALE} for "
                            f"campaigns, {SWEEP_SCALE} for probe-sweep)")
    sizes.add_argument("--experiments", default="",
                       help="comma-separated campaign experiments "
                            "(default: all)")
    sizes.add_argument("--rounds", type=int, default=SWEEP_ROUNDS,
                       help="measured rounds per probe-sweep process")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (PROGRAM / "__init__.py").is_file():
        print(f"run.py: no program at {PROGRAM.relative_to(ROOT)}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    bench = Bench(args)
    print(f"workload {bench.workload}: seed {bench.seed} -> campaign seed "
          f"{bench.world_seed}, sweep world {SEED_BASE} with sample seed "
          f"{bench.seed}, PYTHONHASHSEED {bench.hash_seed}; "
          + ("traced" if args.trace else f"{bench.repeats} repeat(s)"))
    try:
        bench.warm_up()
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        settle_strays(0.0)
    units = figures.PER_LAYER if args.trace else figures.END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if bench.machine:
        print(f"machine probe: {min(bench.machine) * 1000:.1f}.."
              f"{max(bench.machine) * 1000:.1f} ms over "
              f"{len(bench.machine)} samples (a fixed loop; spread = drift)")
    correct = not bench.checks.failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
