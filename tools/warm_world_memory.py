"""What a warm world holds, structure by structure, by ``tracemalloc``.

Builds the seed-1808 world at scale 1.0 under ``tracemalloc``, runs the
warm-up round of ``e2ebench/sweep.py`` (sample seed 0) on it, then
drops one structure at a time and counts the bytes each drop frees:
what that structure alone keeps alive.  Strings it shares with the
rest of the world (domain names, addresses) stay, so they count for
none of them.  Prints a Markdown table::

    PYTHONHASHSEED=0 python3 tools/warm_world_memory.py [--against DIR]

Each checkout is measured in a process of its own, on its own
``src``.  ``--against DIR`` measures the checkout at *DIR* too and
prints it as the first column.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

SEED = 1808
SCALE = 1.0
SAMPLE_SEED = 0

#: What a dropped sample is replaced with: made before tracing starts
#: (``frozenset()`` makes a new object on every call).
_EMPTY = frozenset()


def _memo(network, name: str) -> Dict:
    entry = network.express_memos.get(name)
    return entry[1] if entry is not None else {}


def _clear_fib_rows(network) -> int:
    rows = [table[1] for table in _sweeps(network).values()]
    count = sum(len(row) for row in rows)
    for row in rows:
        row.clear()
    return count


def _clear(mapping: Dict) -> int:
    count = len(mapping)
    mapping.clear()
    return count


def _sweeps(network) -> Dict:
    """The FIB's sweeps: ``Network._sweeps``, or ``Network._fib`` in a
    checkout that sweeps once per destination and has no ``_sweeps``."""
    return getattr(network, "_sweeps", network._fib)


def _clear_fib_distances(network) -> int:
    count = _clear(_sweeps(network))
    network._fib.clear()
    return count


def _clear_content_memo() -> int:
    from repro.websites import content

    return _clear(content._body_cache) + _clear(content._parked_cache)


def _clear_resolver_samples(world) -> int:
    count = 0
    for deployment in world.isps.values():
        for _ip, service in deployment.resolvers:
            if service.config.blocklist:
                service.config.blocklist = _EMPTY
                count += 1
    return count


def _clear_box_samples(world) -> int:
    count = 0
    for box in world.all_middleboxes():
        spec = getattr(box, "spec", None)
        if spec is not None:
            # A frozen dataclass; the world is discarded afterwards.
            object.__setattr__(spec, "blocklist", _EMPTY)
            count += 1
    return count


def measure(root: Path) -> List[Tuple[str, int, int]]:
    """``(structure, entries, bytes freed)`` in drop order, then the
    world's whole traced heap as ``total``, for the ``repro`` on
    ``sys.path`` and the sweep of checkout *root*."""
    sys.path.insert(0, str(root / "e2ebench"))
    import sweep
    from repro.isps import build_world

    gc.collect()
    tracemalloc.start()
    world = build_world(seed=SEED, scale=SCALE)
    plan = sweep.build_plan(world, SAMPLE_SEED)
    sweep.run_round(world, plan)
    del plan
    network = world.network
    # Dependents first: a compiled plan refers to its boxes' samples.
    drops: List[Tuple[str, Callable[[], int]]] = [
        ("HTTP plans", lambda: _clear(_memo(network, "plans"))),
        ("box memo", lambda: _clear(_memo(network, "boxes"))),
        ("delivery plans", lambda: _clear(network._fwd_plans)),
        ("FIB rows", lambda: _clear_fib_rows(network)),
        ("FIB distances", lambda: _clear_fib_distances(network)),
        ("content memo", _clear_content_memo),
        ("resolver samples", lambda: _clear_resolver_samples(world)),
        ("box samples", lambda: _clear_box_samples(world)),
    ]
    gc.collect()
    total = before = tracemalloc.get_traced_memory()[0]
    found = []
    for name, drop in drops:
        entries = drop()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        found.append((name, entries, before - after))
        before = after
    tracemalloc.stop()
    found.append(("total", 0, total))
    return found


def _measure_in_process(checkout: Path) -> List[Tuple[str, int, int]]:
    """:func:`measure` of *checkout*, in a fresh process on its source."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, __file__, "--json", "--root", str(checkout)],
        env=env, check=True, capture_output=True, text=True).stdout
    return [tuple(row) for row in json.loads(out)]


def _kib(size: int) -> str:
    return f"{size / 1024:,.0f}"


def render(columns: List[Tuple[str, List[Tuple[str, int, int]]]]) -> str:
    """A Markdown table: per structure, entries and KiB per column, and
    the last column's change against the first."""
    header = ["structure"]
    for label, _rows in columns:
        header += [f"{label}: entries", f"{label}: KiB"]
    if len(columns) > 1:
        header.append("difference")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for index, (name, _entries, _size) in enumerate(columns[0][1]):
        cells = [name]
        for _label, rows in columns:
            entries, size = rows[index][1], rows[index][2]
            cells += ["" if name == "total" else f"{entries:,}", _kib(size)]
        if len(columns) > 1:
            first, last = columns[0][1][index][2], columns[-1][1][index][2]
            cells.append(f"{(last - first) / first:+.0%}" if first else "")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to measure first")
    parser.add_argument("--json", action="store_true",
                        help="measure in this process; print JSON")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(measure(args.root)))
        return 0
    checkouts = [ROOT]
    if args.against is not None:
        checkouts.insert(0, args.against.resolve())
    print(render([(checkout.name, _measure_in_process(checkout))
                  for checkout in checkouts]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
