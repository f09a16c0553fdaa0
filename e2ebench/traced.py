"""Run a ``repro`` command, or the probe sweep, with layer spans on.

::

    PYTHONPATH=src python3 e2ebench/traced.py SPANS_DIR repro campaign ...
    PYTHONPATH=src python3 e2ebench/traced.py SPANS_DIR sweep --scale 1.0

Wraps each layer's public functions (see :mod:`spans`), runs the
target, and writes this process's spans to ``SPANS_DIR``.  Campaign
workers forked by the supervisor inherit the wrappers and write their
own span files there when they exit.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv) -> int:
    spans_dir, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if target == "repro":
        tracer.install(units=True)
        tracer.follow_forks(spans_dir)
        from repro.cli import main as repro_main

        code = repro_main(rest)
    elif target == "sweep":
        tracer.install(units=False)
        import sweep

        code = sweep.main(rest, tracer)
    else:
        raise SystemExit(f"traced.py: unknown target {target!r}")
    tracer.dump(spans_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
