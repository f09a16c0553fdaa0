"""Benchmark fixtures: the full-size world and result recording.

Every benchmark regenerates one of the paper's tables or figures at
full corpus size (override with ``REPRO_BENCH_FRACTION=0.2`` for quick
looks), records the rendered table under ``benchmarks/out/``, prints it
(visible with ``pytest -s``), and asserts the paper's qualitative
shape.
"""

import pathlib

import pytest

from repro.experiments.common import domain_sample
from repro.isps import build_world

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def world():
    return build_world(seed=1808, scale=1.0)


@pytest.fixture(scope="session")
def domains(world):
    return domain_sample(world)


@pytest.fixture(scope="session")
def record_output():
    OUT_DIR.mkdir(exist_ok=True)

    def record(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)

    return record


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
