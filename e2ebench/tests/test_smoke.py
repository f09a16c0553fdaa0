"""Shrunk runs of every workload through ``run.py``'s own size flags.

They run in a copy of the checkout, so the records a run keeps under
``e2ebench/.state`` start empty and the repository's own stay untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import figures

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

#: Small enough for seconds per run, still touching every layer.
SHRUNK = {
    "campaign-serial": ["--scale", "0.1", "--rounds", "1", "--experiments",
                        "table1,dns-mechanism,population-scale"],
    "campaign-workers": ["--scale", "0.1", "--rounds", "1", "--experiments",
                         "table1,dns-mechanism,population-scale"],
    "probe-sweep": ["--scale", "0.1", "--rounds", "1"],
}


IGNORED = shutil.ignore_patterns(".runs", ".state", "__pycache__",
                                 "*.pyc")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "e2ebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def copy_checkout(into: Path, with_program: bool = True) -> Path:
    into.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(BENCH, into / "e2ebench", ignore=IGNORED)
    if with_program:
        shutil.copytree(ROOT / "src", into / "src", ignore=IGNORED)
    return into


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_shrunk_run_prints_every_metric_and_passes_its_check(
        checkout, workload, trace):
    done = run_bench(checkout, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     *SHRUNK[workload])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = figures.PER_LAYER if trace else figures.END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} = " in done.stdout and done.stdout.count(unit)
    assert "PYTHONHASHSEED 3" in done.stdout
    if workload != "probe-sweep":
        assert "digest journal=" in done.stdout
    elif not trace:
        for rate in ("express_probes_per_s", "web_tests_per_s",
                     "traces_per_s"):
            assert f"{rate} = " in done.stdout


def test_a_changed_program_is_checked_against_earlier_records(tmp_path):
    checkout = copy_checkout(tmp_path)
    args = ["--workload", "probe-sweep", "--seed", "5", "--seconds", "1",
            "--trace", "0", *SHRUNK["probe-sweep"]]
    assert run_bench(checkout, *args).returncode == 0
    records = list((checkout / "e2ebench" / ".state").glob("sweep-*.json"))
    assert len(records) == 1
    # The program's source changes, and the record says it used to
    # compute something else: the next run must compare and fail.
    with open(checkout / "src" / "repro" / "__init__.py", "a") as fh:
        fh.write("\n# changed\n")
    records[0].write_text(json.dumps([[{"express": {}}, 0]]))
    done = run_bench(checkout, *args)
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "differs from an earlier run with the same inputs" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    done = run_bench(tmp_path, "--workload", "campaign-serial", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
