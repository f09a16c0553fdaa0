"""The benchmark pins PYTHONHASHSEED; this keeps the defect it hides visible.

``src/repro/isps/builder.py:388`` seeds each peering middlebox from the
salted ``hash(stub_name)``, so Table 1's MTNL row depends on the
interpreter's hash seed.  Once that line uses a stable hash, this test
passes without being edited.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

#: Runs only the ``mtnl`` unit of the ``table1`` campaign and prints its
#: journaled payload.
ONE_UNIT = """
import json, sys, types
from repro.experiments import table1_ooni
from repro.runner.campaign import Campaign

spec = types.SimpleNamespace(
    CAMPAIGN=table1_ooni.CAMPAIGN,
    units=lambda: [u for u in table1_ooni.units() if u.name == "mtnl"])
Campaign(specs={"table1": spec}, seed=1808, scale=0.25,
         run_dir=sys.argv[1]).run()
for line in open(sys.argv[1] + "/journal.jsonl"):
    record = json.loads(line)
    if record.get("unit") == "mtnl":
        print(json.dumps(record["payload"], sort_keys=True))
"""


def mtnl_payload(hash_seed: int, run_dir: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run([sys.executable, "-c", ONE_UNIT, str(run_dir)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(done.stdout)


@pytest.mark.xfail(strict=False, raises=AssertionError, reason=(
    "src/repro/isps/builder.py:388 seeds peering middleboxes from the "
    "salted hash(stub_name), so the MTNL row changes with PYTHONHASHSEED"))
def test_table1_mtnl_payload_does_not_depend_on_the_hash_seed(tmp_path):
    first = mtnl_payload(0, tmp_path / "seed0")
    second = mtnl_payload(1, tmp_path / "seed1")
    assert first == second
