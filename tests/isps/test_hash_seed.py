"""Same seed, same bytes, whatever the interpreter's ``str`` hash salt:
Table 1's ``mtnl`` unit crosses the peering boxes the builder seeds."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

ONE_UNIT = """
import json
from repro.experiments import table1_ooni
from repro.runner.parallel import UnitSettings, execute_unit

unit = next(u for u in table1_ooni.units() if u.name == "mtnl")
record = execute_unit(UnitSettings(seed=1808, scale=0.25), "table1", unit)[0]
print(json.dumps(record, sort_keys=True))
"""


def test_table1_mtnl_unit_ignores_the_hash_seed():
    records = []
    for hash_seed in ("0", "1"):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", ONE_UNIT], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        records.append(json.loads(done.stdout))
    assert records[0] == records[1]
