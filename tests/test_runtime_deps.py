"""The runtime imports nothing outside the standard library.

networkx and the pytest stack belong to the ``test`` extra.  A fresh
interpreter that cannot import networkx must still run a campaign and
``repro info``, and must not import any other third-party package on
the way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys
sys.modules["networkx"] = None  # any import of it now fails
before = set(sys.modules)
from repro.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
added = {name.split(".")[0] for name in set(sys.modules) - before}
print("third-party:", sorted(
    name for name in added if name != "repro"
    and not name.startswith("__")  # aliases such as __mp_main__
    and name not in sys.stdlib_module_names))
sys.exit(max(codes))
"""


def test_campaign_and_info_run_without_third_party_packages(tmp_path):
    commands = [
        ["campaign", "table1", "--scale", "0.05",
         "--run-dir", str(tmp_path / "run")],
        ["info", "--scale", "0.25"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "run" / "tables.txt").exists()
    assert "nodes: 452, links: 712" in done.stdout
    assert "third-party: []" in done.stdout
