"""The scripts in ``examples/`` run and print what they promise.

``quickstart.py`` and ``middlebox_anatomy.py`` print packets read from
host captures, which record only while a reader holds them open.  A
script that forgot to arm its capture would print an empty wire view
and still exit 0, so the checks below look for the packet lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Text a script must print, beyond exiting 0.
EXPECTED = {
    "quickstart.py": ["airtel-client <-"],
    "middlebox_anatomy.py": ["<- the HTTP GET", "CENSORSHIP NOTIFICATION"],
}


def test_expected_scripts_exist():
    assert set(EXPECTED) <= {script.name for script in EXAMPLES}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    for text in EXPECTED.get(script.name, ()):
        assert text in done.stdout, text
