"""End-to-end acceptance: SIGKILL, recovery, SIGTERM drain, bytes.

The scenario the service exists for::

    boot → submit (two tenants) → SIGKILL mid-run
         → boot → recovery resumes → SIGTERM mid-resume (drain, rc 0)
         → boot → recovery finishes → drain
         → journals and tables byte-identical to single-shot batch runs

Every daemon generation is a real subprocess; every kill is a real
signal.  The byte comparison at the end is against plain
``repro campaign`` batch runs of the same submissions.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

ALICE = {"experiments": ["tcpip", "table3"], "seed": 7, "scale": 0.05,
         "workers": 2}
BOB = {"experiments": ["tcpip"], "seed": 9, "scale": 0.05,
       "workers": 1}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                     "..", "..", "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _boot(cwd):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--spool", "spool", "--workers", "3",
         "--tenant", "alice", "--tenant", "bob"],
        cwd=str(cwd), env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    endpoint = os.path.join(str(cwd), "spool", "service.json")
    deadline = time.time() + 30
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"serve died at boot: {proc.stdout.read()}")
        try:
            with open(endpoint, encoding="utf-8") as fh:
                advertised = json.load(fh)
            if advertised.get("pid") != proc.pid:
                raise OSError("stale endpoint file")
            port = advertised["port"]
            _request(port, "GET", "/healthz", timeout=3)
            return proc, port
        except (OSError, ValueError, KeyError):
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve did not come up")


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _journal_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def _wait(predicate, timeout, what):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def _state(cwd, tenant, run_id):
    path = os.path.join(str(cwd), "spool", tenant, run_id,
                        "status.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get("state")
    except (OSError, ValueError):
        return None


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("serve-acceptance")
    alice_journal = os.path.join(
        str(cwd), "spool", "alice", "c000001", "run", "journal.jsonl")

    # generation 1: submit both tenants, SIGKILL mid-run
    proc, port = _boot(cwd)
    status, body = _request(port, "POST",
                            "/v1/tenants/alice/campaigns", ALICE)
    assert status == 202 and body["run_id"] == "c000001"
    status, body = _request(port, "POST",
                            "/v1/tenants/bob/campaigns", BOB)
    assert status == 202 and body["run_id"] == "c000001"
    _wait(lambda: _journal_lines(alice_journal) >= 3, 120,
          "three journaled records before the kill")
    killed_at = _journal_lines(alice_journal)
    proc.kill()
    proc.wait(timeout=30)

    # generation 2: recovery resumes; SIGTERM mid-resume drains
    proc, port = _boot(cwd)
    status, body = _request(port, "GET", "/v1/status")
    assert status == 200
    _wait(lambda: _journal_lines(alice_journal) > killed_at, 120,
          "recovery to make progress past the killed run")
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    drain_rc = proc.returncode

    # generation 3: finish everything, then drain cleanly
    proc, port = _boot(cwd)
    _wait(lambda: _state(cwd, "alice", "c000001") == "complete"
          and _state(cwd, "bob", "c000001") == "complete",
          240, "both campaigns to complete after recovery")
    status, _ = _request(port, "POST", "/v1/drain")
    assert status == 202
    final_out, _ = proc.communicate(timeout=120)
    return {"cwd": cwd, "drain_rc": drain_rc,
            "drain_out": out, "final_rc": proc.returncode,
            "final_out": final_out}


class TestKillRestartDrain:
    def test_sigterm_drain_exits_zero(self, scenario):
        assert scenario["drain_rc"] == 0
        assert "drained, exiting" in scenario["drain_out"]

    def test_final_drain_exits_zero(self, scenario):
        assert scenario["final_rc"] == 0

    def test_journals_and_tables_byte_identical_to_batch(
            self, scenario, tmp_path):
        """The whole point: a campaign that survived SIGKILL, resume,
        SIGTERM drain, and a second resume produces the same bytes as
        one uninterrupted batch run."""
        cwd = scenario["cwd"]
        for tenant, sub in (("alice", ALICE), ("bob", BOB)):
            ref = tmp_path / f"ref-{tenant}"
            batch = subprocess.run(
                [sys.executable, "-m", "repro", "campaign",
                 *sub["experiments"], "--seed", str(sub["seed"]),
                 "--scale", str(sub["scale"]),
                 "--run-dir", str(ref)],
                env=_env(), capture_output=True, text=True)
            assert batch.returncode == 0, batch.stderr
            run = os.path.join(str(cwd), "spool", tenant, "c000001",
                               "run")
            for name in ("journal.jsonl", "tables.txt"):
                assert _read(os.path.join(run, name)) == \
                    _read(str(ref / name)), f"{tenant} {name}"

    def test_over_quota_rejection_survives_restart(self, scenario,
                                                   tmp_path_factory):
        """Quota rejections are deterministic across daemon
        generations: same request, same bytes, no spool residue."""
        cwd = tmp_path_factory.mktemp("serve-quota")
        proc, port = _boot(cwd)
        try:
            bodies = set()
            for _ in range(2):
                status, body = _request(
                    port, "POST", "/v1/tenants/bob/campaigns",
                    dict(BOB, workers=64))
                assert status == 429
                bodies.add(json.dumps(body, sort_keys=True))
            assert len(bodies) == 1
            assert os.listdir(os.path.join(str(cwd), "spool",
                                           "bob")) == []
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
