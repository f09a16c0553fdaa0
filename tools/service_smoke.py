"""Service smoke exercise (run by the CI service-smoke job).

A shell-level pass over the `repro serve` crash-safety contract,
using only real subprocesses and real signals:

1. boot the daemon, submit campaigns for two tenants;
2. SIGTERM it mid-run — it must drain (finish journaling the units in
   flight, mark queued work interrupted) and exit 0;
3. boot it again — recovery must resume from the spool and finish
   both campaigns;
4. byte-compare each campaign's ``journal.jsonl`` and ``tables.txt``
   against a plain ``repro campaign`` batch run of the same
   submission — the daemon runs under ``PYTHONHASHSEED=1`` and the
   batch references under ``0``, so the comparison also shows that
   neither the service nor the hash seed changes a byte;
5. submit one over-quota campaign — the 429 must be deterministic
   (identical bytes across requests) and leave no spool residue.

Usage::

    python tools/service_smoke.py [workdir]

Exits 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALICE = {"experiments": ["tcpip", "table3"], "seed": 7, "scale": 0.05,
         "workers": 2}
BOB = {"experiments": ["tcpip"], "seed": 9, "scale": 0.05,
       "workers": 1}


#: Hash seeds of the daemon and of its batch references.
SERVE_HASH_SEED = "1"
BATCH_HASH_SEED = "0"


def _env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def fail(message):
    print(f"service-smoke: FAIL: {message}")
    sys.exit(1)


def boot(workdir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--spool", "spool", "--workers", "3",
         "--tenant", "alice", "--tenant", "bob"],
        cwd=workdir, env=_env(SERVE_HASH_SEED), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    endpoint = os.path.join(workdir, "spool", "service.json")
    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            fail(f"serve died at boot:\n{proc.stdout.read()}")
        try:
            with open(endpoint, encoding="utf-8") as fh:
                advertised = json.load(fh)
            if advertised.get("pid") != proc.pid:
                raise OSError("stale endpoint file")
            port = advertised["port"]
            request(port, "GET", "/healthz", timeout=3)
            return proc, port
        except (OSError, ValueError, KeyError):
            time.sleep(0.05)
    proc.kill()
    fail("serve did not come up within 60s")


def request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def journal_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def wait(predicate, timeout, what):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    fail(f"timed out waiting for {what}")


def state(workdir, tenant, run_id):
    path = os.path.join(workdir, "spool", tenant, run_id,
                        "status.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get("state")
    except (OSError, ValueError):
        return None


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def main():
    workdir = (sys.argv[1] if len(sys.argv) > 1
               else tempfile.mkdtemp(prefix="service-smoke-"))
    os.makedirs(workdir, exist_ok=True)
    alice_journal = os.path.join(workdir, "spool", "alice", "c000001",
                                 "run", "journal.jsonl")

    print("service-smoke: generation 1 — boot, submit, SIGTERM mid-run")
    proc, port = boot(workdir)
    for tenant, submission in (("alice", ALICE), ("bob", BOB)):
        status, body = request(
            port, "POST", f"/v1/tenants/{tenant}/campaigns", submission)
        if status != 202 or body.get("run_id") != "c000001":
            fail(f"submit {tenant}: expected 202/c000001, "
                 f"got {status}/{body}")
    wait(lambda: journal_lines(alice_journal) >= 3, 120,
         "three journaled units before the SIGTERM")
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        fail(f"drain exit code {proc.returncode}:\n{out}")
    if "drained, exiting" not in out:
        fail(f"drain output missing marker:\n{out}")
    print("service-smoke: drained with exit 0")

    print("service-smoke: generation 2 — recovery finishes both")
    proc, port = boot(workdir)
    wait(lambda: state(workdir, "alice", "c000001") == "complete"
         and state(workdir, "bob", "c000001") == "complete",
         240, "recovery to complete both campaigns")

    print("service-smoke: over-quota rejection determinism")
    bodies = set()
    for _ in range(2):
        status, body = request(port, "POST",
                               "/v1/tenants/bob/campaigns",
                               dict(BOB, workers=64))
        if status != 429:
            fail(f"over-quota: expected 429, got {status}/{body}")
        bodies.add(json.dumps(body, sort_keys=True))
    if len(bodies) != 1:
        fail(f"over-quota rejections differ: {bodies}")
    residue = sorted(os.listdir(os.path.join(workdir, "spool", "bob")))
    if residue != ["c000001"]:
        fail(f"rejected submission left spool residue: {residue}")

    status, _ = request(port, "POST", "/v1/drain")
    if status != 202:
        fail(f"final drain: expected 202, got {status}")
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        fail(f"final drain exit code {proc.returncode}:\n{out}")

    print("service-smoke: byte-compare against batch references")
    for tenant, submission in (("alice", ALICE), ("bob", BOB)):
        ref = os.path.join(workdir, f"ref-{tenant}")
        batch = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             *submission["experiments"],
             "--seed", str(submission["seed"]),
             "--scale", str(submission["scale"]),
             "--run-dir", ref],
            env=_env(BATCH_HASH_SEED), capture_output=True, text=True)
        if batch.returncode != 0:
            fail(f"batch reference for {tenant}: {batch.stderr}")
        run = os.path.join(workdir, "spool", tenant, "c000001", "run")
        for name in ("journal.jsonl", "tables.txt"):
            if read(os.path.join(run, name)) != \
                    read(os.path.join(ref, name)):
                fail(f"{tenant} {name} differs from batch reference")
        print(f"service-smoke: {tenant} journal and tables "
              f"byte-identical to batch (hash seeds {SERVE_HASH_SEED} "
              f"and {BATCH_HASH_SEED})")

    print("service-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
