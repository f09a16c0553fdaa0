"""In-process service integration: HTTP API, quotas, SSE, drain.

The daemon runs on a background thread with a real asyncio loop and a
real port (``port=0``); tests speak plain ``http.client``.  Campaigns
here are tiny (tcpip at scale 0.05) but real — including the
supervised worker pool — so the byte-identity assertion at the end is
the genuine article.
"""

import asyncio
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.serve.app import Service, ServiceConfig
from repro.serve.tenants import parse_tenants

SUBMISSION = {"experiments": ["tcpip"], "scale": 0.05,
              "seed": 11, "workers": 2}


class Harness:
    def __init__(self, tmp, tenants, slots=2):
        self.service = Service(ServiceConfig(
            tenants=parse_tenants(tenants), host="127.0.0.1", port=0,
            spool=os.path.join(str(tmp), "spool"), slots=slots))
        self.result = {}
        self.thread = threading.Thread(
            target=lambda: self.result.update(
                rc=asyncio.run(self.service.run())),
            daemon=True)

    def start(self):
        self.thread.start()
        deadline = time.time() + 20
        while time.time() < deadline:
            if self.service.bound_port is not None:
                try:
                    self.request("GET", "/healthz")
                    return self
                except OSError:
                    pass
            time.sleep(0.05)
        raise RuntimeError("service did not come up")

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.bound_port, timeout=30)
        try:
            conn.request(method, path,
                         json.dumps(body) if body is not None else None)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def wait_state(self, tenant, run_id, states, timeout=120):
        deadline = time.time() + timeout
        while time.time() < deadline:
            _, body = self.request(
                "GET", f"/v1/tenants/{tenant}/campaigns/{run_id}")
            state = body.get("status", {}).get("state")
            if state in states:
                return body
            time.sleep(0.2)
        raise AssertionError(f"{tenant}/{run_id} never reached {states}")

    def stop(self):
        if self.thread.is_alive():
            self.request("POST", "/v1/drain")
            self.thread.join(timeout=60)
        assert not self.thread.is_alive()
        return self.result.get("rc")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    harness = Harness(tmp_path_factory.mktemp("serve"),
                      ["alice:2:2:2", "bob:1:1:1"]).start()
    yield harness
    harness.stop()


class TestEndpoints:
    def test_healthz(self, service):
        assert service.request("GET", "/healthz") == \
            (200, {"status": "ok"})

    def test_readyz_components(self, service):
        status, body = service.request("GET", "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["components"] == {"accepting": True, "queue": True,
                                      "spool": True, "workers": True}

    def test_unknown_route_404(self, service):
        status, body = service.request("GET", "/nope")
        assert status == 404 and body["error"] == "not-found"

    def test_unknown_tenant_404_deterministic(self, service):
        first = service.request("POST", "/v1/tenants/zed/campaigns", {})
        second = service.request("POST", "/v1/tenants/zed/campaigns", {})
        assert first == second == (404, {
            "error": "unknown-tenant",
            "detail": "tenant 'zed' is not configured on this service",
            "tenant": "zed"})

    def test_unknown_submission_field_400(self, service):
        status, body = service.request(
            "POST", "/v1/tenants/alice/campaigns",
            {"bogus": 1, "also_bogus": 2})
        assert status == 400
        assert body["detail"] == \
            "unknown submission field(s): also_bogus, bogus"

    def test_unknown_experiment_400(self, service):
        status, body = service.request(
            "POST", "/v1/tenants/alice/campaigns",
            {"experiments": ["nope"]})
        assert status == 400
        assert body["detail"].startswith(
            "unknown experiment 'nope' (choose from ")

    def test_bad_loss_400(self, service):
        """A setting the campaign would refuse is refused at admission,
        before the spool holds anything of it."""
        spool = os.path.join(service.service.config.spool, "alice")
        before = sorted(os.listdir(spool))
        for submission, detail in (
                ({"loss": 1.5}, "loss must be a probability, got 1.5"),
                ({"scale": "x"}, "scale must be a number, got 'x'"),
                ({"max_worker_crashes": 0},
                 "max_worker_crashes must be >= 1, got 0"),
                ({"unit_steps": "x"},
                 "unit_steps must be an integer, got 'x'"),
                ({"unit_wall": -1}, "unit_wall must be > 0, got -1"),
                ({"unit_wall": 0}, "unit_wall must be > 0, got 0")):
            status, body = service.request(
                "POST", "/v1/tenants/alice/campaigns", submission)
            assert (status, body["detail"]) == (400, detail), submission
        assert sorted(os.listdir(spool)) == before

    def test_bad_crash_after_env_400(self, service, monkeypatch):
        """The campaign reads its crash hook from the environment at
        admission; a value that is not a count refuses the submission,
        as the CLI does, instead of answering 500."""
        from repro.runner.campaign import CRASH_AFTER_ENV

        spool = os.path.join(service.service.config.spool, "alice")
        before = sorted(os.listdir(spool))
        monkeypatch.setenv(CRASH_AFTER_ENV, "x")
        status, body = service.request(
            "POST", "/v1/tenants/alice/campaigns", SUBMISSION)
        assert (status, body["detail"]) == (
            400, f"{CRASH_AFTER_ENV} must be an integer, got 'x'")
        assert sorted(os.listdir(spool)) == before

    def test_over_quota_slots_429(self, service):
        status, body = service.request(
            "POST", "/v1/tenants/bob/campaigns", {"workers": 2})
        assert status == 429
        assert body == {
            "error": "over-quota",
            "detail": "tenant 'bob' may use at most 1 worker slot(s); "
                      "requested 2",
            "tenant": "bob", "limit": 1, "requested": 2}

    def test_status_endpoint(self, service):
        status, body = service.request("GET", "/v1/status")
        assert status == 200
        assert body["draining"] is False
        assert set(body["scheduler"]["tenants"]) == {"alice", "bob"}


class TestCampaignLifecycle:
    def test_submit_run_complete_byte_identical(self, service,
                                                tmp_path):
        status, body = service.request(
            "POST", "/v1/tenants/alice/campaigns", SUBMISSION)
        assert status == 202
        run_id = body["run_id"]
        assert body["location"] == \
            f"/v1/tenants/alice/campaigns/{run_id}"
        detail = service.wait_state("alice", run_id,
                                    ("complete", "failed"))
        assert detail["status"]["state"] == "complete"
        assert detail["journal"] and detail["tables"]

        # the service ran it from a campaign thread; a plain
        # Campaign must produce the same bytes
        from repro.runner.campaign import Campaign

        reference = tmp_path / "ref"
        report = Campaign(experiments=SUBMISSION["experiments"],
                          seed=SUBMISSION["seed"],
                          scale=SUBMISSION["scale"],
                          run_dir=str(reference)).run()
        assert report.complete
        run_dir = os.path.join(service.service.spool.root, "alice",
                               run_id, "run")
        for name in ("journal.jsonl", "tables.txt"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                produced = fh.read()
            with open(reference / name, "rb") as fh:
                assert produced == fh.read(), name

    def test_campaign_listing(self, service):
        status, body = service.request(
            "GET", "/v1/tenants/alice/campaigns")
        assert status == 200
        states = {c["run_id"]: c["state"] for c in body["campaigns"]}
        assert states.get("c000001") == "complete"

    def test_sse_replays_lifecycle_events(self, service):
        """A late subscriber still sees the run's recent events via
        the replay ring, as SSE frames."""
        sock = socket.create_connection(
            ("127.0.0.1", service.service.bound_port), timeout=10)
        try:
            sock.sendall(b"GET /v1/events HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            sock.settimeout(10)
            buf = b""
            deadline = time.time() + 10
            while (b"event: campaign-end" not in buf
                   and time.time() < deadline):
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
        finally:
            sock.close()
        text = buf.decode("utf-8", "replace")
        assert "text/event-stream" in text
        assert "event: unit-committed" in text
        assert "event: campaign-end" in text
        data_lines = [line for line in text.splitlines()
                      if line.startswith("data: ")]
        events = [json.loads(line[len("data: "):])
                  for line in data_lines]
        assert any(e.get("kind") == "unit-committed"
                   and e.get("tenant") == "alice" for e in events)

    def test_health_counters_track_commits(self, service):
        _, body = service.request("GET", "/v1/status")
        assert body["counters"]["units_committed"] >= 5
        assert body["counters"]["worker_crashes"] == 0


class TestDrain:
    def test_drain_with_inflight_work(self, tmp_path_factory):
        """While a campaign is running, drain must flip /readyz to
        503, reject new submissions deterministically, finish the
        in-flight units, mark still-queued work interrupted, and exit
        with status 0."""
        harness = Harness(tmp_path_factory.mktemp("serve-drain"),
                          ["solo:1:2:4"], slots=2).start()
        long_sub = dict(SUBMISSION,
                        experiments=["tcpip", "table3"])
        _, first = harness.request(
            "POST", "/v1/tenants/solo/campaigns", long_sub)
        _, queued = harness.request(
            "POST", "/v1/tenants/solo/campaigns", long_sub)
        harness.wait_state("solo", first["run_id"], ("running",))

        status, _ = harness.request("POST", "/v1/drain")
        assert status == 202
        status, body = harness.request("GET", "/readyz")
        assert status == 503
        assert body["components"]["accepting"] is False

        status, body = harness.request(
            "POST", "/v1/tenants/solo/campaigns", {})
        assert status == 503
        assert body == {
            "error": "draining",
            "detail": "service is draining — not accepting new "
                      "campaigns",
            "tenant": "solo"}

        harness.thread.join(timeout=120)
        assert not harness.thread.is_alive()
        assert harness.result["rc"] == 0

        spool_root = harness.service.spool.root
        for run_id, expected in ((first["run_id"],
                                  ("interrupted", "complete")),
                                 (queued["run_id"],
                                  ("interrupted",))):
            path = os.path.join(spool_root, "solo", run_id,
                                "status.json")
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh)["state"] in expected, run_id

    def test_submission_rejected_while_draining_no_residue(
            self, tmp_path):
        from repro.serve.scheduler import AdmissionError

        service = Service(ServiceConfig(
            tenants=parse_tenants(["solo"]),
            spool=str(tmp_path / "spool")))
        service.spool.ensure(["solo"])
        service._draining = True
        with pytest.raises(AdmissionError) as exc:
            service.submit("solo", {})
        assert exc.value.status == 503
        assert exc.value.code == "draining"
        assert os.listdir(os.path.join(service.spool.root,
                                       "solo")) == []
