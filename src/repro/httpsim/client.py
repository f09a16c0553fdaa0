"""A browser-like HTTP client over the simulated TCP stack.

The client records what the paper's clients record: every response
unit, the raw byte stream, and whether the stream ended in FIN, RST or
timeout.  Injected packets, forged resets and sequence anomalies show
in the client host's packet capture, armed by the reader that wants
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netsim.devices import Host
from ..netsim.engine import Network
from ..netsim.faults import backoff
from ..netsim.tcp import TCPApp, TCPConnection
from .message import GetRequestSpec, HTTPResponse, parse_responses

#: Virtual-time budget for one fetch before the client gives up.
DEFAULT_FETCH_TIMEOUT = 8.0


@dataclass
class FetchResult:
    """Everything observed during one HTTP fetch."""

    dst_ip: str
    request: bytes
    connected: bool = False
    raw_stream: bytes = b""
    responses: List[HTTPResponse] = field(default_factory=list)
    got_fin: bool = False
    got_rst: bool = False
    timed_out: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Total connection attempts, including the first (1 == no retries).
    attempts: int = 1

    @property
    def first_response(self) -> Optional[HTTPResponse]:
        return self.responses[0] if self.responses else None

    @property
    def ok(self) -> bool:
        """True when a complete response was received."""
        return bool(self.responses)

    @property
    def reset_without_data(self) -> bool:
        """A RST arrived before any payload — the covert-IM signature."""
        return self.got_rst and not self.raw_stream

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def outcome(self) -> str:
        """Coarse classification: ok / reset / timeout / empty."""
        if self.ok:
            return "ok"
        if self.got_rst:
            return "reset"
        if self.timed_out:
            return "timeout"
        return "empty"


class _FetchApp(TCPApp):
    """Drives one request/response exchange and flags completion."""

    def __init__(self, result: FetchResult, request: bytes,
                 segment_size: Optional[int]) -> None:
        self.result = result
        self.request = request
        self.segment_size = segment_size
        self.done = False

    def on_connected(self, conn: TCPConnection) -> None:
        self.result.connected = True
        conn.send(self.request, segment_size=self.segment_size)

    def on_data(self, conn: TCPConnection, data: bytes) -> None:
        self.result.raw_stream += data
        # Browsers complete on Content-Length, not only on FIN — vital
        # when a client firewall is eating FIN/RST packets (the
        # section 5 anti-censorship rules).
        if parse_responses(self.result.raw_stream):
            self.done = True

    def on_fin(self, conn: TCPConnection) -> None:
        self.result.got_fin = True
        self.done = True
        # Browser behaviour: the peer ended its stream; finish the close.
        if conn.state == "CLOSE_WAIT":
            conn.close()

    def on_rst(self, conn: TCPConnection) -> None:
        self.result.got_rst = True
        self.done = True

    def on_closed(self, conn: TCPConnection, reason: str) -> None:
        if reason in ("timeout", "teardown-timeout"):
            self.done = True


def _silent_failure(result: FetchResult) -> bool:
    """Did the fetch fail without *any* signal from the far side?

    Only this is retryable.  A RST is a censorship signature (covert
    IM, wiretap reset) and partial data means the server was reached —
    retrying either would overwrite evidence with a second experiment.
    """
    if result.got_rst or result.raw_stream:
        return False
    return not result.connected or result.timed_out


def http_fetch(
    network: Network,
    client: Host,
    dst_ip: str,
    request: bytes,
    *,
    dst_port: int = 80,
    ttl: int = 64,
    timeout: float = DEFAULT_FETCH_TIMEOUT,
    segment_size: Optional[int] = None,
    settle: float = 0.1,
    attempts: Optional[int] = None,
) -> FetchResult:
    """Fetch *request* from *dst_ip*, retrying silent failures.

    Each attempt is a fresh TCP connection; exponential backoff between
    attempts.  ``attempts=None`` defers to the network's
    :class:`~repro.netsim.faults.HardeningPolicy` (single attempt on a
    fault-free network, preserving seed behaviour).  See
    :func:`_silent_failure` for what is — and deliberately is not —
    retried.
    """
    total = (network.hardening.fetch_attempts if attempts is None
             else max(1, attempts))
    result: FetchResult
    for attempt in range(1, total + 1):
        result = _fetch_once(network, client, dst_ip, request,
                             dst_port=dst_port, ttl=ttl, timeout=timeout,
                             segment_size=segment_size, settle=settle)
        result.attempts = attempt
        if not _silent_failure(result):
            break
        if attempt < total:
            network.client_retries["http"] += 1
            trace = network.trace
            if trace is not None and trace.active:
                trace.emit("retry", network.now, layer="http",
                           dst=dst_ip, attempt=attempt)
            network.run(until=network.now + backoff(attempt))
    return result


def _fetch_once(
    network: Network,
    client: Host,
    dst_ip: str,
    request: bytes,
    *,
    dst_port: int = 80,
    ttl: int = 64,
    timeout: float = DEFAULT_FETCH_TIMEOUT,
    segment_size: Optional[int] = None,
    settle: float = 0.1,
) -> FetchResult:
    """Fetch over a fresh TCP connection; run the network until done.

    Args:
        segment_size: when set, the request is split into segments of at
            most this many bytes (fragmented-GET evasion).
        settle: extra virtual time after completion so trailing packets
            (late injections, pipelined second responses) are captured.
    """
    result = FetchResult(dst_ip=dst_ip, request=request,
                         started_at=network.now)
    app = _FetchApp(result, request, segment_size)
    conn = client.stack.connect(dst_ip, dst_port, app, ttl=ttl)

    deadline = network.now + timeout
    while not app.done and network.now < deadline:
        if network.pending_events == 0:
            break
        network.run(until=min(deadline, network.now + 0.25))
    if not app.done:
        result.timed_out = True
        if conn.state != "CLOSED":
            conn.abort()
    # Drain trailing traffic (late server responses, teardown, pipelined
    # second responses such as the covert-evasion 400).
    network.run(until=network.now + settle)

    result.finished_at = network.now
    result.responses = parse_responses(result.raw_stream)
    return result


def fetch_url(
    network: Network,
    client: Host,
    dst_ip: str,
    domain: str,
    path: str = "/",
    **kwargs,
) -> FetchResult:
    """Fetch ``http://domain/path`` from *dst_ip* with a stock request."""
    spec = GetRequestSpec(domain=domain, path=path)
    return http_fetch(network, client, dst_ip, spec.to_bytes(), **kwargs)
