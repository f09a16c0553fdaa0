"""HTTPS serving and fetching over the TLS model.

An :class:`HTTPSOriginServer` answers ClientHellos on port 443 with a
ServerHello and a sealed page for the SNI-named domain; ``https_fetch``
drives the exchange client-side.  Middleboxes never interfere: their
trigger specs inspect TCP port 80 only, and sealed records carry no
matchable Host bytes anyway — so HTTPS reachability in this world
depends solely on resolving the right address, exactly the paper's
finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..netsim.devices import Host
from ..netsim.engine import Network
from ..netsim.errors import ConnectionError_
from ..netsim.faults import backoff
from ..netsim.tcp import TCPApp, TCPConnection
from .message import HTTPResponse
from .tls import (
    HTTPS_PORT,
    client_hello_bytes,
    parse_client_hello,
    seal,
    server_hello_bytes,
    split_records,
    unseal,
)

#: Renders the page for a domain (SNI) and requesting address.
HTTPSHandler = Callable[[str, str], Optional[HTTPResponse]]


class HTTPSOriginServer:
    """SNI-based virtual hosting on port 443."""

    def __init__(self, name: str = "https-origin") -> None:
        self.name = name
        self.domains: Dict[str, HTTPSHandler] = {}

    def add_domain(self, domain: str, handler: HTTPSHandler) -> None:
        self.domains[domain] = handler

    def install(self, host: Host, port: int = HTTPS_PORT) -> None:
        host.stack.listen(port, lambda: _HTTPSServerApp(self))

    def respond(self, sni: str, client_ip: str) -> HTTPSResponsePlan:
        handler = self.domains.get(sni)
        if handler is None and sni.startswith("www."):
            handler = self.domains.get(sni[4:])
        if handler is None:
            return HTTPSResponsePlan(accepted=False)
        response = handler(sni, client_ip)
        if response is None:
            return HTTPSResponsePlan(accepted=False)
        return HTTPSResponsePlan(accepted=True, response=response)


@dataclass
class HTTPSResponsePlan:
    accepted: bool
    response: Optional[HTTPResponse] = None


class _HTTPSServerApp(TCPApp):
    def __init__(self, server: HTTPSOriginServer) -> None:
        self.server = server
        self._buffer = bytearray()
        self._key: Optional[int] = None

    def on_data(self, conn: TCPConnection, data: bytes) -> None:
        self._buffer.extend(data)
        for record in split_records(bytes(self._buffer)):
            hello = parse_client_hello(record)
            if hello is None or self._key is not None:
                continue
            self._key = hello.key
            plan = self.server.respond(hello.sni, conn.remote_ip)
            if not plan.accepted:
                conn.abort()
                return
            conn.send(server_hello_bytes(hello.key))
            conn.send(seal(plan.response.to_bytes(), hello.key))
            conn.close()
        self._buffer.clear()

    def on_fin(self, conn: TCPConnection) -> None:
        try:
            conn.close()
        except ConnectionError_:
            # The close can race a RST or an already-finished teardown;
            # anything else (a programming error) must propagate.
            pass


@dataclass
class HTTPSFetchResult:
    """Outcome of one HTTPS fetch."""

    domain: str
    dst_ip: str
    connected: bool = False
    handshake_ok: bool = False
    response: Optional[HTTPResponse] = None
    got_rst: bool = False
    timed_out: bool = False
    #: Total connection attempts, including the first (1 == no retries).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.response is not None

    def outcome(self) -> str:
        if self.ok:
            return "ok"
        if self.got_rst:
            return "reset"
        if not self.connected or self.timed_out:
            return "unreachable"
        return "failed"


class _HTTPSClientApp(TCPApp):
    def __init__(self, result: HTTPSFetchResult, key: int) -> None:
        self.result = result
        self.key = key
        self._stream = bytearray()
        self.done = False

    def on_connected(self, conn: TCPConnection) -> None:
        self.result.connected = True
        conn.send(client_hello_bytes(self.result.domain, self.key))

    def on_data(self, conn: TCPConnection, data: bytes) -> None:
        self._stream.extend(data)
        self._try_finish()

    def _try_finish(self) -> None:
        from .message import parse_responses

        for record in split_records(bytes(self._stream)):
            if record.startswith(b"\x16\x03\x03"):
                self.result.handshake_ok = True
            plaintext = unseal(record, self.key)
            if plaintext is not None:
                responses = parse_responses(plaintext)
                if responses:
                    self.result.response = responses[0]
                    self.done = True

    def on_fin(self, conn: TCPConnection) -> None:
        self.done = True
        if conn.state == "CLOSE_WAIT":
            conn.close()

    def on_rst(self, conn: TCPConnection) -> None:
        self.result.got_rst = True
        self.done = True

    def on_closed(self, conn: TCPConnection, reason: str) -> None:
        if reason in ("timeout", "teardown-timeout"):
            self.done = True


def https_fetch(
    network: Network,
    client: Host,
    dst_ip: str,
    domain: str,
    *,
    timeout: float = 8.0,
    key: int = 0x5A,
    attempts: Optional[int] = None,
) -> HTTPSFetchResult:
    """Fetch ``https://domain/``, retrying silent failures.

    As with :func:`~repro.httpsim.client.http_fetch`, only attempts
    that die without any response (no connect, or timeout with no
    handshake progress) are retried; a RST or any server bytes end the
    fetch.  ``attempts=None`` defers to the network's hardening policy.
    """
    total = (network.hardening.fetch_attempts if attempts is None
             else max(1, attempts))
    result = HTTPSFetchResult(domain=domain, dst_ip=dst_ip)
    for attempt in range(1, total + 1):
        result = _https_fetch_once(network, client, dst_ip, domain,
                                   timeout=timeout, key=key)
        result.attempts = attempt
        retryable = (not result.got_rst and not result.handshake_ok
                     and (not result.connected or result.timed_out))
        if not retryable:
            break
        if attempt < total:
            network.run(until=network.now + backoff(attempt))
    return result


def _https_fetch_once(
    network: Network,
    client: Host,
    dst_ip: str,
    domain: str,
    *,
    timeout: float = 8.0,
    key: int = 0x5A,
) -> HTTPSFetchResult:
    """Drive one HTTPS exchange to completion or timeout."""
    result = HTTPSFetchResult(domain=domain, dst_ip=dst_ip)
    app = _HTTPSClientApp(result, key)
    conn = client.stack.connect(dst_ip, HTTPS_PORT, app)
    deadline = network.now + timeout
    while not app.done and network.now < deadline:
        if network.pending_events == 0:
            break
        network.run(until=min(deadline, network.now + 0.25))
    if not app.done:
        result.timed_out = True
        if conn.state != "CLOSED":
            conn.abort()
    network.run(until=network.now + 0.1)
    return result
