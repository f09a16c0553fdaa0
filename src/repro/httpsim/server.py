"""Origin web servers with virtual hosting.

One server host can serve many domains (virtual hosting), exactly like
the shared-hosting and CDN arrangements that confuse naive censorship
detection (section 3.2's "multiple websites actually hosted on the same
IP address").  Content generation is pluggable: the websites package
registers per-domain handlers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..netsim.devices import Host
from ..netsim.errors import ConnectionError_
from ..netsim.tcp import CLOSE_WAIT, ESTABLISHED, TCPApp, TCPConnection
from .message import HTTPResponse, make_response
from .parsing import ParsedRequest, parse_request_unit, split_request_units

#: A domain handler renders a response for a parsed request arriving
#: from ``client_ip``.  Returning None means "refuse to serve".
DomainHandler = Callable[[ParsedRequest, str], Optional[HTTPResponse]]

_BAD_REQUEST_BODY = (
    b"<html><body><h1>400 Bad Request</h1>"
    b"<p>Your browser sent a request this server could not understand."
    b"</p></body></html>"
)

_NOT_HOSTED_BODY = (
    b"<html><body><h1>404 Not Found</h1>"
    b"<p>The requested domain is not served here.</p></body></html>"
)


class OriginServer:
    """A virtual-hosting HTTP server deployable on any simulated host."""

    def __init__(self, name: str = "origin") -> None:
        self.name = name
        self.domains: Dict[str, DomainHandler] = {}
        #: Raw request units received, for remote-controlled-server
        #: experiments that check what actually reached the wire end.
        self.request_log: list = []
        #: ``(now, remote, reason)`` entries for per-connection errors
        #: that would otherwise be invisible (e.g. a close racing a RST).
        self.error_log: list = []

    def add_domain(self, domain: str, handler: DomainHandler) -> None:
        self.domains[domain] = handler

    def install(self, host: Host, port: int = 80) -> None:
        """Start accepting connections on *host*:*port*."""
        host.stack.listen(port, lambda: _ServerConnectionApp(self))

    # -- request handling -------------------------------------------------

    def respond_to(self, request: ParsedRequest, client_ip: str) -> HTTPResponse:
        """Produce the response for one parsed request unit."""
        if request.malformed is not None:
            return make_response(400, _BAD_REQUEST_BODY)
        domain = request.host
        handler = self.domains.get(domain or "")
        if handler is None and domain and domain.startswith("www."):
            # Serving example.com also answers www.example.com — this is
            # why the "prepend www" fudge still yields real content.
            handler = self.domains.get(domain[4:])
        if handler is None:
            return make_response(404, _NOT_HOSTED_BODY)
        response = handler(request, client_ip)
        if response is None:
            return make_response(403, b"<html><body>Forbidden</body></html>")
        return response


class _ServerConnectionApp(TCPApp):
    """Per-connection server state: buffering, pipelining, close."""

    def __init__(self, server: OriginServer) -> None:
        self.server = server
        self._buffer = bytearray()
        self._close_requested = False

    def on_data(self, conn: TCPConnection, data: bytes) -> None:
        self._buffer.extend(data)
        self._process_units(conn)

    def _process_units(self, conn: TCPConnection) -> None:
        stream = bytes(self._buffer)
        units = split_request_units(stream)
        if not units:
            return
        # A final fragment lacking the CRLF CRLF terminator stays
        # buffered awaiting more data.
        incomplete_tail = not stream.endswith(b"\r\n\r\n")
        complete = units[:-1] if incomplete_tail else units
        remainder = units[-1] if incomplete_tail else b""
        self._buffer = bytearray(remainder)
        for unit in complete:
            if conn.state not in (ESTABLISHED, CLOSE_WAIT):
                # Units arriving in the same batch as a Connection:
                # close request are still answered (close is deferred
                # to the end of the batch — the covert-IM trailing 400
                # depends on it), but once FIN is actually sent a later
                # segment's units would crash conn.send() — a crafted
                # stream the fuzzer found.  Real servers stop reading
                # after close; we log and drop.
                now = conn.network.now if conn.network is not None else 0.0
                self.server.error_log.append(
                    (now, conn.remote_ip, "late-unit-dropped")
                )
                continue
            request = parse_request_unit(unit)
            self.server.request_log.append(
                (conn.remote_ip, unit, request)
            )
            response = self.server.respond_to(request, conn.remote_ip)
            conn.send(response.to_bytes())
            wants_close = (request.header("Connection") or "").lower() == "close"
            if wants_close or request.malformed is not None:
                self._close_requested = True
        if self._close_requested and conn.state in (ESTABLISHED, CLOSE_WAIT):
            conn.close()

    def on_fin(self, conn: TCPConnection) -> None:
        # Client finished sending; close our side too.
        try:
            conn.close()
        except ConnectionError_ as exc:
            # The close can race a RST or an already-finished teardown;
            # anything else (a programming error) must propagate.
            now = conn.network.now if conn.network is not None else 0.0
            self.server.error_log.append(
                (now, conn.remote_ip, f"close-race: {exc}")
            )
