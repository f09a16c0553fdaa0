"""A simplified but behaviourally faithful TCP implementation.

The paper's middlebox analysis rests entirely on a handful of TCP
behaviours, all implemented here:

* a 3-way handshake that middleboxes observe to build flow state;
* in-order sequence validation — a forged segment carrying the correct
  ``seq``/``ack`` is indistinguishable from a genuine one and is
  accepted, while the genuine server response arriving *after* a forged
  FIN terminated the connection is answered with a RST (section 3.4);
* 4-way teardown with a timeout: when an interceptive middlebox drops
  the teardown packets, the client eventually gives up and emits its
  own RST (section 4.2.1, Figure 3);
* RST generation for segments that reach a closed or unknown
  connection.

Out-of-order reassembly and congestion control are deliberately
omitted: no experiment in the paper depends on them.  A minimal
go-back-N retransmission scheme exists but stays dormant until the
fault layer enables it (``network.hardening.tcp_retransmit``), so
perfect-network traces are byte-identical to a stack without it.
Measurement code can send crafted segments (arbitrary TTL, repeated
sequence numbers, unusual flag combinations) through the same stack,
mirroring the authors' scapy usage.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .errors import ConnectionError_, PortInUseError
from .packets import DEFAULT_TTL, Packet, TCPFlags, TCPSegment, make_tcp_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .devices import Host

# Connection states.
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSING = "CLOSING"
TIME_WAIT = "TIME_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"

#: Receive window used for RST acceptance checks.
RST_ACCEPT_WINDOW = 65535

#: How long a client waits for the peer to complete a 3-way handshake.
CONNECT_TIMEOUT = 3.0

#: How long a closing endpoint waits for teardown progress before it
#: gives up and sends a RST (the "4-way disconnection always timed out"
#: behaviour in Figure 3).
TEARDOWN_TIMEOUT = 1.5

#: Abbreviated TIME_WAIT (2*MSL collapsed for simulation speed).
TIME_WAIT_DURATION = 0.2

#: Retransmission rounds a connection spends on unacknowledged
#: segments, and the pause before each (fault-mode only).
MAX_RETRANSMITS = 6
RETRANSMIT_INTERVAL = 0.4


class TCPApp:
    """Base class for applications bound to a TCP connection.

    Subclasses override the callbacks they care about.  All callbacks
    receive the :class:`TCPConnection` so one app object can serve many
    connections.
    """

    def on_connected(self, conn: "TCPConnection") -> None:
        """Handshake completed."""

    def on_data(self, conn: "TCPConnection", data: bytes) -> None:
        """In-order payload bytes arrived."""

    def on_fin(self, conn: "TCPConnection") -> None:
        """The peer sent FIN (end of its byte stream)."""

    def on_rst(self, conn: "TCPConnection") -> None:
        """The connection was reset."""

    def on_closed(self, conn: "TCPConnection", reason: str) -> None:
        """The connection reached CLOSED for any reason."""


ConnKey = Tuple[str, int, str, int]  # local_ip, local_port, remote_ip, remote_port


class TCPConnection:
    """One endpoint of a TCP connection."""

    def __init__(
        self,
        stack: "TCPStack",
        local_ip: str,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        app: TCPApp,
        *,
        iss: int,
        default_ttl: int = DEFAULT_TTL,
    ) -> None:
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.app = app
        self.state = CLOSED
        self.iss = iss
        self.snd_nxt = iss
        self.rcv_nxt = 0
        self.default_ttl = default_ttl
        self._timer_generation = 0
        # Retransmission state.  Kept on a generation counter separate
        # from the protocol timers: arming a retransmit must never
        # cancel a pending connect/teardown timeout.
        self._rtx_generation = 0
        self._rtx_count = 0
        self._unacked: List[Tuple[int, TCPFlags, bytes]] = []
        self.retransmits = 0

    # -- helpers ---------------------------------------------------------

    @property
    def key(self) -> ConnKey:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    @property
    def network(self):
        return self.stack.host.network

    def _emit(
        self,
        flags: TCPFlags,
        *,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        payload: bytes = b"",
        ttl: Optional[int] = None,
    ) -> Packet:
        packet = make_tcp_packet(
            self.local_ip,
            self.remote_ip,
            self.local_port,
            self.remote_port,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt if ack is None else ack,
            flags=flags,
            payload=payload,
            ttl=self.default_ttl if ttl is None else ttl,
        )
        self.stack.host.send_packet(packet)
        return packet

    def _arm_timer(self, delay: float, expected_states: Tuple[str, ...],
                   action: Callable[[], None]) -> None:
        """Schedule *action* unless the state has moved on by then."""
        self._timer_generation += 1
        generation = self._timer_generation

        def fire() -> None:
            if self._timer_generation == generation and self.state in expected_states:
                action()

        self.network.call_later(delay, fire)

    def _cancel_timers(self) -> None:
        self._timer_generation += 1
        self._cancel_rtx()

    # -- retransmission (fault-mode only) ---------------------------------

    def _retransmit_enabled(self) -> bool:
        network = self.network
        return network is not None and network.hardening.tcp_retransmit

    @staticmethod
    def _seg_len(seq: int, flags: TCPFlags, payload: bytes) -> int:
        length = len(payload)
        if flags & (TCPFlags.SYN | TCPFlags.FIN):
            length += 1
        return length

    def _track_unacked(self, seq: int, flags: TCPFlags,
                       payload: bytes) -> None:
        """Remember an in-flight segment and (re)arm the retransmit timer."""
        if not self._retransmit_enabled():
            return
        self._unacked.append((seq, flags, payload))
        self._arm_rtx()

    def _arm_rtx(self) -> None:
        self._rtx_generation += 1
        generation = self._rtx_generation

        def fire() -> None:
            if (self._rtx_generation != generation
                    or not self._unacked
                    or self.state in (CLOSED, TIME_WAIT)):
                return
            if self._rtx_count >= MAX_RETRANSMITS:
                return
            self._rtx_count += 1
            for seq, flags, payload in self._unacked:
                self._emit(flags, seq=seq, payload=payload,
                           ack=0 if flags == TCPFlags.SYN else None)
                self.retransmits += 1
            self._arm_rtx()

        self.network.call_later(RETRANSMIT_INTERVAL, fire)

    def _cancel_rtx(self) -> None:
        self._rtx_generation += 1

    def _ack_advance(self, ack: int) -> None:
        """Drop tracked segments the peer has now acknowledged."""
        if not self._unacked:
            return
        remaining = [
            (seq, flags, payload)
            for seq, flags, payload in self._unacked
            if seq + self._seg_len(seq, flags, payload) > ack
        ]
        if len(remaining) != len(self._unacked):
            self._unacked = remaining
            if not remaining:
                self._cancel_rtx()
                self._rtx_count = 0

    # -- opening ----------------------------------------------------------

    def open_active(self) -> None:
        """Client side: send SYN and await SYN|ACK."""
        if self.state != CLOSED:
            raise ConnectionError_(f"cannot connect from state {self.state}")
        self.state = SYN_SENT
        self._emit(TCPFlags.SYN, seq=self.iss, ack=0)
        self.snd_nxt = self.iss + 1
        self._arm_timer(CONNECT_TIMEOUT, (SYN_SENT,), self._connect_timed_out)
        self._track_unacked(self.iss, TCPFlags.SYN, b"")

    def _connect_timed_out(self) -> None:
        self._enter_closed("timeout")

    # -- sending ----------------------------------------------------------

    def send(
        self,
        data: bytes,
        *,
        ttl: Optional[int] = None,
        advance: bool = True,
        push: bool = True,
        segment_size: Optional[int] = None,
    ) -> None:
        """Send application data.

        Args:
            ttl: per-send TTL override (crafted TTL-limited probes).
            advance: when False, ``snd_nxt`` is left untouched, so a
                subsequent send reuses the same sequence number — the
                trick behind the paper's paired TTL n−1 / n requests.
            push: set PSH on the (final) segment.
            segment_size: when given, split the data into multiple
                segments of at most this many bytes (the "fragmented
                GET" evasion of section 5).
        """
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise ConnectionError_(f"cannot send in state {self.state}")
        chunks = [data]
        if segment_size is not None and segment_size > 0:
            chunks = [data[i:i + segment_size]
                      for i in range(0, len(data), segment_size)]
        seq = self.snd_nxt
        for index, chunk in enumerate(chunks):
            is_last = index == len(chunks) - 1
            flags = TCPFlags.ACK
            if push and is_last:
                flags |= TCPFlags.PSH
            self._emit(flags, seq=seq, payload=chunk, ttl=ttl)
            # Only ordinary stream data is retransmittable; crafted
            # sends (TTL-limited or sequence-repeating probes) must hit
            # the wire exactly once to keep their measurement semantics.
            if advance and ttl is None:
                self._track_unacked(seq, flags, chunk)
            seq += len(chunk)
        if advance:
            self.snd_nxt = seq

    def send_raw_flags(
        self,
        flags: TCPFlags,
        *,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        payload: bytes = b"",
        ttl: Optional[int] = None,
    ) -> None:
        """Emit an arbitrary segment on this connection's 4-tuple.

        Measurement code uses this for probes that must not disturb the
        connection's own sequence bookkeeping.
        """
        self._emit(flags, seq=seq, ack=ack, payload=payload, ttl=ttl)

    # -- closing ----------------------------------------------------------

    def close(self) -> None:
        """Initiate an orderly close (send FIN)."""
        if self.state == ESTABLISHED:
            self._emit(TCPFlags.FIN | TCPFlags.ACK)
            self._track_unacked(self.snd_nxt, TCPFlags.FIN | TCPFlags.ACK, b"")
            self.snd_nxt += 1
            self.state = FIN_WAIT_1
            self._arm_timer(
                TEARDOWN_TIMEOUT, (FIN_WAIT_1, FIN_WAIT_2, CLOSING),
                self._teardown_timed_out,
            )
        elif self.state == CLOSE_WAIT:
            self._emit(TCPFlags.FIN | TCPFlags.ACK)
            self._track_unacked(self.snd_nxt, TCPFlags.FIN | TCPFlags.ACK, b"")
            self.snd_nxt += 1
            self.state = LAST_ACK
            self._arm_timer(
                TEARDOWN_TIMEOUT, (LAST_ACK,), self._teardown_timed_out,
            )
        elif self.state in (CLOSED, TIME_WAIT):
            pass
        else:
            raise ConnectionError_(f"cannot close from state {self.state}")

    def abort(self) -> None:
        """Send RST and drop the connection immediately."""
        if self.state not in (CLOSED,):
            self._emit(TCPFlags.RST)
        self._enter_closed("abort")

    def _teardown_timed_out(self) -> None:
        # The peer (or a middlebox eating our packets) never completed
        # the 4-way close; give up with a RST, as real stacks and the
        # clients in Figure 3 do.
        self._emit(TCPFlags.RST)
        self._enter_closed("teardown-timeout")

    def _enter_closed(self, reason: str) -> None:
        if self.state == CLOSED and reason != "init":
            return
        self.state = CLOSED
        self._cancel_timers()
        self.stack.forget(self)
        self.app.on_closed(self, reason)

    # -- segment processing -----------------------------------------------

    def handle_segment(self, packet: Packet, now: float) -> None:
        """Process an arriving segment addressed to this connection."""
        segment = packet.tcp

        if segment.has(TCPFlags.RST):
            self._handle_rst(segment)
            return

        if self.state == SYN_SENT:
            self._handle_in_syn_sent(segment)
            return

        if self.state == SYN_RCVD:
            if segment.has(TCPFlags.ACK) and segment.ack == self.snd_nxt:
                self._ack_advance(segment.ack)
                self.state = ESTABLISHED
                self.app.on_connected(self)
                # The ACK may carry data (e.g. a piggybacked request).
                if segment.payload or segment.has(TCPFlags.FIN):
                    self._handle_stream_segment(segment)
            elif (segment.has(TCPFlags.SYN) and not segment.has(TCPFlags.ACK)
                    and self._retransmit_enabled()):
                # A retransmitted SYN means our SYN|ACK was lost: say it
                # again.
                self._emit(TCPFlags.SYN | TCPFlags.ACK, seq=self.iss)
            return

        if self.state in (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2,
                          CLOSE_WAIT, CLOSING, LAST_ACK, TIME_WAIT):
            self._handle_stream_segment(segment)

    def _handle_rst(self, segment: TCPSegment) -> None:
        if self.state == SYN_SENT:
            acceptable = segment.ack == self.snd_nxt
        else:
            acceptable = (
                0 <= segment.seq - self.rcv_nxt < RST_ACCEPT_WINDOW
                or segment.seq == self.rcv_nxt
            )
        if not acceptable:
            return
        self.app.on_rst(self)
        self._enter_closed("rst")

    def _handle_in_syn_sent(self, segment: TCPSegment) -> None:
        if segment.has(TCPFlags.SYN) and segment.has(TCPFlags.ACK):
            if segment.ack != self.snd_nxt:
                return
            self._ack_advance(segment.ack)
            self.rcv_nxt = segment.seq + 1
            self._emit(TCPFlags.ACK)
            self.state = ESTABLISHED
            self.app.on_connected(self)

    def _handle_stream_segment(self, segment: TCPSegment) -> None:
        # ACK bookkeeping for teardown progress.
        if segment.has(TCPFlags.ACK):
            self._ack_advance(segment.ack)
            if self.state == FIN_WAIT_1 and segment.ack == self.snd_nxt:
                self.state = FIN_WAIT_2
            elif self.state == CLOSING and segment.ack == self.snd_nxt:
                self._enter_time_wait()
            elif self.state == LAST_ACK and segment.ack == self.snd_nxt:
                self._enter_closed("closed-cleanly")
                return

        has_payload = bool(segment.payload)
        has_fin = segment.has(TCPFlags.FIN)
        if not has_payload and not has_fin:
            return

        if segment.seq != self.rcv_nxt:
            if segment.seq < self.rcv_nxt:
                # Old or duplicate data: re-ACK and drop.
                self._emit(TCPFlags.ACK)
            # Future data has no reassembly queue: drop it silently.
            return

        if has_payload:
            self.rcv_nxt += len(segment.payload)
            self.app.on_data(self, segment.payload)
            if self.state == CLOSED:
                return

        if has_fin:
            self.rcv_nxt += 1
            self._emit(TCPFlags.ACK)
            if self.state == ESTABLISHED:
                self.state = CLOSE_WAIT
            elif self.state == FIN_WAIT_1:
                self.state = CLOSING
            elif self.state == FIN_WAIT_2:
                self._enter_time_wait()
            self.app.on_fin(self)
        elif has_payload:
            self._emit(TCPFlags.ACK)

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._arm_timer(TIME_WAIT_DURATION, (TIME_WAIT,),
                        lambda: self._enter_closed("time-wait-done"))


class TCPStack:
    """Per-host TCP: demultiplexing, listeners and RST generation."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.connections: Dict[ConnKey, TCPConnection] = {}
        self.listeners: Dict[int, Callable[[], TCPApp]] = {}
        self._next_local_port = itertools.count(40000)
        #: When False the stack never answers unknown segments with RST
        #: (used to model silent endpoints during scans).
        self.send_rst_for_unknown = True

    # -- API ---------------------------------------------------------------

    def listen(self, port: int, app_factory: Callable[[], TCPApp]) -> None:
        """Accept connections on *port*; each gets ``app_factory()``."""
        if port in self.listeners:
            raise PortInUseError(f"{self.host.name}: TCP port {port} already bound")
        self.listeners[port] = app_factory

    def connect(
        self,
        remote_ip: str,
        remote_port: int,
        app: TCPApp,
        *,
        local_port: Optional[int] = None,
        ttl: int = DEFAULT_TTL,
    ) -> TCPConnection:
        """Open a client connection and return it (handshake is async)."""
        if local_port is None:
            local_port = next(self._next_local_port)
        iss = self.host.network.next_iss()
        conn = TCPConnection(
            self, self.host.ip, local_port, remote_ip, remote_port, app,
            iss=iss, default_ttl=ttl,
        )
        key = conn.key
        if key in self.connections:
            raise PortInUseError(f"{self.host.name}: connection {key} exists")
        self.connections[key] = conn
        conn.open_active()
        return conn

    def forget(self, conn: TCPConnection) -> None:
        """Remove a closed connection from the demux table."""
        self.connections.pop(conn.key, None)

    # -- demux ---------------------------------------------------------------

    def handle_packet(self, packet: Packet, now: float) -> None:
        segment = packet.tcp
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        conn = self.connections.get(key)
        if conn is not None and conn.state != CLOSED:
            conn.handle_segment(packet, now)
            return

        # No live connection: maybe a new one for a listener.
        if segment.has(TCPFlags.SYN) and not segment.has(TCPFlags.ACK):
            factory = self.listeners.get(segment.dst_port)
            if factory is not None:
                self._accept(packet, factory, now)
                return

        self._reject(packet)

    def _accept(self, packet: Packet, factory: Callable[[], TCPApp],
                now: float) -> None:
        segment = packet.tcp
        app = factory()
        conn = TCPConnection(
            self, packet.dst, segment.dst_port, packet.src, segment.src_port,
            app, iss=self.host.network.next_iss(),
        )
        conn.state = SYN_RCVD
        conn.rcv_nxt = segment.seq + 1
        self.connections[conn.key] = conn
        conn._emit(TCPFlags.SYN | TCPFlags.ACK, seq=conn.iss)
        conn.snd_nxt = conn.iss + 1
        conn._track_unacked(conn.iss, TCPFlags.SYN | TCPFlags.ACK, b"")

    def _reject(self, packet: Packet) -> None:
        """Answer a stray segment with RST, per RFC 793 rules."""
        if not self.send_rst_for_unknown:
            return
        segment = packet.tcp
        if segment.has(TCPFlags.RST):
            return
        if segment.has(TCPFlags.ACK):
            reply_seq, reply_ack, flags = segment.ack, 0, TCPFlags.RST
        else:
            reply_seq = 0
            reply_ack = segment.seq + segment.seg_len
            flags = TCPFlags.RST | TCPFlags.ACK
        reply = make_tcp_packet(
            packet.dst, packet.src, segment.dst_port, segment.src_port,
            seq=reply_seq, ack=reply_ack, flags=flags,
        )
        self.host.send_packet(reply)

    # -- non-TCP hooks -------------------------------------------------------

    def handle_unmatched_udp(self, packet: Packet, now: float) -> None:
        """UDP to a port nobody listens on: ICMP port-unreachable.

        This is what lets classic UDP traceroute detect arrival at the
        destination.  Hosts modelling silent scan targets can set
        ``send_rst_for_unknown = False`` to suppress it.
        """
        if not self.send_rst_for_unknown:
            return
        from .packets import make_dest_unreachable

        reply = make_dest_unreachable(packet.dst, packet, code=3)
        self.host.send_packet(reply)

    def handle_icmp(self, packet: Packet, now: float) -> None:
        """ICMP is observed via host sniffers/captures; no stack action."""
