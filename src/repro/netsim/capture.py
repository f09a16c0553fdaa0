"""pcap-style packet capture.

A host records the packets it sends and receives only while a
measurement that reads them holds its capture open
(:meth:`Capture.armed`).  The measurement code inspects captures
exactly the way the paper inspects pcap traces: looking for injected
FINs, forged RSTs, fixed IP-ID values and sequence-number mismatches.
A capture nobody holds open records nothing, so a world keeps no
packets a reader did not ask for.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, NamedTuple, Optional

from .packets import Packet, TCPFlags


class CaptureEntry(NamedTuple):
    """One captured packet: when, where, which direction.

    A NamedTuple rather than a frozen dataclass: an armed capture
    records every packet its host sends or receives, and a frozen
    dataclass pays an ``object.__setattr__`` per field on construction.
    """

    time: float
    node: str
    direction: str  # "rx" or "tx"
    packet: Packet

    def describe(self) -> str:
        arrow = "<-" if self.direction == "rx" else "->"
        return f"[{self.time:9.4f}] {self.node} {arrow} {self.packet.describe()}"


class Capture:
    """A host's packet log, recording only inside a reader's window.

    A capture starts disarmed.  A reader opens a window with
    :meth:`armed`; while at least one window is open, the host records
    every packet it sends (``tx``) and receives (``rx``).  Windows nest,
    and when the outermost one closes, on an exception too, the entries
    are dropped: a disarmed capture is always empty.
    """

    __slots__ = ("entries", "windows")

    def __init__(self) -> None:
        self.entries: List[CaptureEntry] = []
        #: Open windows; the host records while this is non-zero.
        self.windows = 0

    @contextmanager
    def armed(self) -> Iterator["Capture"]:
        """Record for the duration of the ``with`` block."""
        self.windows += 1
        try:
            yield self
        finally:
            self.windows -= 1
            if not self.windows:
                self.entries.clear()

    def record(self, time: float, node: str, direction: str, packet: Packet) -> None:
        """Append an entry while armed (packets are cloned so later
        mutation is safe)."""
        if self.windows:
            self.entries.append(
                CaptureEntry(time=time, node=node, direction=direction,
                             packet=packet.clone())
            )

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CaptureEntry]:
        return iter(self.entries)

    def filter(
        self,
        predicate: Optional[Callable[[CaptureEntry], bool]] = None,
        *,
        direction: Optional[str] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        tcp_only: bool = False,
        with_flag: Optional[TCPFlags] = None,
        since: float = float("-inf"),
    ) -> List[CaptureEntry]:
        """Return entries matching all the given criteria."""
        result = []
        for entry in self.entries:
            if entry.time < since:
                continue
            if direction is not None and entry.direction != direction:
                continue
            packet = entry.packet
            if src is not None and packet.src != src:
                continue
            if dst is not None and packet.dst != dst:
                continue
            if tcp_only and not packet.is_tcp:
                continue
            if with_flag is not None:
                if not packet.is_tcp or not packet.tcp.has(with_flag):
                    continue
            if predicate is not None and not predicate(entry):
                continue
            result.append(entry)
        return result

    def tcp_payload_stream(self, src: str, dst: str) -> bytes:
        """Reassemble captured TCP payload bytes flowing src -> dst.

        A crude in-order reassembly (duplicate sequence numbers are
        dropped) — sufficient for inspecting what a remote controlled
        server actually received (section 4.2.1 experiments).
        """
        seen_seqs = set()
        chunks = []
        for entry in self.entries:
            packet = entry.packet
            if not packet.is_tcp or packet.src != src or packet.dst != dst:
                continue
            segment = packet.tcp
            if not segment.payload:
                continue
            if segment.seq in seen_seqs:
                continue
            seen_seqs.add(segment.seq)
            chunks.append((segment.seq, segment.payload))
        chunks.sort(key=lambda item: item[0])
        return b"".join(payload for _, payload in chunks)

    def describe(self) -> str:
        """Multi-line rendering of the whole capture."""
        return "\n".join(entry.describe() for entry in self.entries)
