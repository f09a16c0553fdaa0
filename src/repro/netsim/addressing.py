"""IPv4 addressing utilities: parsing, prefixes, allocation and bogons.

The simulator stores addresses as dotted-quad strings (they appear in
traces and censorship notifications) and does its prefix arithmetic
on 32-bit integers.  The conversions between the two are one strict
integer core: :func:`ip_to_int` accepts exactly the strings the
standard library's IPv4 address parser accepts -- four dot-separated
canonical decimal octets, with no leading zeros, whitespace, signs or
non-ASCII digits -- so every address has one spelling, and a string
key such as ``Network.ip_owner``'s maps to one integer and back.  The
stdlib parser stays off the runtime path; a property test
(``tests/netsim/test_integer_core.py``) holds the core to it.  A small
:class:`PrefixAllocator` hands out non-overlapping prefixes when
topologies are built, and :func:`is_bogon` implements the bogon test
the paper's DNS heuristics rely on (section 3.2-II, heuristic 2) as
integer ``(network, mask)`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .errors import AddressError

#: Bogon prefixes: addresses that must never appear as a legitimate,
#: globally-routable web-server address.  Taken from the standard
#: full-bogon list referenced by the paper (ipinfo.io/bogon).
BOGON_PREFIXES: Sequence[str] = (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.0.0/24",
    "192.0.2.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
)

#: The canonical spelling of every octet: a lookup here is the whole
#: validation, since anything else ("00", "256", " 1", "+1") is absent.
_OCTETS = {str(value): value for value in range(256)}


def ip_to_int(ip: str) -> int:
    """Convert a dotted-quad IPv4 string to its 32-bit integer value."""
    try:
        a, b, c, d = ip.split(".")
        return ((_OCTETS[a] << 24) | (_OCTETS[b] << 16)
                | (_OCTETS[c] << 8) | _OCTETS[d])
    except (AttributeError, TypeError, ValueError, KeyError):
        raise AddressError(f"invalid IPv4 address: {ip!r}") from None


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"integer out of IPv4 range: {value!r}")
    return (f"{value >> 24}.{(value >> 16) & 0xFF}."
            f"{(value >> 8) & 0xFF}.{value & 0xFF}")


def is_valid_ip(ip: str) -> bool:
    """Return True if *ip* parses as an IPv4 address."""
    try:
        ip_to_int(ip)
    except AddressError:
        return False
    return True


def _mask(length: int) -> int:
    """The network mask of a /*length* prefix as a 32-bit integer."""
    return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF


#: :data:`BOGON_PREFIXES` as integer ``(network, mask)`` pairs.
_BOGON_NETWORKS = tuple(
    (ip_to_int(network), _mask(int(length)))
    for network, _, length in (text.partition("/") for text in BOGON_PREFIXES)
)


def is_bogon(ip: str) -> bool:
    """Return True if *ip* falls inside any bogon prefix.

    The paper's DNS-filtering heuristic marks a resolution as censored
    when the returned address is a bogon (section 3.2-II).
    """
    value = ip_to_int(ip)
    for network, mask in _BOGON_NETWORKS:
        if value & mask == network:
            return True
    return False


@dataclass(frozen=True)
class Prefix:
    """An IPv4 CIDR prefix, e.g. ``Prefix.parse("182.64.0.0/16")``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"invalid prefix length: {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise AddressError(
                f"prefix network out of IPv4 range: {self.network!r}")
        if self.network & ~self.mask:
            raise AddressError(
                f"host bits set in prefix {int_to_ip(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` into a :class:`Prefix`."""
        try:
            net_part, _, len_part = text.partition("/")
            length = int(len_part)
        except ValueError as exc:
            raise AddressError(f"invalid prefix: {text!r}") from exc
        return cls(network=ip_to_int(net_part), length=length)

    @property
    def mask(self) -> int:
        """The network mask as a 32-bit integer."""
        return _mask(self.length)

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, ip: str) -> bool:
        """Return True if *ip* lies inside this prefix."""
        return (ip_to_int(ip) & self.mask) == self.network

    def address(self, offset: int) -> str:
        """Return the address at *offset* within the prefix."""
        if not 0 <= offset < self.size:
            raise AddressError(
                f"offset {offset} out of range for /{self.length} prefix"
            )
        return int_to_ip(self.network + offset)

    def subnets(self, new_length: int) -> List["Prefix"]:
        """Split the prefix into sub-prefixes of *new_length*."""
        if new_length < self.length or new_length > 32:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length}"
            )
        step = 1 << (32 - new_length)
        return [
            Prefix(self.network + i * step, new_length)
            for i in range(1 << (new_length - self.length))
        ]

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


def ip_in_prefixes(ip: str, prefixes: Sequence[Prefix]) -> bool:
    """Return True if *ip* lies inside any prefix in *prefixes*."""
    return any(p.contains(ip) for p in prefixes)


@dataclass
class PrefixAllocator:
    """Hands out non-overlapping prefixes from a parent pool.

    Topology builders use one allocator per world so ISP prefixes,
    content-hosting prefixes and backbone link addresses never collide.
    """

    pool: Prefix
    _cursor: int = field(default=0, init=False)

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free prefix of the given *length*."""
        return Prefix(self._claim(length), length)

    def allocate_address(self) -> str:
        """Allocate a single address (a /32) and return it as a string."""
        return int_to_ip(self._claim(32))

    def _claim(self, length: int) -> int:
        """Advance past the next free /*length* and return its network."""
        if not self.pool.length <= length <= 32:
            raise AddressError(
                f"cannot allocate /{length} from /{self.pool.length} pool"
            )
        step = 1 << (32 - length)
        # Align the cursor to the requested prefix size.
        aligned = (self._cursor + step - 1) & ~(step - 1)
        if aligned + step > self.pool.size:
            raise AddressError(
                f"prefix pool {self.pool} exhausted allocating /{length}"
            )
        self._cursor = aligned + step
        return self.pool.network + aligned
