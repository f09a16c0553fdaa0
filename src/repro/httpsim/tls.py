"""A minimal TLS model — just enough for the paper's HTTPS finding.

Section 4.2 closes with: "We observed fewer than five instances of
HTTPS filtering which were actually due to manipulated DNS responses by
poisoned resolvers."  Reproducing that requires HTTPS sites whose
*content* is opaque to middleboxes (they inspect TCP port 80 only, and
could not read the payload anyway) but whose *reachability* still
depends on DNS.

The model: a ClientHello record carrying the SNI in the clear (as real
TLS does), a ServerHello, and "encrypted" application data that is the
page body XOR-masked with a connection key — unreadable to any on-path
matcher, trivially decryptable by the endpoints that share the key.
No real cryptography is attempted or needed: middleboxes in this world
do not even look at port 443.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

HTTPS_PORT = 443

_HELLO_MAGIC = b"\x16\x03\x01"
_SERVER_MAGIC = b"\x16\x03\x03"
_DATA_MAGIC = b"\x17\x03\x03"


def client_hello_bytes(sni: str, key: int = 0x5A) -> bytes:
    """A ClientHello-shaped record with the SNI in the clear."""
    name = sni.encode("idna") if any(ord(c) > 127 for c in sni) \
        else sni.encode("ascii")
    return (_HELLO_MAGIC + bytes([key & 0xFF])
            + len(name).to_bytes(2, "big") + name)


def parse_client_hello(raw: bytes) -> Optional["ClientHello"]:
    """Extract (sni, key) from a ClientHello record, if it is one."""
    if not raw.startswith(_HELLO_MAGIC) or len(raw) < 6:
        return None
    key = raw[3]
    name_length = int.from_bytes(raw[4:6], "big")
    name = raw[6:6 + name_length]
    if len(name) != name_length:
        return None
    try:
        sni = name.decode("ascii")
    except UnicodeDecodeError:
        return None
    return ClientHello(sni=sni, key=key)


@dataclass(frozen=True)
class ClientHello:
    sni: str
    key: int


def server_hello_bytes(key: int) -> bytes:
    return _SERVER_MAGIC + bytes([key & 0xFF])


def seal(plaintext: bytes, key: int) -> bytes:
    """'Encrypt' application data (XOR mask + record header)."""
    masked = bytes(b ^ (key & 0xFF) for b in plaintext)
    return _DATA_MAGIC + len(masked).to_bytes(4, "big") + masked


def unseal(record: bytes, key: int) -> Optional[bytes]:
    """Decrypt one application-data record; None if malformed."""
    if not record.startswith(_DATA_MAGIC) or len(record) < 7:
        return None
    length = int.from_bytes(record[3:7], "big")
    masked = record[7:7 + length]
    if len(masked) != length:
        return None
    return bytes(b ^ (key & 0xFF) for b in masked)


def split_records(stream: bytes):
    """Yield complete records from a TLS-model byte stream."""
    rest = stream
    while rest:
        if rest.startswith(_DATA_MAGIC):
            if len(rest) < 7:
                return
            length = int.from_bytes(rest[3:7], "big")
            if len(rest) < 7 + length:
                return
            yield rest[:7 + length]
            rest = rest[7 + length:]
        elif rest.startswith(_SERVER_MAGIC):
            yield rest[:4]
            rest = rest[4:]
        elif rest.startswith(_HELLO_MAGIC):
            if len(rest) < 6:
                return
            name_length = int.from_bytes(rest[4:6], "big")
            yield rest[:6 + name_length]
            rest = rest[6 + name_length:]
        else:
            return
