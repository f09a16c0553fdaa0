"""Seed corpora and on-disk corpus/fixture encoding.

The corpus is seeded from the traffic the experiments actually send:
the canonical browser request, every section-5 evasion strategy's
crafted bytes, pipelined streams, and DNS queries against honest and
poisoned resolvers.  Mutation starts from realistic inputs, so the
interesting neighbourhood (the parsing asymmetry) is reached within a
few mutations instead of by luck.

Corpus entries and minimized reproducers share one JSON encoding::

    {"target": "http", "entry": {"data": "<hex>"}, ...}

so a minimized finding dropped into ``tests/fixtures/fuzz/`` is
immediately replayable both by the regression suite and by
``repro fuzz --corpus tests/fixtures/fuzz``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from ..core.evasion.strategies import STRATEGIES
from ..httpsim.message import GetRequestSpec

#: The domain every differential oracle treats as blocked, and the
#: decoy the covert evasion hides behind.
FUZZ_DOMAIN = "blockedsite.in"
DECOY_DOMAIN = "allowed-decoy.org"

TARGETS = ("http", "dns", "tcp", "diff", "session")

#: Session-schedule knob values the mutator draws from.
SESSION_IDLES = (0.5, 2.0, 6.0, 200.0)
SESSION_RESIDUALS = (0.0, 5.0)
SESSION_MAX_OPS = 16
SESSION_MAX_FLOWS = 8
SESSION_FLOW_SLOTS = 6


# ---------------------------------------------------------------------------
# Entry encoding (JSON-clean dicts; bytes travel as hex)
# ---------------------------------------------------------------------------

def encode_entry(target: str, entry) -> Dict:
    """JSON-clean form of a live entry."""
    if target in ("http", "diff"):
        return {"data": entry.hex()}
    if target == "tcp":
        return {"schedule": [[off, data.hex()] for off, data in entry]}
    if target == "dns":
        return dict(entry)
    if target == "session":
        return dict(entry, ops=[list(op) for op in entry["ops"]])
    raise ValueError(f"unknown fuzz target {target!r}")


def decode_entry(target: str, encoded: Dict):
    """Inverse of :func:`encode_entry`."""
    if target in ("http", "diff"):
        return bytes.fromhex(encoded["data"])
    if target == "tcp":
        return [(int(off), bytes.fromhex(data))
                for off, data in encoded["schedule"]]
    if target == "dns":
        return dict(encoded)
    if target == "session":
        return dict(encoded, ops=[list(op) for op in encoded["ops"]])
    raise ValueError(f"unknown fuzz target {target!r}")


# ---------------------------------------------------------------------------
# Seed corpora
# ---------------------------------------------------------------------------

def _request_bytes(spec: GetRequestSpec) -> bytes:
    return spec.to_bytes()


def http_seed_corpus() -> List[bytes]:
    """Request byte streams: canonical, every evasion, pipelines."""
    entries: List[bytes] = []
    canonical = GetRequestSpec(domain=FUZZ_DOMAIN)
    decoy = GetRequestSpec(domain=DECOY_DOMAIN)
    entries.append(_request_bytes(canonical))
    entries.append(_request_bytes(decoy))
    # Every section-5 request-mutation strategy, aimed at the blocked
    # domain (CLIENT/DNS strategies send canonical bytes).
    for strategy in STRATEGIES:
        entries.append(_request_bytes(strategy.spec_for(FUZZ_DOMAIN)))
    # Pipelined streams, both orders (covert boxes key on the last
    # Host in the stream, so order matters to the oracle).
    entries.append(_request_bytes(canonical) + _request_bytes(decoy))
    entries.append(_request_bytes(decoy) + _request_bytes(canonical))
    # Duplicate Host inside one request (identical, then differing).
    entries.append(_request_bytes(GetRequestSpec(
        domain=FUZZ_DOMAIN, extra_host_lines=(f"Host: {FUZZ_DOMAIN}",))))
    entries.append(_request_bytes(GetRequestSpec(
        domain=FUZZ_DOMAIN, extra_host_lines=(f"Host: {DECOY_DOMAIN}",))))
    # Host-less HTTP/1.0 and a bare minimal request.
    entries.append(b"GET / HTTP/1.0\r\n\r\n")
    entries.append(f"GET / HTTP/1.1\r\nHost: {FUZZ_DOMAIN}\r\n\r\n"
                   .encode("latin-1"))
    return entries


def dns_seed_corpus() -> List[Dict]:
    """Query descriptions against honest and poisoned resolvers."""
    entries: List[Dict] = []
    for resolver in ("honest", "poisoned"):
        for qname in (FUZZ_DOMAIN, f"www.{FUZZ_DOMAIN}", DECOY_DOMAIN,
                      "nonexistent.example"):
            entries.append({"qname": qname, "resolver": resolver,
                            "qid": None})
    return entries


def tcp_seed_corpus() -> List[List]:
    """Segment schedules: ``[(stream_offset, payload_bytes), ...]``.

    Seeds are whole-payload single segments plus the paper's
    fragmented-GET segmentation of the canonical request.
    """
    schedules: List[List] = []
    for data in (
        _request_bytes(GetRequestSpec(domain=FUZZ_DOMAIN)),
        _request_bytes(GetRequestSpec(domain=DECOY_DOMAIN)),
        _request_bytes(GetRequestSpec(domain=FUZZ_DOMAIN))
        + _request_bytes(GetRequestSpec(domain=DECOY_DOMAIN)),
        _request_bytes(GetRequestSpec(
            domain=FUZZ_DOMAIN,
            trailing_raw=f"Host: {DECOY_DOMAIN}\r\n\r\n".encode("latin-1"))),
    ):
        schedules.append([(0, data)])
    # Fragmented GET: 8-byte segments, as the evasion engine sends it.
    data = _request_bytes(GetRequestSpec(domain=FUZZ_DOMAIN))
    schedules.append([(off, data[off:off + 8])
                      for off in range(0, len(data), 8)])
    return schedules


def session_seed_corpus() -> List[Dict]:
    """Session-table op schedules against bounded scenario boxes.

    Each entry carries the bounded box's configuration (the reference
    box is always the unbounded idealization) plus an op schedule:
    ``["open", slot]``, ``["get", slot, "blocked"|"decoy"]``,
    ``["close", slot]``, ``["idle", seconds]``.  The seeds cover each
    boundary behaviour the differential oracle knows how to explain.
    """
    return [
        # Plain censorship: both boxes agree everywhere.
        {"max_flows": 3, "overload": "fail-open", "eviction": "none",
         "residual": 0.0,
         "ops": [["open", 0], ["get", 0, "blocked"], ["close", 0]]},
        # Fail-closed overload: the third handshake is refused.
        {"max_flows": 2, "overload": "fail-closed", "eviction": "none",
         "residual": 0.0,
         "ops": [["open", 0], ["open", 1], ["open", 2],
                 ["get", 0, "blocked"]]},
        # Fail-open overload: the third flow passes uninspected.
        {"max_flows": 2, "overload": "fail-open", "eviction": "none",
         "residual": 0.0,
         "ops": [["open", 0], ["open", 1], ["open", 2],
                 ["get", 2, "blocked"]]},
        # LRU eviction: flow 0 silently loses its state.
        {"max_flows": 2, "overload": "fail-open", "eviction": "lru",
         "residual": 0.0,
         "ops": [["open", 0], ["open", 1], ["open", 2],
                 ["get", 0, "blocked"]]},
        # Residual window: blocked right after a verdict, clear after.
        {"max_flows": 6, "overload": "fail-open", "eviction": "none",
         "residual": 5.0,
         "ops": [["open", 0], ["get", 0, "blocked"], ["open", 1],
                 ["idle", 6.0], ["open", 2], ["get", 2, "decoy"]]},
        # Idle past the flow timeout: both boxes forget the flow.
        {"max_flows": 4, "overload": "fail-closed", "eviction": "none",
         "residual": 0.0,
         "ops": [["open", 0], ["idle", 200.0], ["get", 0, "blocked"]]},
    ]


def seed_corpus(target: str) -> List:
    if target in ("http", "diff"):
        return http_seed_corpus()
    if target == "dns":
        return dns_seed_corpus()
    if target == "tcp":
        return tcp_seed_corpus()
    if target == "session":
        return session_seed_corpus()
    raise ValueError(f"unknown fuzz target {target!r}")


# ---------------------------------------------------------------------------
# Corpus directories and fixtures
# ---------------------------------------------------------------------------

def load_corpus_dir(path: str, target: str) -> List:
    """Decoded entries for *target* from every ``*.json`` under *path*.

    Files are read in sorted name order so the corpus (and therefore
    the whole fuzz run) is deterministic.
    """
    entries: List = []
    if not os.path.isdir(path):
        return entries
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("target") != target:
            continue
        entries.append(decode_entry(target, payload["entry"]))
    return entries


def fixture_name(target: str, entry) -> str:
    """Content-addressed fixture filename (stable across runs)."""
    from .rng import derive_seed

    digest = derive_seed(target, repr(encode_entry(target, entry)))
    return f"{target}-{digest:016x}.json"


def write_fixture(directory: str, target: str, entry, *,
                  oracle: str = "", classification: str = "",
                  detail: str = "") -> str:
    """Persist a minimized reproducer as a replayable fixture."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, fixture_name(target, entry))
    payload = {
        "target": target,
        "entry": encode_entry(target, entry),
        "oracle": oracle,
        "classification": classification,
        "detail": detail,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_fixture(path: str) -> Dict:
    """One fixture file, entry decoded under ``"decoded"``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["decoded"] = decode_entry(payload["target"], payload["entry"])
    return payload
