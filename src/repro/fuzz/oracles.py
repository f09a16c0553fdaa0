"""Fuzzing oracles: parser invariants and the differential oracle.

The differential oracle is the heart of the campaign.  For every
mutant byte stream it computes two verdicts:

* **server-parse** — would a lenient RFC-2616 origin serve the blocked
  domain for this stream?  (``httpsim.parsing``)
* **middlebox-match** — would each deployed matching discipline fire?
  (``middlebox.triggers.TriggerSpec``)

and asserts that every disagreement is a *known evasion class*: the
Table-4 catalog (keyword case, value whitespace, last-host decoy,
www alias) plus the classes the fuzzer itself surfaced (keyword
padding, exotic whitespace, 400-answered units the box still matched).
A disagreement no classifier explains is a finding — either a new
evasion the model does not document, or a parser bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..httpsim.parsing import (
    ParsedRequest,
    parse_request_unit,
    split_request_units,
)
from ..middlebox.triggers import TriggerSpec
from .corpus import FUZZ_DOMAIN

BLOCKLIST = frozenset({FUZZ_DOMAIN})

#: The three matching disciplines deployed in ``isps.builder`` (wiretap,
#: overt interceptive, covert interceptive) plus a fully strict box, so
#: the oracle covers the whole knob lattice the simulator can build.
DISCIPLINES: Dict[str, TriggerSpec] = {
    "wiretap": TriggerSpec(
        blocklist=BLOCKLIST,
        exact_keyword_case=True,
        strict_value_whitespace=False,
        inspect_last_host_only=False,
        match_www_alias=False,
    ),
    "overt-im": TriggerSpec(
        blocklist=BLOCKLIST,
        exact_keyword_case=False,
        strict_value_whitespace=True,
        inspect_last_host_only=False,
        match_www_alias=True,
    ),
    "covert-im": TriggerSpec(
        blocklist=BLOCKLIST,
        exact_keyword_case=False,
        strict_value_whitespace=False,
        inspect_last_host_only=True,
        match_www_alias=True,
    ),
    "strict": TriggerSpec(
        blocklist=BLOCKLIST,
        exact_keyword_case=True,
        strict_value_whitespace=True,
        inspect_last_host_only=False,
        match_www_alias=False,
    ),
}

#: Fully lenient reference discipline: if even this one misses while the
#: server parses a blocked Host, a byte-level detector must explain why.
_LENIENT = TriggerSpec(
    blocklist=BLOCKLIST,
    exact_keyword_case=False,
    strict_value_whitespace=False,
    inspect_last_host_only=False,
    match_www_alias=True,
)

#: Knob relaxations and the Table-4 evasion class each one names.
_KNOB_CLASSES: Tuple[Tuple[str, object, str], ...] = (
    ("exact_keyword_case", False, "keyword-case"),
    ("strict_value_whitespace", False, "value-whitespace"),
    ("inspect_last_host_only", False, "last-host-decoy"),
    ("match_www_alias", True, "www-alias"),
)


@dataclass
class DiffResult:
    """Per-mutant differential verdicts."""

    #: ``class name -> count`` of *explained* disagreements.
    classes: Dict[str, int] = field(default_factory=dict)
    #: Unexplained disagreements: ``(oracle, detail)``.
    violations: List[Tuple[str, str]] = field(default_factory=list)

    def note(self, cls: str) -> None:
        self.classes[cls] = self.classes.get(cls, 0) + 1


# ---------------------------------------------------------------------------
# Invariant oracle (http target)
# ---------------------------------------------------------------------------

def check_http_invariants(data: bytes) -> Optional[Tuple[str, str]]:
    """Split/parse invariants for one byte stream.

    Returns ``(oracle, detail)`` on the first violated invariant, or
    None.  Parser exceptions are caught by the engine and reported as
    ``oracle="exception"`` — here we check the *semantics*.
    """
    units = split_request_units(data)
    if b"".join(units) != data:
        return ("split-lossless", "unit concatenation != original stream")
    for unit in units[:-1]:
        if not unit.endswith(b"\r\n\r\n"):
            return ("split-terminator",
                    "non-final unit lacks CRLFCRLF terminator")
        if unit.count(b"\r\n\r\n") != 1:
            return ("split-terminator", "unit contains interior terminator")
    for unit in units:
        if split_request_units(unit) != [unit]:
            return ("split-stable", "re-splitting a unit changed it")
    parsed = [parse_request_unit(unit) for unit in units]
    if len(parsed) != len(units):
        return ("parse-count", "parsed unit count != split unit count")
    for unit, request in zip(units, parsed):
        if request.raw != unit:
            return ("parse-raw", "ParsedRequest.raw != input unit")
        if request.malformed is None:
            problem = _check_wellformed(unit, request)
            if problem is not None:
                return problem
    return None


def _check_wellformed(unit: bytes, request: ParsedRequest
                      ) -> Optional[Tuple[str, str]]:
    if not request.method or not request.version:
        return ("parse-fields", "well-formed unit missing method/version")
    if request.version == "HTTP/1.1" and request.host is None:
        return ("parse-fields", "well-formed HTTP/1.1 unit without Host")
    canonical = _canonicalize(request)
    again = parse_request_unit(canonical)
    if again.malformed is not None:
        return ("canonical-reparse",
                f"canonical form became malformed: {again.malformed}")
    if (again.method, again.path, again.version, again.headers) != (
            request.method, request.path, request.version, request.headers):
        return ("canonical-reparse", "canonical form parsed differently")
    return None


def _canonicalize(request: ParsedRequest) -> bytes:
    lines = [f"{request.method} {request.path} {request.version}"]
    lines.extend(f"{name}: {value}" for name, value in request.headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# ---------------------------------------------------------------------------
# Differential oracle (diff target)
# ---------------------------------------------------------------------------

def server_serves_blocked(parsed: List[ParsedRequest]) -> bool:
    """Would the origin serve blocked content for any unit?

    Virtual-host lookup is case-insensitive at DNS level and the origin
    answers ``www.<domain>`` from the bare domain's handler, so both
    count as serving the blocked site.
    """
    for request in parsed:
        if request.malformed is not None:
            continue
        host = (request.host or "").lower()
        if host in BLOCKLIST or (host.startswith("www.")
                                 and host[4:] in BLOCKLIST):
            return True
    return False


def diff_http(data: bytes) -> DiffResult:
    """Run every discipline against the server parse of *data*."""
    result = DiffResult()
    units = split_request_units(data)
    parsed = [parse_request_unit(unit) for unit in units]
    blocked = server_serves_blocked(parsed)
    for name, spec in DISCIPLINES.items():
        matched = spec.matched_domain(data) is not None
        if matched == blocked:
            continue
        if blocked and not matched:
            cls = classify_evasion(spec, data, units, parsed)
            kind = "evasion"
        else:
            cls = classify_overmatch(spec, units, parsed)
            kind = "overmatch"
        if cls is None:
            result.violations.append((
                f"diff-{kind}",
                f"{name}: server_blocked={blocked} box_matched={matched} "
                f"— no known evasion class explains it",
            ))
        else:
            result.note(cls)
    return result


def classify_evasion(spec: TriggerSpec, data: bytes,
                     units: List[bytes], parsed: List[ParsedRequest]
                     ) -> Optional[str]:
    """Name the class of 'server serves it, box missed it'.

    First try the knob lattice: the smallest set of matching-discipline
    relaxations that would have caught this stream names the evasion
    (Table 4 generalized).  If even the fully lenient box misses, look
    for the byte-level asymmetries the fuzzer surfaced: whitespace
    around the ``Host`` keyword itself, and exotic whitespace (VT, FF,
    NBSP, lone CR) that Python's ``str.strip`` eats server-side but a
    ``strip(" \\t")`` matcher does not.
    """
    relaxable = [(knob, value, cls) for knob, value, cls in _KNOB_CLASSES
                 if getattr(spec, knob) != value]
    for size in range(1, len(relaxable) + 1):
        for combo in itertools.combinations(relaxable, size):
            relaxed = TriggerSpec(
                blocklist=spec.blocklist,
                **{
                    knob: dict((k, v) for k, v, _ in combo).get(
                        knob, getattr(spec, knob))
                    for knob, _, _ in _KNOB_CLASSES
                },
            )
            if relaxed.matched_domain(data) is not None:
                return "+".join(sorted(cls for _, _, cls in combo))
    return _classify_byte_level(units, parsed)


def _classify_byte_level(units: List[bytes], parsed: List[ParsedRequest]
                         ) -> Optional[str]:
    for unit, request in zip(units, parsed):
        if request.malformed is not None:
            continue
        host = (request.host or "").lower()
        if host not in BLOCKLIST and not (host.startswith("www.")
                                          and host[4:] in BLOCKLIST):
            continue
        text = unit.decode("latin-1")
        for line in text.split("\r\n"):
            name, colon, rest = line.partition(":")
            if not colon or name.strip().lower() != "host":
                continue
            if rest.strip().lower() != host:
                continue
            if name.strip() != name:
                # "Host :" / " Host:" — the server's token strip
                # accepts it; every box compares the keyword with the
                # padding included.
                return "keyword-padding"
            if rest.strip() != rest.strip(" \t"):
                # VT/FF/NBSP/CR around the value: whitespace to the
                # server, payload bytes to the box.
                return "value-exotic-whitespace"
    return None


def classify_overmatch(spec: TriggerSpec, units: List[bytes],
                       parsed: List[ParsedRequest]) -> Optional[str]:
    """Name the class of 'box matched, server never served it'.

    The box has no HTTP framing, so it happily matches Host lines
    inside units the server answers with 400.
    """
    unit_spec = TriggerSpec(
        blocklist=spec.blocklist,
        exact_keyword_case=spec.exact_keyword_case,
        strict_value_whitespace=spec.strict_value_whitespace,
        inspect_last_host_only=False,
        match_www_alias=spec.match_www_alias,
    )
    fallback = None
    for unit, request in zip(units, parsed):
        if unit_spec.matched_domain(unit) is None:
            continue
        if request.malformed == "duplicate-host":
            return "duplicate-host-400"
        if request.malformed is not None:
            fallback = "matched-malformed-unit"
    return fallback
