"""HTTP message model with byte-exact request crafting.

The anti-censorship techniques of section 5 work by manipulating the
*raw bytes* of a GET request (keyword case, whitespace around the Host
value, trailing pseudo-requests), so requests are modelled as a
:class:`GetRequestSpec` that renders to bytes with full control over
formatting, rather than as a dictionary of canonical headers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

CRLF = "\r\n"

#: Headers every browser-like request carries (besides Host).
DEFAULT_BROWSER_HEADERS: Sequence[Tuple[str, str]] = (
    ("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) repro/1.0"),
    ("Accept", "text/html,application/xhtml+xml"),
    ("Accept-Language", "en-US,en;q=0.5"),
    ("Connection", "close"),
)


@dataclass(frozen=True)
class GetRequestSpec:
    """A GET request with byte-level formatting control.

    Attributes mirror the knobs the paper's evasions turn:

    * ``host_keyword`` — ``"Host"`` by default; evasions send ``"HOst"``,
      ``"HOST"`` etc. (section 5-I).
    * ``host_pre_space`` — whitespace between ``:`` and the domain;
      evasions use two spaces or a tab (section 5-II, overt IM).
    * ``host_post_space`` — trailing whitespace after the domain.
    * ``trailing_raw`` — bytes appended *after* the request's final
      CRLF CRLF; the covert-IM evasion appends a fake
      ``Host: allowed.com`` pseudo-request there (section 5-II).
    * ``extra_host_lines`` — additional Host header lines inside the
      same request (duplicate-Host probing).
    """

    domain: str
    path: str = "/"
    method: str = "GET"
    version: str = "HTTP/1.1"
    host_keyword: str = "Host"
    host_pre_space: str = " "
    host_post_space: str = ""
    headers: Sequence[Tuple[str, str]] = DEFAULT_BROWSER_HEADERS
    extra_host_lines: Sequence[str] = ()
    trailing_raw: bytes = b""

    def host_line(self) -> str:
        """The rendered Host header line (without CRLF)."""
        return (
            f"{self.host_keyword}:{self.host_pre_space}"
            f"{self.domain}{self.host_post_space}"
        )

    def to_bytes(self) -> bytes:
        """Render the full on-the-wire request."""
        lines = [f"{self.method} {self.path} {self.version}"]
        lines.append(self.host_line())
        for extra in self.extra_host_lines:
            lines.append(extra)
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        raw = CRLF.join(lines).encode("latin-1") + b"\r\n\r\n"
        return raw + self.trailing_raw


@dataclass
class HTTPResponse:
    """An HTTP response: status line, headers and body."""

    status: int
    reason: str = ""
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    def header(self, name: str) -> Optional[str]:
        """First header value matching *name* case-insensitively."""
        wanted = name.lower()
        for header_name, value in self.headers:
            if header_name.lower() == wanted:
                return value
        return None

    def header_names(self) -> List[str]:
        """Header field names in order (values excluded) — what OONI
        compares when checking "HTTP header names match"."""
        return [name for name, _ in self.headers]

    @property
    def body_text(self) -> str:
        return self.body.decode("latin-1", errors="replace")

    def title(self) -> Optional[str]:
        """The HTML <title> contents, if any."""
        match = re.search(
            rb"<title[^>]*>(.*?)</title>", self.body, re.IGNORECASE | re.DOTALL
        )
        if match is None:
            return None
        return match.group(1).decode("latin-1", errors="replace").strip()

    def to_bytes(self) -> bytes:
        """Render the on-the-wire response."""
        headers = list(self.headers)
        if self.header("Content-Length") is None:
            headers.append(("Content-Length", str(len(self.body))))
        lines = [f"HTTP/1.1 {self.status} {self.reason}".rstrip()]
        for name, value in headers:
            lines.append(f"{name}: {value}")
        head = CRLF.join(lines).encode("latin-1") + b"\r\n\r\n"
        return head + self.body


#: Standard header set origin servers in the corpus emit.  Middlebox
#: notification pages deliberately mimic these names (section 6.2: OONI's
#: header-name comparison then matches, producing false negatives).
STANDARD_SERVER_HEADERS: Sequence[Tuple[str, str]] = (
    ("Date", "Mon, 06 Aug 2018 00:00:00 GMT"),
    ("Server", "nginx"),
    ("Content-Type", "text/html; charset=UTF-8"),
)


def make_response(
    status: int,
    body: bytes,
    *,
    reason: Optional[str] = None,
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> HTTPResponse:
    """Build a response with the standard server header set."""
    reasons = {200: "OK", 301: "Moved Permanently", 302: "Found",
               400: "Bad Request", 403: "Forbidden", 404: "Not Found"}
    return HTTPResponse(
        status=status,
        reason=reason if reason is not None else reasons.get(status, ""),
        headers=list(STANDARD_SERVER_HEADERS) + list(extra_headers),
        body=body,
    )


def parse_responses(raw: bytes) -> List[HTTPResponse]:
    """Parse a byte stream into the HTTP responses it contains.

    Lenient, Content-Length-driven framing; a trailing incomplete
    response is ignored (the client saw a truncated stream).
    """
    responses: List[HTTPResponse] = []
    rest = raw
    while rest.startswith(b"HTTP/"):
        head, sep, after = rest.partition(b"\r\n\r\n")
        if not sep:
            break
        lines = head.decode("latin-1", errors="replace").split(CRLF)
        status_parts = lines[0].split(" ", 2)
        try:
            status = int(status_parts[1])
        except (IndexError, ValueError):
            break
        reason = status_parts[2] if len(status_parts) > 2 else ""
        headers: List[Tuple[str, str]] = []
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                continue
            headers.append((name.strip(), value.strip()))
        response = HTTPResponse(status=status, reason=reason, headers=headers)
        length_text = response.header("Content-Length")
        length = int(length_text) if length_text and length_text.isdigit() else 0
        if len(after) < length:
            break
        response.body = after[:length]
        responses.append(response)
        rest = after[length:]
    return responses
