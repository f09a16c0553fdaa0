"""Content comparison utilities.

The paper compares HTTP responses two different ways:

* OONI's ``web_connectivity`` rules — body-length proportion, header
  *names* equality, title-tag comparison (section 6.2);
* the authors' own approach — a difflib ratio over response *bodies*
  only, with threshold 0.3, followed by manual verification
  (section 3.4-II).

Both comparisons live here so the two detectors share one vocabulary.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from typing import Optional

from .message import HTTPResponse

#: The threshold the authors used for their body diff (section 3.1).
AUTHORS_DIFF_THRESHOLD = 0.3

#: OONI's body-length proportion threshold (web_connectivity.py).
OONI_BODY_PROPORTION_THRESHOLD = 0.7


def body_difference(a: bytes, b: bytes) -> float:
    """1 − difflib similarity ratio of two bodies (0 = identical).

    Equal bodies answer 0.0 without a matcher: difflib's longest block
    of a sequence against itself is all of it, so their ratio is 1.0.
    """
    if a == b:
        return 0.0
    matcher = SequenceMatcher(None,
                              a.decode("latin-1", "replace"),
                              b.decode("latin-1", "replace"))
    return 1.0 - matcher.ratio()


def body_length_proportion(a: Optional[HTTPResponse],
                           b: Optional[HTTPResponse]) -> float:
    """min(len)/max(len) of the two bodies — OONI's first check."""
    if a is None or b is None:
        return 0.0
    la, lb = len(a.body), len(b.body)
    if la == 0 and lb == 0:
        return 1.0
    longer = max(la, lb)
    if longer == 0:
        return 1.0
    return min(la, lb) / longer


def header_names_match(a: Optional[HTTPResponse],
                       b: Optional[HTTPResponse]) -> bool:
    """OONI's second check: the *sets of header field names* match."""
    if a is None or b is None:
        return False
    return (
        {name.lower() for name in a.header_names()}
        == {name.lower() for name in b.header_names()}
    )


def titles_comparable(a: Optional[HTTPResponse],
                      b: Optional[HTTPResponse]) -> bool:
    """OONI compares titles only when both exist and at least one word
    in each is >= 5 characters long (section 6.2)."""
    if a is None or b is None:
        return False
    title_a, title_b = a.title(), b.title()
    if title_a is None or title_b is None:
        return False
    has_long_a = any(len(word) >= 5 for word in title_a.split())
    has_long_b = any(len(word) >= 5 for word in title_b.split())
    return has_long_a and has_long_b


def titles_match(a: HTTPResponse, b: HTTPResponse) -> bool:
    """First-word title comparison, as OONI does."""
    words_a = (a.title() or "").split()
    words_b = (b.title() or "").split()
    if not words_a or not words_b:
        return False
    return words_a[0].lower() == words_b[0].lower()
