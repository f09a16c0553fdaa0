"""The synthetic PBW corpus.

1,200 potentially-blocked websites mirroring the paper's list, each
with the hosting attributes that make censorship measurement hard:

* ``hosting`` — ``normal`` (one origin), ``cdn`` (region-dependent
  addresses), ``shared`` (several sites on one address), or ``dead``
  (a parked domain whose parking page varies by vantage; the paper
  notes ISPs keep blocking such sites — stale blocklists, section 6.3);
* ``dynamic`` — the body embeds location/time-varying material (live
  feeds, ads) that fools body-diff detectors (section 6.2);
* ``page_style`` — ``full`` pages, bare ``redirect`` stubs, or tiny
  ``login`` pages (the small-body responses behind OONI's false
  negatives, section 6.2);
* ``extra_headers`` — sites whose header *names* go beyond the
  standard set; sites without extras share their header-name set with
  middlebox block pages, another OONI false-negative source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .categories import (
    CATEGORIES,
    FILLER_WORDS,
    TLDS,
    category_words,
)

DEFAULT_CORPUS_SEED = 1808
DEFAULT_CORPUS_SIZE = 1200

#: Hosting mix (fractions of the corpus).
HOSTING_MIX: Sequence[Tuple[str, float]] = (
    ("normal", 0.72),
    ("cdn", 0.12),
    ("shared", 0.08),
    ("dead", 0.08),
)

#: Page-style mix.
PAGE_STYLE_MIX: Sequence[Tuple[str, float]] = (
    ("full", 0.80),
    ("redirect", 0.12),
    ("login", 0.08),
)

FRACTION_DYNAMIC = 0.10
FRACTION_EXTRA_HEADERS = 0.65
#: Sites served over HTTPS (their port-80 presence only redirects).
FRACTION_HTTPS = 0.05

_EXTRA_HEADER_POOL: Sequence[Tuple[str, str]] = (
    ("X-Powered-By", "PHP/7.2.19"),
    ("Cache-Control", "max-age=600"),
    ("Set-Cookie", "session=opaque; path=/"),
    ("Vary", "Accept-Encoding"),
    ("ETag", '"5b67d2-1a2b"'),
    ("X-Frame-Options", "SAMEORIGIN"),
)


@dataclass(frozen=True)
class Website:
    """One potentially-blocked website."""

    site_id: int
    domain: str
    category: str
    hosting: str = "normal"
    page_style: str = "full"
    dynamic: bool = False
    extra_headers: Tuple[Tuple[str, str], ...] = ()
    body_size: int = 1200
    #: Served over TLS; the HTTP side is a bare redirect to https://.
    https: bool = False

    @property
    def is_dead(self) -> bool:
        return self.hosting == "dead"

    @property
    def title(self) -> str:
        """Deterministic page title (>=5-char words, so OONI's title
        comparison is armed for genuine pages)."""
        stem = self.domain.split(".")[0]
        return f"{stem.capitalize()} {self.category.capitalize()} Portal"


def _pick_weighted(rng: random.Random,
                   mix: Sequence[Tuple[str, float]]) -> str:
    roll = rng.random()
    cumulative = 0.0
    for value, weight in mix:
        cumulative += weight
        if roll < cumulative:
            return value
    return mix[-1][0]


def _make_domain(rng: random.Random, category: str,
                 taken: set) -> str:
    words = category_words(category)
    for _ in range(1000):
        first = rng.choice(words)
        second = rng.choice(FILLER_WORDS)
        style = rng.randrange(3)
        if style == 0:
            stem = f"{first}{second}"
        elif style == 1:
            stem = f"{first}-{second}"
        else:
            stem = f"{first}{second}{rng.randrange(10, 99)}"
        domain = stem + rng.choice(TLDS)
        if domain not in taken:
            taken.add(domain)
            return domain
    raise RuntimeError("domain namespace exhausted")


def build_corpus(
    seed: int = DEFAULT_CORPUS_SEED,
    size: int = DEFAULT_CORPUS_SIZE,
) -> List[Website]:
    """Generate the deterministic PBW corpus."""
    rng = random.Random(seed)
    taken: set = set()
    sites: List[Website] = []

    category_order: List[str] = []
    for category, (weight, _) in CATEGORIES.items():
        category_order.extend([category] * max(1, round(weight * size)))
    rng.shuffle(category_order)
    category_order = category_order[:size]
    while len(category_order) < size:
        category_order.append(rng.choice(list(CATEGORIES)))

    for site_id, category in enumerate(category_order):
        hosting = _pick_weighted(rng, HOSTING_MIX)
        page_style = _pick_weighted(rng, PAGE_STYLE_MIX)
        dynamic = rng.random() < FRACTION_DYNAMIC and hosting != "dead"
        extras: Tuple[Tuple[str, str], ...] = ()
        if rng.random() < FRACTION_EXTRA_HEADERS:
            count = rng.randrange(1, 4)
            extras = tuple(rng.sample(list(_EXTRA_HEADER_POOL), count))
        body_size = rng.randrange(500, 3200)
        if page_style in ("redirect", "login"):
            body_size = rng.randrange(120, 380)
        https = rng.random() < FRACTION_HTTPS and hosting == "normal"
        sites.append(Website(
            https=https,
            site_id=site_id,
            domain=_make_domain(rng, category, taken),
            category=category,
            hosting=hosting,
            page_style=page_style,
            dynamic=dynamic,
            extra_headers=extras,
            body_size=body_size,
        ))
    return sites


@dataclass
class Corpus:
    """The corpus plus lookup indexes."""

    sites: List[Website]
    by_domain: Dict[str, Website] = field(init=False)

    def __post_init__(self) -> None:
        self.by_domain = {site.domain: site for site in self.sites}

    @classmethod
    def build(cls, seed: int = DEFAULT_CORPUS_SEED,
              size: int = DEFAULT_CORPUS_SIZE) -> "Corpus":
        return cls(sites=build_corpus(seed, size))

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def get(self, domain: str) -> Optional[Website]:
        return self.by_domain.get(domain)

    def domains(self) -> List[str]:
        return [site.domain for site in self.sites]

    def in_category(self, category: str) -> List[Website]:
        return [site for site in self.sites if site.category == category]
