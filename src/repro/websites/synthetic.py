"""A lazily materialized, million-domain synthetic corpus.

The measured corpus (:mod:`repro.websites.corpus`) is 1,200 concrete
:class:`~repro.websites.corpus.Website` objects — the right shape for
deploying servers and probing them one by one, and the wrong shape for
asking "what does censorship look like across 10M user sessions in a
day?".  :class:`SyntheticCorpus` scales the same category-tagged model
to ~1M domains without ever holding a million objects: every attribute
of site *rank* is a pure function of ``(seed, rank)``, recomputed on
demand from a splitmix64-style integer mix.  Nothing is stored; a
corpus of a billion domains would occupy the same few hundred bytes.

Ranks double as popularity ranks (rank 0 is the most visited domain),
which is what lets :mod:`repro.population` sample browsing mixes with
a Zipf distribution directly over indices.

Blocking model: each ISP's master blocklist covers the same *fraction*
of this corpus as its Table 2 / Figure 2 list covers of the 1,200-site
PBW corpus, apportioned across categories proportionally to
:data:`~repro.websites.blocklists.CATEGORY_SENSITIVITY` (porn is
blocked almost everywhere, social media rarely).  Whether a given
domain is on a given ISP's list is a deterministic hash draw — the
same domain is on (or off) the list for every session that visits it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

from .blocklists import (CATEGORY_SENSITIVITY, DNS_BLOCKLIST_SIZES,
                         HTTP_BLOCKLIST_SIZES)
from .categories import CATEGORIES, FILLER_WORDS, TLDS

#: Default size of the synthetic corpus (the acceptance bar is >=100k;
#: the default population campaign uses the full million).
DEFAULT_SYNTHETIC_SIZE = 1_000_000

#: Size of the measured PBW corpus the per-ISP blocklist sizes refer
#: to; the synthetic blocklists keep the same *fractions*.
_PBW_SIZE = 1200

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Domain-separation salts for the independent per-rank draws.
_SALT_CATEGORY = 0xC0FFEE
_SALT_WORDS = 0x5EED5
_SALT_BLOCK = 0xB10C


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a fast, well-mixed 64-bit hash.

    Pure integer arithmetic — unlike ``hash(str)``, the result does not
    depend on ``PYTHONHASHSEED``, so corpora are identical across
    processes, workers and CI runs.
    """
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _salt_for(text: str) -> int:
    """A deterministic 64-bit salt from a short label (ISP names)."""
    acc = 0
    for byte in text.encode("utf-8"):
        acc = mix64(acc * 0x100 + byte + 1)
    return acc


#: Mean category sensitivity under the corpus category weights; the
#: normalizer that maps an ISP's overall blocklist fraction to its
#: per-category block probabilities.
_MEAN_SENSITIVITY = sum(weight * CATEGORY_SENSITIVITY[name]
                        for name, (weight, _) in CATEGORIES.items())

#: ISP -> fraction of the corpus on its master blocklist (Table 2 /
#: Figure 2 sizes over the 1,200-site PBW list).
MASTER_LIST_FRACTIONS: Dict[str, float] = {
    isp: size / _PBW_SIZE
    for isp, size in {**HTTP_BLOCKLIST_SIZES, **DNS_BLOCKLIST_SIZES}.items()
}


class SyntheticCorpus:
    """~1M category-tagged domains as pure functions of ``(seed, rank)``.

    No list of sites exists anywhere: :meth:`category_id`,
    :meth:`domain` and :meth:`in_master_list` recompute attributes from
    integer hashes on every call, so memory use is independent of
    ``size``.  All draws are domain-separated (category, name, and
    blocklist membership use distinct salts), so they are independent
    uniforms over the same rank.
    """

    __slots__ = ("seed", "size", "_seed_mix", "_cat_cdf", "_cat_names",
                 "_cat_words", "_block_p", "_isp_salts")

    def __init__(self, seed: int = 1808,
                 size: int = DEFAULT_SYNTHETIC_SIZE) -> None:
        if size <= 0:
            raise ValueError(f"corpus size must be positive, got {size}")
        self.seed = seed
        self.size = size
        self._seed_mix = mix64(seed * _GOLDEN + 1)
        self._cat_names: Tuple[str, ...] = tuple(CATEGORIES)
        self._cat_words = tuple(CATEGORIES[name][1]
                                for name in self._cat_names)
        # Cumulative category weights as integer thresholds on the
        # 64-bit hash, so category choice is one mix and one bisect.
        total = sum(CATEGORIES[name][0] for name in self._cat_names)
        cdf: List[int] = []
        acc = 0.0
        for name in self._cat_names:
            acc += CATEGORIES[name][0] / total
            cdf.append(min(_M64, int(acc * (1 << 64))))
        cdf[-1] = _M64
        self._cat_cdf = tuple(cdf)
        # Per-(ISP, category) master-list probabilities and per-ISP
        # hash salts, precomputed once.
        self._block_p: Dict[str, Tuple[float, ...]] = {}
        self._isp_salts: Dict[str, int] = {}
        for isp, fraction in MASTER_LIST_FRACTIONS.items():
            scale = fraction / _MEAN_SENSITIVITY
            self._block_p[isp] = tuple(
                min(1.0, CATEGORY_SENSITIVITY[name] * scale)
                for name in self._cat_names)
            self._isp_salts[isp] = _salt_for(isp)

    def __len__(self) -> int:
        return self.size

    # -- per-rank attributes (pure functions) ---------------------------

    def _uniform_bits(self, rank: int, salt: int) -> int:
        return mix64(self._seed_mix ^ mix64(rank * _GOLDEN + salt))

    def category_id(self, rank: int) -> int:
        # The first category whose threshold is >= the hash; the last
        # threshold is the largest 64-bit value, so one always is.
        return bisect_left(self._cat_cdf,
                           self._uniform_bits(rank, _SALT_CATEGORY))

    def category(self, rank: int) -> str:
        return self._cat_names[self.category_id(rank)]

    def domain(self, rank: int) -> str:
        """A readable, category-plausible, globally unique name.

        The rank is embedded in the name, so uniqueness needs no
        collision bookkeeping (the eager corpus's ``taken`` set would
        be a 1M-entry table here).
        """
        words = self._cat_words[self.category_id(rank)]
        bits = self._uniform_bits(rank, _SALT_WORDS)
        word = words[bits % len(words)]
        filler = FILLER_WORDS[(bits >> 16) % len(FILLER_WORDS)]
        tld = TLDS[(bits >> 32) % len(TLDS)]
        return f"{word}-{filler}-{rank}{tld}"

    def category_names(self) -> Tuple[str, ...]:
        return self._cat_names

    # -- blocking model -------------------------------------------------

    def block_probability(self, isp: str, category_id: int) -> float:
        """P(domain of this category is on the ISP's master list)."""
        probs = self._block_p.get(isp)
        if probs is None:
            return 0.0
        return probs[category_id]

    def in_master_list(self, isp: str, rank: int) -> bool:
        """Deterministic membership: a property of the domain, not a
        per-visit coin flip — every session that visits this rank sees
        the same verdict."""
        return self.listed_in_category(isp, rank, self.category_id(rank))

    def listed_in_category(self, isp: str, rank: int,
                           category_id: int) -> bool:
        """:meth:`in_master_list` for a caller that already holds
        ``category_id(rank)``, so the category hash runs once."""
        probs = self._block_p.get(isp)
        if probs is None:
            return False
        p = probs[category_id]
        if p <= 0.0:
            return False
        bits = self._uniform_bits(rank, _SALT_BLOCK ^ self._isp_salts[isp])
        return bits < int(p * (1 << 64))

    def master_list_fraction(self, isp: str) -> float:
        """Expected fraction of the corpus on the ISP's master list."""
        return MASTER_LIST_FRACTIONS.get(isp, 0.0)
