"""The paper's seven PBW categories, with word pools for synthesis.

Section 3: the 1,200-site corpus spans "escort services, pornography,
music, torrent sites, politics, tools and social networks".  Synthetic
domains and page text are generated from per-category word pools so
that corpora are deterministic, human-readable and category-plausible.
"""

from __future__ import annotations

from typing import Dict, Sequence

#: Category name -> (relative corpus weight, domain word pool).
CATEGORIES: Dict[str, tuple] = {
    "escort": (0.08, (
        "escort", "companion", "elite", "velvet", "night", "angel",
        "city", "date", "club", "vip",
    )),
    "porn": (0.34, (
        "adult", "xxx", "tube", "cam", "hot", "spice", "desire",
        "flame", "peach", "vixen",
    )),
    "music": (0.10, (
        "music", "song", "beat", "track", "remix", "dj", "tunes",
        "melody", "bass", "vibe",
    )),
    "torrent": (0.16, (
        "torrent", "seed", "leech", "magnet", "tracker", "pirate",
        "bay", "dump", "mirror", "rls",
    )),
    "politics": (0.14, (
        "truth", "voice", "nation", "dissent", "report", "watch",
        "press", "rights", "front", "leak",
    )),
    "tools": (0.10, (
        "proxy", "vpn", "unblock", "tunnel", "anon", "hide", "free",
        "bypass", "gate", "relay",
    )),
    "social": (0.08, (
        "social", "chat", "friend", "connect", "forum", "board",
        "circle", "meet", "share", "buzz",
    )),
}

#: Top-level domains used when synthesising names.
TLDS: Sequence[str] = (".com", ".net", ".org", ".info", ".xyz", ".to", ".in")

#: Generic filler vocabulary for page bodies.
FILLER_WORDS: Sequence[str] = (
    "stream", "online", "content", "latest", "update", "archive",
    "exclusive", "premium", "gallery", "download", "community",
    "trending", "featured", "daily", "weekly", "collection", "browse",
    "discover", "popular", "original", "verified", "unlimited",
)


def category_names() -> Sequence[str]:
    return tuple(CATEGORIES.keys())


def category_words(category: str) -> Sequence[str]:
    return CATEGORIES[category][1]
