"""Deterministic page content generation.

Bodies are synthesised from category vocabulary, seeded per domain, so
every fetch of a static page returns identical bytes — while dynamic
pages embed a vantage/time-dependent chunk, and parked (dead) pages
vary by serving region.  These are exactly the content behaviours that
generate OONI's false positives (section 6.2).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..httpsim.message import HTTPResponse, make_response
from .categories import FILLER_WORDS, category_words
from .corpus import Website

#: Memoized generated content.  Generation is a pure function of the
#: cache key (the RNGs are seeded from it), so memoization cannot
#: change a single byte served — it only skips regeneration.
#: ``tests/websites/test_content_memo.py`` holds every memoized page
#: equal to a fresh call of its ``_generate_*`` generator.
_body_cache: Dict[tuple, str] = {}
_parked_cache: Dict[tuple, str] = {}


def _words(rng: random.Random, pool, count: int) -> str:
    return " ".join(rng.choice(pool) for _ in range(count))


def _paragraphs(rng: random.Random, site: Website, size_target: int) -> str:
    pool = list(category_words(site.category)) + list(FILLER_WORDS)
    chunks = []
    total = 0
    while total < size_target:
        sentence = _words(rng, pool, rng.randrange(6, 14)).capitalize() + "."
        chunks.append(sentence)
        total += len(sentence) + 1
    return " ".join(chunks)


def static_body(site: Website) -> str:
    """The stable portion of a site's page (same from everywhere)."""
    # The key carries every attribute the output depends on (the RNG
    # seeds on the domain alone), so two Website objects that would
    # generate different bytes can never collide.
    key = (site.domain, site.page_style, site.title,
           site.body_size, site.category)
    cached = _body_cache.get(key)
    if cached is None:
        cached = _generate_static_body(site)
        _body_cache[key] = cached
    return cached


def _generate_static_body(site: Website) -> str:
    """Synthesize a site's body from scratch (:func:`static_body`'s
    memo miss)."""
    rng = random.Random(f"body|{site.domain}")
    if site.page_style == "redirect":
        return (
            f'<html><head><title>{site.title}</title>'
            f'<meta http-equiv="refresh" content="0; '
            f'url=http://{site.domain}/home"></head>'
            f"<body>Redirecting you to the main portal.</body></html>"
        )
    if site.page_style == "login":
        return (
            f"<html><head><title>{site.title}</title></head>"
            f'<body><form action="/login" method="post">'
            f'<input name="user"><input name="pass" type="password">'
            f"</form></body></html>"
        )
    text = _paragraphs(rng, site, site.body_size)
    return (
        f"<html><head><title>{site.title}</title></head>"
        f"<body><h1>{site.title}</h1><p>{text}</p></body></html>"
    )


def dynamic_chunk(site: Website, region: str, nonce: int) -> str:
    """Vantage- and time-dependent material (ads, live feeds).

    The chunk's *size* varies strongly with vantage and time — this is
    what breaks body-length comparisons for live-content sites
    (section 6.2's news-feed false positives).
    """
    rng = random.Random(f"dyn|{site.domain}|{region}|{nonce}")
    pool = list(FILLER_WORDS)
    feed = _words(rng, pool, rng.randrange(10, 140))
    return (
        f'<div class="live-feed" data-region="{region}" '
        f'data-serial="{nonce}">{feed}</div>'
    )


def rotating_headline(site: Website, region: str, nonce: int) -> str:
    """The headline-of-the-hour a live-content site puts in its title."""
    rng = random.Random(f"headline|{site.domain}|{region}|{nonce}")
    return _words(rng, list(FILLER_WORDS), 3).capitalize()


def page_response(site: Website, *, region: str = "us",
                  nonce: int = 0) -> HTTPResponse:
    """The full response an origin in *region* serves for *site*."""
    body = static_body(site)
    extra = list(site.extra_headers)
    if site.dynamic:
        body = body.replace(
            "</body></html>",
            dynamic_chunk(site, region, nonce) + "</body></html>",
        )
        # Live-content sites rotate their headline into the title and
        # emit per-request infrastructure headers whose *names* differ
        # between fetches (session cookie on alternate requests).
        headline = rotating_headline(site, region, nonce)
        body = body.replace(
            f"<title>{site.title}</title>",
            f"<title>{headline} | {site.title}</title>",
        )
        extra.append(("X-Request-Id", f"{region}-{nonce}"))
        if nonce % 2 == 1:
            extra.append(("Set-Cookie", f"live={nonce}; path=/"))
    if region != "us":
        # Regional serving infrastructure announces itself.
        extra.append(("Via", f"1.1 edge-{region}"))
    return make_response(200, body.encode("latin-1"),
                         extra_headers=tuple(extra))


#: Parking providers for dead domains.
PARKING_PROVIDERS: Tuple[str, ...] = ("parkzone", "domainlot")


def parked_response(domain: str, provider: str, region: str) -> HTTPResponse:
    """The page a parking provider serves for an expired domain.

    Different regions serve visibly different pages (localized ads),
    so comparing a direct fetch against a control fetch flags the site
    even though nothing is censored — OONI's GoDaddy false positive.
    """
    key = (domain, provider, region)
    body = _parked_cache.get(key)
    if body is None:
        body = _generate_parked_body(domain, provider, region)
        _parked_cache[key] = body
    extra = (("X-Adserver", f"pool-{region}"),) if region == "in" else ()
    return make_response(200, body.encode("latin-1"), extra_headers=extra)


def _generate_parked_body(domain: str, provider: str, region: str) -> str:
    """A parking page's HTML from scratch (:func:`parked_response`'s
    memo miss)."""
    rng = random.Random(f"park|{domain}|{provider}|{region}")
    # Localized parking pages differ in title, ad volume and header
    # names — enough to fail every one of OONI's similarity checks.
    ad_block = _words(rng, list(FILLER_WORDS), 25 if region == "in" else 150)
    if region == "in":
        title = f"Parked domain {domain} ({provider})"
    else:
        title = f"{domain} is parked at {provider}"
    return (
        f"<html><head><title>{title}</title></head>"
        f"<body><h1>{domain}</h1>"
        f"<p>This domain may be for sale.</p>"
        f'<div class="ads" data-region="{region}">{ad_block}</div>'
        f"</body></html>"
    )
