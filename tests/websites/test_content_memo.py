"""The content memo is pure memoization.

Every page of a small world, served through the memo, is byte for byte
the page its generator makes fresh (``reference_content.py``), and so
is the page of a site that differs from a memoized one in a single
attribute the bytes depend on.
"""

import dataclasses

import pytest

from repro.dnssim.zones import REGIONS
from repro.websites.content import (PARKING_PROVIDERS, page_response,
                                    parked_response)

from .reference_content import generated_content

#: A static page is always served at nonce 0; a dynamic one counts
#: its fetches.
NONCES = (0, 1, 2)


def _site_pages(corpus):
    return [page_response(site, region=region, nonce=nonce).to_bytes()
            for site in corpus
            for region in REGIONS
            for nonce in NONCES]


def _parking_pages(corpus):
    return [parked_response(site.domain, provider, region).to_bytes()
            for site in corpus if site.is_dead
            for provider in PARKING_PROVIDERS
            for region in REGIONS]


@pytest.mark.parametrize("pages", [_site_pages, _parking_pages],
                         ids=["page_response", "parked_response"])
def test_memoized_pages_equal_generated_pages(small_world, pages):
    corpus = list(small_world.corpus)
    with generated_content():
        generated = pages(corpus)
    assert generated
    assert pages(corpus) == generated  # fills the memo
    assert pages(corpus) == generated  # served from it


def test_a_site_that_differs_in_one_attribute_gets_its_own_page(
        small_world):
    site = next(s for s in small_world.corpus
                if s.page_style == "full" and not s.dynamic)
    other_category = next(s.category for s in small_world.corpus
                          if s.category != site.category)
    variants = [
        site,
        dataclasses.replace(site, page_style="login"),
        dataclasses.replace(site, page_style="redirect"),
        dataclasses.replace(site, body_size=site.body_size * 2),
        dataclasses.replace(site, category=other_category),
    ]
    with generated_content():
        generated = [page_response(v).to_bytes() for v in variants]
    assert len(set(generated)) == len(variants)
    assert [page_response(v).to_bytes() for v in variants] == generated
