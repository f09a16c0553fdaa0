"""Page content from the generators alone, kept as a test-only
reference oracle for the content memo.

``repro.websites.content`` memoizes each generated page body and
parking page, keyed by everything the bytes depend on.  Inside
:func:`generated_content` both memos forget whatever they are given,
so every page comes fresh from its ``_generate_*`` generator: what the
memo must reproduce byte for byte.
"""

import contextlib

from repro.websites import content


class _Forgetful(dict):
    """A memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


@contextlib.contextmanager
def generated_content():
    """Serve every page from its generator while the block runs."""
    saved = content._body_cache, content._parked_cache
    content._body_cache, content._parked_cache = _Forgetful(), _Forgetful()
    try:
        yield
    finally:
        content._body_cache, content._parked_cache = saved
