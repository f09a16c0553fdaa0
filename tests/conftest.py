"""Shared fixtures: session-scoped simulated worlds, armed captures.

Building a world is cheap (~0.3 s) and fetching through it mutates no
structural state, so one small world serves most tests.  Tests that
need pristine timers isolate themselves by using fresh connections
(every fetch already does).  A host records packets only while its
capture is armed, so a test that reads a capture arms it first, with
the ``armed`` fixture or ``host.capture.armed()``.
"""

import contextlib

import pytest

from repro.isps import build_world

SMALL_SCALE = 0.15
SMALL_SEED = 1808


@pytest.fixture(scope="session")
def small_world():
    return build_world(seed=SMALL_SEED, scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def full_world():
    """Full-size world for tests needing realistic coverage statistics."""
    return build_world(seed=SMALL_SEED, scale=1.0)


@pytest.fixture
def armed():
    """``armed(*hosts)`` opens a capture window on each host that stays
    open for the rest of the test."""
    with contextlib.ExitStack() as windows:
        def arm(*hosts):
            for host in hosts:
                windows.enter_context(host.capture.armed())

        yield arm
