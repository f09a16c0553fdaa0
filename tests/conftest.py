"""Shared fixtures: session-scoped simulated worlds, armed captures,
the start method a campaign's workers use.

Building a world is cheap (~0.3 s) and fetching through it mutates no
structural state, so one small world serves most tests.  Tests that
need pristine timers isolate themselves by using fresh connections
(every fetch already does).  A host records packets only while its
capture is armed, so a test that reads a capture arms it first, with
the ``armed`` fixture or ``host.capture.armed()``.
"""

import contextlib
import multiprocessing

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


@pytest.fixture
def start_method(request):
    """Make ``request.param`` the default start method for one test, so
    a campaign's supervisor starts its workers with it; parametrize
    with ``indirect=True``."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(previous, force=True)
