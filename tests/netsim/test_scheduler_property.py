"""Properties of the event loop: order and the event budget.

``Network.run`` pops one heap of ``(when, seq, fn, args)`` entries, so
events run in ``(time, sequence number)`` order and the budget is
checked before each event.  The budget cases run on two queue layouts
(see :func:`schedule`): one where the time key alone decides the order
and one where every event shares a time and the sequence number
decides.  The campaign byte-identity guarantees rest on this order.

The module, class and case names and the layout ids ``heap`` and
``slots`` come from the suite that compared a slotted calendar queue
with the heap, before the calendar was deleted; they are kept so the
test ids stay stable.
"""

import pytest

from repro.netsim import Network
from repro.netsim.errors import SimulationError

#: The time every event shares in the ``"slots"`` layout.
SHARED_TIME = 1.0

#: ``"heap"``: distinct times pushed in reverse, so the heap's time key
#: orders them.  ``"slots"``: one shared time, so the sequence number
#: orders them.
LAYOUTS = ("heap", "slots")

#: An event this far ahead of the others waits behind all of them.
FAR_AHEAD = 10.0


def schedule(net, layout, count, fn):
    """Queue ``fn(0) .. fn(count - 1)`` to run in that order, at or
    before ``SHARED_TIME``."""
    if layout == "slots":
        for i in range(count):
            net.call_at(SHARED_TIME, fn, i)
    else:
        for i in reversed(range(count)):
            net.call_at(SHARED_TIME * (i + 1) / (count + 1), fn, i)


class TestSchedulerEquivalence:
    """The loop keeps the ``(time, seq)`` order for any queue shape."""

    def test_same_time_burst_preserves_fifo(self):
        net = Network()
        log = []
        for i in range(50):
            net.call_at(SHARED_TIME, log.append, i)
        net.run_until_idle()
        assert log == list(range(50))

    def test_far_future_overflow_round_trip(self):
        """Events far past the rest run last, in time order, and the
        clock ends at the farthest one."""
        whens = [FAR_AHEAD * 150, 0.5, FAR_AHEAD * 3, FAR_AHEAD + 0.25, 2.0]
        net = Network()
        log = []
        for i, when in enumerate(whens):
            net.call_at(when, log.append, i)
        net.run_until_idle()
        assert log == [1, 4, 3, 2, 0]
        assert net.now == FAR_AHEAD * 150
        assert net.pending_events == 0


@pytest.mark.parametrize("layout", LAYOUTS)
class TestEventBudget:
    """The budget bites after exactly ``max_events``."""

    def test_exactly_max_events_completes(self, layout):
        net = Network()
        ran = []
        schedule(net, layout, 7, ran.append)
        assert net.run_until_idle(max_events=7) == 7
        assert ran == list(range(7))
        assert net.events_processed == 7
        assert net.pending_events == 0

    def test_one_past_budget_raises_with_exactly_max_executed(self, layout):
        net = Network()
        ran = []
        schedule(net, layout, 8, ran.append)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=7)
        # The check runs *before* each event: 7 executed, never 8.
        assert ran == list(range(7))
        assert net.events_processed == 7
        assert net.pending_events == 1

    def test_budget_checked_inside_a_slot_batch(self, layout):
        """Ten events share one time behind three earlier ones; the
        drain must stop at the budget, not at the end of that batch."""
        net = Network()
        ran = []
        schedule(net, layout, 3, ran.append)
        for i in range(10):
            net.call_at(SHARED_TIME, ran.append, 10 + i)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=6)
        assert ran == [0, 1, 2, 10, 11, 12]
        assert net.events_processed == 6
        assert net.pending_events == 7

    def test_partial_progress_survives_a_blown_budget(self, layout):
        """After the budget raises, the remaining events are intact and
        a second run finishes them, with events_processed cumulative."""
        net = Network()
        ran = []
        schedule(net, layout, 6, ran.append)
        with pytest.raises(SimulationError):
            net.run_until_idle(max_events=3)
        assert net.run_until_idle(max_events=3) == 3
        assert ran == list(range(6))
        assert net.events_processed == 6

    def test_mid_drain_inserts_count_against_the_budget(self, layout):
        net = Network()
        count = [0]

        def chain(_):
            count[0] += 1
            net.call_later(0.0, chain, None)

        schedule(net, layout, 3, chain)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            net.run_until_idle(max_events=100)
        assert count[0] == 100
        assert net.events_processed == 100
