"""Session-table probes: recovering middlebox flow-state parameters
from the outside.

Three probers, none of which read the configuration back (the point is
that a vantage client can characterize a deployed box purely from
collateral behavior — see docs/SESSION_DYNAMICS.md):

* :func:`recover_flow_timeout` — binary-search refinement of the
  section 6.3 idle-timeout bracket down to a configurable resolution
  (±1 s by default), in the style of the evilfwprober tooling: open a
  real flow, idle exactly ``T``, send the censored GET, and classify
  whether the box still held state.
* :func:`probe_state_exhaustion` — ramp concurrent established flows
  toward a box and watch what happens to *new* flows once the session
  table fills: ``fail-open`` (new flows pass uninspected),
  ``fail-closed`` (new handshakes are reset), or ``evicting`` (old
  flows silently lose their state).
* :func:`probe_residual_window` — after provoking a censored verdict,
  measure how long fresh handshakes to the same destination stay
  blocked (the Turkmenistan-style residual-censorship window).

All three work on any object exposing ``.network`` plus a client
:class:`~repro.netsim.devices.Host` — the full simulated world or the
tiny scenario deployments the session-dynamics experiment builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...netsim.devices import Host
from ...netsim.packets import TCPFlags, make_tcp_packet
from .probes import CraftedFlow, censored_after_idle

#: Exhaustion classifications.
EXHAUST_FAIL_OPEN = "fail-open"
EXHAUST_FAIL_CLOSED = "fail-closed"
EXHAUST_EVICTING = "evicting"
EXHAUST_UNBOUNDED = "unbounded"
EXHAUST_NOT_OBSERVED = "not-observed"


# ---------------------------------------------------------------------------
# Binary-search idle-timeout recovery
# ---------------------------------------------------------------------------

@dataclass
class TimeoutRecovery:
    """Binary-search recovery of the flow-state idle timeout."""

    isp: str
    #: (idle seconds, censorship still observed) pairs, in probe order.
    probes: List[Tuple[float, bool]] = field(default_factory=list)
    #: Largest idle at which censorship still fired.
    lower: Optional[float] = None
    #: Smallest idle at which state was already purged.
    upper: Optional[float] = None

    @property
    def recovered(self) -> Optional[float]:
        """Midpoint estimate; None when no finite bracket was found."""
        if self.lower is None or self.upper is None:
            return None
        return (self.lower + self.upper) / 2.0

    @property
    def resolution(self) -> Optional[float]:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower


def recover_flow_timeout(
    world,
    client: Host,
    dst_ip: str,
    blocked_domain: str,
    *,
    isp: str = "",
    attempts: int = 4,
    initial: float = 60.0,
    max_idle: float = 960.0,
    resolution: float = 1.0,
) -> TimeoutRecovery:
    """Recover the idle timeout to ±``resolution/2`` without config access.

    Doubling from *initial* brackets the timeout (the paper's original
    candidate sweep), then bisection narrows the bracket below
    *resolution*.  The state holds exactly while ``idle <= timeout``,
    so the truth always lies inside ``[lower, upper)`` and the midpoint
    is within ±``resolution`` of it.
    """
    recovery = TimeoutRecovery(isp=isp)

    def censored(idle: float) -> bool:
        verdict = censored_after_idle(world, client, dst_ip,
                                      blocked_domain, idle, attempts)
        recovery.probes.append((idle, verdict))
        return verdict

    # Base case: no censorship on this path at all.
    if not censored(1.0):
        return recovery
    recovery.lower = 1.0

    idle = initial
    while idle <= max_idle:
        if not censored(idle):
            recovery.upper = idle
            break
        recovery.lower = idle
        idle *= 2.0
    if recovery.upper is None:
        return recovery  # state outlived max_idle: report the open bracket

    lo, hi = recovery.lower, recovery.upper
    while hi - lo > resolution:
        mid = (lo + hi) / 2.0
        if censored(mid):
            lo = mid
        else:
            hi = mid
    recovery.lower, recovery.upper = lo, hi
    return recovery


def _flush_probe_state(flow: CraftedFlow) -> None:
    """Inject a bare RST on *flow*'s 4-tuple after it is done.

    A box that answered the flow itself (covert reset, blackhole) left
    the client with nothing more to say, so the box's table entry for
    the dead flow would linger until the idle timeout — and silently
    occupy a slot, corrupting the exhaustion ramp's occupancy count.
    Explicitly resetting one's own probe flows is the standard prober
    hygiene; a RST for an already-forgotten flow is a no-op everywhere.
    """
    packet = make_tcp_packet(flow.client.ip, flow.dst_ip,
                             flow.conn.local_port, flow.dst_port,
                             seq=flow.conn.snd_nxt, flags=TCPFlags.RST)
    flow.client.send_packet(packet)
    flow.network.run(until=flow.network.now + 0.05)


# ---------------------------------------------------------------------------
# State-exhaustion probe
# ---------------------------------------------------------------------------

@dataclass
class ExhaustionReport:
    """What ramping concurrent handshakes revealed about the table."""

    isp: str
    #: "fail-open" | "fail-closed" | "evicting" | "unbounded" |
    #: "not-observed"
    classification: str = EXHAUST_NOT_OBSERVED
    #: Established flows held open when the boundary behavior appeared
    #: (None when no boundary was found below the ramp limit).
    capacity: Optional[int] = None
    #: Handshakes attempted over the whole ramp.
    handshakes: int = 0


def probe_state_exhaustion(
    world,
    client: Host,
    dst_ip: str,
    blocked_domain: str,
    *,
    isp: str = "",
    max_probe: int = 64,
    attempts: int = 3,
) -> ExhaustionReport:
    """Ramp concurrent flows and classify the table's overload behavior.

    Holder flows are opened silently (never probed, so they stay
    uncensored and keep their table slots); after each, a short-lived
    canary flow sends the censored GET.  The first canary that draws no
    censorship marks the capacity: either its handshake was reset
    (fail-closed) or it completed but passed uninspected (fail-open).
    If the ramp never finds a boundary, a final probe on the *oldest*
    holder distinguishes silent eviction from a genuinely unbounded
    table.
    """
    report = ExhaustionReport(isp=isp)
    holders: List[CraftedFlow] = []
    try:
        while len(holders) < max_probe:
            holder = CraftedFlow(world, client, dst_ip)
            report.handshakes += 1
            if not holder.open():
                report.classification = EXHAUST_FAIL_CLOSED
                report.capacity = len(holders)
                return report
            holders.append(holder)
            censored = False
            for _ in range(attempts):
                canary = CraftedFlow(world, client, dst_ip)
                report.handshakes += 1
                if not canary.open():
                    report.classification = EXHAUST_FAIL_CLOSED
                    report.capacity = len(holders)
                    return report
                observation = canary.probe_and_observe(blocked_domain,
                                                       duration=0.8)
                canary.close()
                _flush_probe_state(canary)
                if observation.censored:
                    censored = True
                    break
            if not censored:
                report.classification = EXHAUST_FAIL_OPEN
                report.capacity = len(holders)
                return report
        # No boundary below the ramp limit: is the oldest flow's state
        # still alive, or was it silently flushed to make room?
        observation = holders[0].probe_and_observe(blocked_domain,
                                                   duration=0.8)
        report.classification = (EXHAUST_UNBOUNDED if observation.censored
                                 else EXHAUST_EVICTING)
        return report
    finally:
        for holder in holders:
            holder.close()


# ---------------------------------------------------------------------------
# Residual-censorship window probe
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Measured residual-censorship window after a censored verdict."""

    isp: str
    #: Whether a fresh handshake right after the verdict was blocked.
    observed: bool = False
    #: Largest post-verdict delay at which fresh flows were blocked.
    lower: Optional[float] = None
    #: Smallest post-verdict delay at which fresh flows went through.
    upper: Optional[float] = None

    @property
    def window(self) -> Optional[float]:
        if not self.observed or self.upper is None or self.lower is None:
            return None
        return (self.lower + self.upper) / 2.0


def probe_residual_window(
    world,
    client: Host,
    dst_ip: str,
    blocked_domain: str,
    *,
    isp: str = "",
    initial: float = 2.0,
    max_window: float = 480.0,
    resolution: float = 1.0,
) -> ResidualReport:
    """Measure how long the tuple stays blocked after a verdict.

    One verdict arms one window, so the coarse bracket rides a single
    window (delays only ever grow within it) and each bisection step
    provokes a fresh verdict, waits exactly the midpoint delay, and
    tries a fresh handshake.  A blocked step waits out the known upper
    bound before the next verdict so windows never overlap.
    """
    network = world.network
    report = ResidualReport(isp=isp)

    def verdict() -> Optional[float]:
        """Provoke a censored verdict; returns its (client-side) time."""
        flow = CraftedFlow(world, client, dst_ip)
        if not flow.open():
            return None
        moment = network.now
        flow.probe_and_observe(blocked_domain, duration=0.8)
        flow.close()
        return moment

    def fresh_blocked() -> bool:
        attempt = CraftedFlow(world, client, dst_ip)
        connected = attempt.open()
        attempt.close()
        return not connected

    start = verdict()
    if start is None:
        return report
    network.run(until=start + initial)
    if not fresh_blocked():
        return report  # no residual censorship at all
    report.observed = True
    # The sample point is when the attempt's SYN left the client — a
    # blocked open() then burns sim time draining timers, so "now"
    # after the attempt would overstate the delay by seconds.
    lo = initial

    # Coarse doubling inside the first window.
    hi: Optional[float] = None
    delay = max(initial * 2.0, (network.now - start) + resolution)
    while delay <= max_window:
        network.run(until=max(start + delay, network.now))
        probed_at = network.now - start
        if fresh_blocked():
            lo = probed_at
            delay = max(delay * 2.0, (network.now - start) + resolution)
        else:
            hi = probed_at
            break
    if hi is None:
        report.lower = lo
        return report  # window outlived max_window: open bracket

    # Bisection, one fresh verdict (and window) per step.
    while hi - lo > resolution:
        mid = (lo + hi) / 2.0
        anchor = verdict()
        if anchor is None:
            break
        network.run(until=anchor + mid)
        if fresh_blocked():
            lo = mid
            # Wait out the rest of this window before the next verdict.
            network.run(until=max(anchor + hi + resolution, network.now))
        else:
            hi = mid
    report.lower, report.upper = lo, hi
    return report
