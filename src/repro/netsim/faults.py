"""Deterministic, seeded fault injection for the network simulator.

The paper's measurements fight an unreliable substrate throughout:
wiretap middleboxes *lose races* with genuine replies, probes have to be
repeated "a series" of times per TTL (section 3.2), and resolvers or
whole vantages drop out mid-campaign.  The seed simulator modelled a
perfect network, so none of the resilience logic those conditions force
was ever exercised.  This module supplies the imperfection:

* **Link faults** — per-link packet loss, duplication, reordering jitter
  and scheduled up/down flaps, applied at every forwarding hop.
* **Resolver faults** — recursive resolvers that silently drop a
  fraction of queries or answer them late.
* **Middlebox faults** — censorship boxes that intermittently fail to
  inspect a packet at all (on top of the race-miss model they already
  have), standing in for overloaded DPI hardware.

Everything is driven by :class:`FaultInjector`, which derives one
independent ``random.Random`` stream per scope (per link, per resolver,
per middlebox) from a single integer seed.  Python seeds ``Random`` from
strings via SHA-512, so the streams are stable across processes and
independent of ``PYTHONHASHSEED`` — the same fault seed always yields
byte-identical packet schedules, which is what lets chaos tests assert
exact reproducibility.

:class:`HardeningPolicy` is the counterpart knob set for *consumers*:
how many times DNS and HTTP clients retry, whether TCP retransmits,
how many probes the tracers send per TTL.  ``NO_HARDENING`` reproduces
the seed repo's single-shot behaviour and is what regression tests use
to prove the hardening actually matters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Spacing added to a duplicated copy so it trails the original.
DUPLICATE_GAP = 0.0003


def link_key(a: str, b: str) -> str:
    """Canonical unordered key for the link between nodes *a* and *b*."""
    lo, hi = sorted((a, b))
    return f"{lo}|{hi}"


@dataclass(frozen=True)
class LinkFaults:
    """Fault parameters for one (or the default) link.

    Args:
        loss: probability a transiting packet is silently dropped.
        duplicate: probability a second copy is delivered shortly after
            the original.
        jitter: maximum extra one-way delay, drawn uniformly from
            ``[0, jitter]`` — enough to reorder packets whose spacing is
            below it.
        flaps: ``(down_from, up_at)`` windows of virtual time during
            which the link drops everything (scheduled outages).
    """

    loss: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    flaps: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        for window in self.flaps:
            if len(window) != 2 or window[0] >= window[1]:
                raise ValueError(f"flap window must be (down, up): {window}")

    @property
    def active(self) -> bool:
        return bool(self.loss or self.duplicate or self.jitter or self.flaps)

    def down_at(self, now: float) -> bool:
        """Is the link inside a scheduled outage window at *now*?"""
        return any(start <= now < end for start, end in self.flaps)


@dataclass(frozen=True)
class ResolverFaults:
    """Fault parameters for a recursive resolver.

    Args:
        drop_rate: probability an incoming query is silently discarded.
        slow_rate: probability the answer is delayed by ``slow_delay``
            (long enough to blow a single-shot client timeout).
        slow_delay: extra virtual seconds added to a slow answer.
    """

    drop_rate: float = 0.0
    slow_rate: float = 0.0
    slow_delay: float = 1.5

    def __post_init__(self) -> None:
        for name in ("drop_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    @property
    def active(self) -> bool:
        return bool(self.drop_rate or self.slow_rate)


@dataclass(frozen=True)
class MiddleboxFaults:
    """Fault parameters for censorship middleboxes.

    Args:
        blind_rate: probability a box fails to inspect a given packet
            at all (it is forwarded/copied untouched).  Models DPI
            hardware shedding load — distinct from the wiretap race
            misses, which depend on reply timing.
    """

    blind_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.blind_rate <= 1.0:
            raise ValueError(
                f"blind_rate must be a probability, got {self.blind_rate}"
            )

    @property
    def active(self) -> bool:
        return bool(self.blind_rate)


@dataclass(frozen=True)
class HardeningPolicy:
    """How aggressively measurement clients fight an unreliable network.

    The defaults are what experiments run with once faults are enabled;
    :data:`NO_HARDENING` reproduces the seed repo's single-shot clients
    and exists so regression tests can show the difference.
    """

    #: UDP DNS query attempts (total, not extra) and backoff schedule.
    dns_attempts: int = 4
    dns_backoff_base: float = 0.25
    dns_backoff_factor: float = 2.0
    #: Full HTTP/HTTPS fetch attempts (connect + request) and backoff.
    fetch_attempts: int = 3
    fetch_backoff_base: float = 0.25
    fetch_backoff_factor: float = 2.0
    #: TCP-layer retransmission (SYN, data and SYN|ACK segments).
    tcp_retransmit: bool = True
    max_retransmits: int = 6
    retransmit_interval: float = 0.4
    #: Experiment flows web_connectivity spends before believing an
    #: "accessible" verdict.  One lossy flow can slip past a stateful
    #: censor (a lost handshake ACK desynchronises its flow table), so
    #: an anomaly-free comparison is re-confirmed on a fresh flow.
    ooni_confirm_trials: int = 2
    #: Probes per TTL for UDP traceroute.
    traceroute_probes_per_hop: int = 3
    #: Multiplier on ``attempts_per_ttl`` for the iterative tracers, so
    #: "lossy silence" needs proportionally more evidence before it is
    #: read as "censored silence".
    trace_attempt_scale: int = 3

    def __post_init__(self) -> None:
        for name in ("dns_attempts", "fetch_attempts",
                     "ooni_confirm_trials",
                     "traceroute_probes_per_hop", "trace_attempt_scale"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def dns_backoff(self, attempt: int) -> float:
        """Pause before retry number *attempt* (first retry = 1)."""
        return self.dns_backoff_base * self.dns_backoff_factor ** (attempt - 1)

    def fetch_backoff(self, attempt: int) -> float:
        return self.fetch_backoff_base * self.fetch_backoff_factor ** (attempt - 1)


#: Seed-repo behaviour: one shot at everything, no TCP retransmission.
NO_HARDENING = HardeningPolicy(
    dns_attempts=1,
    fetch_attempts=1,
    tcp_retransmit=False,
    ooni_confirm_trials=1,
    traceroute_probes_per_hop=1,
    trace_attempt_scale=1,
)

#: Default hardening applied when faults are installed without an
#: explicit policy.
DEFAULT_HARDENING = HardeningPolicy()


@dataclass(frozen=True)
class FaultPlan:
    """A complete, declarative description of every injected fault.

    A plan is pure data: the same plan plus the same seed always
    produces the same packet-level schedule.  Links and resolvers fall
    back to their ``*_default`` entry when no specific override exists.
    """

    seed: int = 0
    default_link: LinkFaults = field(default_factory=LinkFaults)
    links: Mapping[str, LinkFaults] = field(default_factory=dict)
    resolver_default: ResolverFaults = field(default_factory=ResolverFaults)
    resolvers: Mapping[str, ResolverFaults] = field(default_factory=dict)
    middlebox: MiddleboxFaults = field(default_factory=MiddleboxFaults)

    @classmethod
    def uniform_loss(cls, rate: float, *, seed: int = 0,
                     duplicate: float = 0.0, jitter: float = 0.0,
                     resolver: Optional[ResolverFaults] = None,
                     middlebox: Optional[MiddleboxFaults] = None,
                     ) -> "FaultPlan":
        """The workhorse plan: the same loss rate on every link."""
        return cls(
            seed=seed,
            default_link=LinkFaults(loss=rate, duplicate=duplicate,
                                    jitter=jitter),
            resolver_default=resolver or ResolverFaults(),
            middlebox=middlebox or MiddleboxFaults(),
        )

    def with_link(self, a: str, b: str, faults: LinkFaults) -> "FaultPlan":
        """A copy of this plan with an override for one link."""
        links = dict(self.links)
        links[link_key(a, b)] = faults
        return replace(self, links=links)

    def with_resolver(self, ip: str, faults: ResolverFaults) -> "FaultPlan":
        """A copy of this plan with an override for one resolver IP."""
        resolvers = dict(self.resolvers)
        resolvers[ip] = faults
        return replace(self, resolvers=resolvers)

    def link_faults(self, a: str, b: str) -> LinkFaults:
        return self.links.get(link_key(a, b), self.default_link)

    def resolver_faults(self, ip: str) -> ResolverFaults:
        return self.resolvers.get(ip, self.resolver_default)

    @property
    def active(self) -> bool:
        return (self.default_link.active
                or any(f.active for f in self.links.values())
                or self.resolver_default.active
                or any(f.active for f in self.resolvers.values())
                or self.middlebox.active)


@dataclass
class LinkDecision:
    """Outcome of consulting the injector for one link traversal."""

    dropped: bool = False
    drop_reason: str = ""
    duplicate: bool = False
    extra_delay: float = 0.0


#: Shared immutable-by-convention decision for fault-free links —
#: :meth:`FaultInjector.on_link` returns it instead of allocating a
#: fresh ``LinkDecision`` per packet.  Callers must treat it as
#: read-only; every active-fault path below allocates its own.
_CLEAN_DECISION = LinkDecision()


class FaultInjector:
    """Executes a :class:`FaultPlan` with per-scope deterministic RNGs.

    Each link, resolver and middlebox gets its own ``random.Random``
    seeded from ``"faults|<seed>|<scope>"``.  Isolating the streams
    means adding traffic on one link never perturbs the fault schedule
    of another — determinism degrades gracefully as workloads change.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats: Counter = Counter()
        self._rngs: Dict[str, Random] = {}

    def _rng(self, scope: str) -> Random:
        rng = self._rngs.get(scope)
        if rng is None:
            rng = Random(f"faults|{self.plan.seed}|{scope}")
            self._rngs[scope] = rng
        return rng

    # -- links -----------------------------------------------------------

    def on_link(self, a: str, b: str, now: float) -> LinkDecision:
        """Decide the fate of one packet traversing link *a*–*b*."""
        faults = self.plan.link_faults(a, b)
        if not faults.active:
            return _CLEAN_DECISION
        decision = LinkDecision()
        if faults.down_at(now):
            decision.dropped = True
            decision.drop_reason = "fault-flap"
            self.stats["link-flap"] += 1
            return decision
        rng = self._rng(f"link|{link_key(a, b)}")
        if faults.loss and rng.random() < faults.loss:
            decision.dropped = True
            decision.drop_reason = "fault-loss"
            self.stats["link-loss"] += 1
            return decision
        if faults.duplicate and rng.random() < faults.duplicate:
            decision.duplicate = True
            self.stats["link-duplicate"] += 1
        if faults.jitter:
            decision.extra_delay = rng.random() * faults.jitter
            self.stats["link-jitter"] += 1
        return decision

    # -- resolvers -------------------------------------------------------

    def resolver_action(self, ip: str) -> Tuple[str, float]:
        """``("answer"|"drop"|"slow", extra_delay)`` for one query."""
        faults = self.plan.resolver_faults(ip)
        if not faults.active:
            return ("answer", 0.0)
        rng = self._rng(f"resolver|{ip}")
        roll = rng.random()
        if roll < faults.drop_rate:
            self.stats["resolver-drop"] += 1
            return ("drop", 0.0)
        if roll < faults.drop_rate + faults.slow_rate:
            self.stats["resolver-slow"] += 1
            return ("slow", faults.slow_delay)
        return ("answer", 0.0)

    # -- middleboxes -----------------------------------------------------

    def middlebox_blind(self, box_name: str) -> bool:
        """Does *box_name* fail to inspect the current packet?"""
        faults = self.plan.middlebox
        if not faults.active:
            return False
        rng = self._rng(f"middlebox|{box_name}")
        if rng.random() < faults.blind_rate:
            self.stats["middlebox-blind"] += 1
            return True
        return False

    # -- reporting -------------------------------------------------------

    def stats_lines(self) -> Iterable[str]:
        """Human-readable injector counters, stably ordered."""
        for key in sorted(self.stats):
            yield f"{key}: {self.stats[key]}"
