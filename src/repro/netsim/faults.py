"""Deterministic, seeded packet loss for the network simulator.

The paper's measurements fight an unreliable substrate throughout:
wiretap middleboxes *lose races* with genuine replies, and probes have
to be repeated "a series" of times per TTL (section 3.2).  The seed
simulator modelled a perfect network, so none of the resilience logic
those conditions force was ever exercised.  This module supplies the
imperfection: the same loss probability on every link, applied at
every forwarding hop.

:class:`FaultInjector` derives one independent ``random.Random`` stream
per link from a single integer seed.  Python seeds ``Random`` from
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
from dataclasses import dataclass, replace
from random import Random
from typing import Dict, Iterable, Optional, Tuple


def link_key(a: str, b: str) -> str:
    """Canonical unordered key for the link between nodes *a* and *b*."""
    lo, hi = sorted((a, b))
    return f"{lo}|{hi}"


def backoff(attempt: int) -> float:
    """Pause before client retry number *attempt* (first retry = 1)."""
    return 0.25 * 2.0 ** (attempt - 1)


@dataclass(frozen=True)
class HardeningPolicy:
    """How aggressively measurement clients fight an unreliable network.

    The defaults are what experiments run with once faults are enabled;
    :data:`NO_HARDENING` reproduces the seed repo's single-shot clients
    and exists so regression tests can show the difference.
    """

    #: UDP DNS query attempts (total, not extra).
    dns_attempts: int = 4
    #: Full HTTP/HTTPS fetch attempts (connect + request).
    fetch_attempts: int = 3
    #: TCP-layer retransmission (SYN, data and SYN|ACK segments).
    tcp_retransmit: bool = True
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
    """Every injected fault: one loss probability for every link.

    A plan is pure data: the same plan always produces the same
    packet-level schedule.
    """

    loss: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")


def fault_setup(loss: float, seed: int = 0,
                retries: Optional[int] = None
                ) -> Optional[Tuple[FaultPlan, HardeningPolicy]]:
    """The plan and client hardening that ``--loss``, ``--fault-seed``
    and ``--retries`` ask for, or ``None`` without loss.

    ``retries`` overrides the DNS and fetch attempts of
    :data:`DEFAULT_HARDENING` (at least one each).  Raises
    ``ValueError`` for a loss that is not a probability.
    """
    if not loss:
        return None
    plan = FaultPlan(loss, seed=seed)
    hardening = DEFAULT_HARDENING
    if retries is not None:
        hardening = replace(hardening,
                            dns_attempts=max(1, retries),
                            fetch_attempts=max(1, retries))
    return plan, hardening


class FaultInjector:
    """Executes a :class:`FaultPlan` with per-link deterministic RNGs.

    Each link gets its own ``random.Random`` seeded from
    ``"faults|<seed>|link|<a>|<b>"``.  Isolating the streams means
    adding traffic on one link never perturbs the loss schedule of
    another — determinism degrades gracefully as workloads change.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats: Counter = Counter()
        self._rngs: Dict[str, Random] = {}

    def dropped(self, a: str, b: str) -> bool:
        """Is the packet now crossing link *a*–*b* lost?"""
        key = link_key(a, b)
        rng = self._rngs.get(key)
        if rng is None:
            rng = Random(f"faults|{self.plan.seed}|link|{key}")
            self._rngs[key] = rng
        if rng.random() < self.plan.loss:
            self.stats["link-loss"] += 1
            return True
        return False

    def stats_lines(self) -> Iterable[str]:
        """Human-readable injector counters, stably ordered."""
        for key in sorted(self.stats):
            yield f"{key}: {self.stats[key]}"
