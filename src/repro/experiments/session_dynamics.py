"""Session-table dynamics — finite state, overload policies, residual
censorship (§4.2.1/§6.3 caveats; docs/SESSION_DYNAMICS.md).

Three probe families per HTTP-censoring ISP:

* the binary-search idle-timeout prober, run against the ISP's *real*
  deployment in the full world — it must recover the 150 s purge to
  ±1 s purely from collateral behavior;
* a state-exhaustion ramp and a residual-window prober, run against
  small bounded **scenario variants** of the ISP's box (same mechanism,
  notification and trigger discipline, but a finite session table /
  residual window) — the measured ISPs themselves keep the paper's
  unbounded idealization, so every other experiment's output is
  untouched.

The scenario parameters are the experiment's ground truth; the probers
never read them back.  Exhaustion and residual use *separate* scenario
worlds: a residual window would otherwise block the ramp's canaries
and masquerade as fail-closed overload.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Dict, Optional

from ..core.measure.session import (
    probe_residual_window,
    probe_state_exhaustion,
    recover_flow_timeout,
)
from ..core.vantage import VantagePoint
from ..httpsim.message import make_response
from ..httpsim.server import OriginServer
from ..isps.profiles import (
    HTTP_FILTERING_ISPS,
    HTTP_IM_OVERT,
    HTTP_WM,
    PROFILES,
)
from ..middlebox import (
    COVERT,
    FAIL_CLOSED,
    FAIL_OPEN,
    InterceptiveMiddlebox,
    OVERT,
    TriggerSpec,
    WiretapMiddlebox,
    profile_for,
)
from ..netsim.engine import Network
from .common import (
    TableSpec,
    Unit,
    box_target,
    campaign_payload,
    fmt_cell,
)

#: The one domain the scenario boxes censor.
BLOCKED_DOMAIN = "blocked.example.com"

#: Ground-truth session parameters of the bounded scenario variants —
#: two fail-open and two fail-closed deployments, three with a residual
#: window, so the probers face contrasting configurations.
SCENARIOS: Dict[str, Dict] = {
    "airtel": {"max_flows": 24, "overload": FAIL_OPEN,
               "residual_window": 0.0},
    "jio": {"max_flows": 16, "overload": FAIL_OPEN,
            "residual_window": 20.0},
    "idea": {"max_flows": 20, "overload": FAIL_CLOSED,
             "residual_window": 30.0},
    "vodafone": {"max_flows": 12, "overload": FAIL_CLOSED,
                 "residual_window": 15.0},
}

#: TriggerStats attributes folded into the unit's session counters.
_COUNTER_FIELDS = ("evicted", "overload_fail_open", "overload_fail_closed",
                   "residual_hits", "truncated_flows")

CAMPAIGN = TableSpec(
    title="Section 4.2.1/6.3: session-table dynamics",
    headers=("ISP", "mechanism", "idle timeout (s)", "capacity",
             "overload", "residual (s)"),
)


# ---------------------------------------------------------------------------
# Scenario worlds
# ---------------------------------------------------------------------------

def build_scenario(isp: str, *, max_flows: Optional[int],
                   overload_policy: str = FAIL_OPEN,
                   eviction_policy: str = "none",
                   residual_window: float = 0.0,
                   flow_timeout: float = 150.0):
    """A tiny deployment of *isp*'s box family with bounded state.

    Client — router(+box) — origin, with the box built exactly like the
    ISP's (mechanism, notification, fixed IP-ID) except for the session
    parameters under test and ``miss_rate=0`` (races are a statefulness
    confound, not a session-table property).
    """
    profile = PROFILES[isp]
    network = Network()
    client = network.add_host("sd-client", "10.77.0.1")
    router = network.add_router("sd-router", "10.77.0.254")
    server_host = network.add_host("sd-server", "10.77.0.80")
    network.link("sd-client", "sd-router")
    network.link("sd-router", "sd-server")

    origin = OriginServer("sd-origin")
    page = lambda request, ip: make_response(
        200, b"<html>session probe target</html>")
    origin.add_domain(BLOCKED_DOMAIN, page)
    origin.install(server_host, 80)

    spec = TriggerSpec(blocklist=frozenset({BLOCKED_DOMAIN}))
    session = {
        "max_flows": max_flows,
        "eviction_policy": eviction_policy,
        "overload_policy": overload_policy,
        "residual_window": residual_window,
        "flow_timeout": flow_timeout,
    }
    if profile.mechanism == HTTP_WM:
        box = WiretapMiddlebox(
            f"sd-{isp}-wm", isp, spec, profile_for(isp),
            miss_rate=0.0, fixed_ip_id=profile.fixed_ip_id, **session)
        router.attach_tap(box)
    else:
        mode = OVERT if profile.mechanism == HTTP_IM_OVERT else COVERT
        box = InterceptiveMiddlebox(
            f"sd-{isp}-im", isp, spec, mode=mode,
            notification=profile_for(isp) if mode == OVERT else None,
            **session)
        router.attach_inline(box)
    return SimpleNamespace(network=network, client=client,
                           server_ip="10.77.0.80", box=box)


def _accumulate_counters(counters: Dict[str, int], box) -> None:
    for name in _COUNTER_FIELDS:
        value = getattr(box.stats, name, 0)
        if value:
            counters[name] = counters.get(name, 0) + value


# ---------------------------------------------------------------------------
# Campaign units
# ---------------------------------------------------------------------------

def units():
    """One campaign unit per HTTP-censoring ISP."""
    for isp in HTTP_FILTERING_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains):
    """All three probe families for *isp*: the deployed boxes' idle
    timeout in *world*, then its scenario variant's capacity, overload
    policy and residual window."""
    timeout_text = "-"
    _, domain, dst_ip = box_target(world, isp)
    if domain is not None:
        client = VantagePoint.inside(world, isp).host
        recovery = recover_flow_timeout(world, client, dst_ip, domain,
                                        isp=isp, attempts=6)
        if recovery.recovered is not None:
            timeout_text = fmt_cell(recovery.recovered)
    params = SCENARIOS[isp]
    counters: Dict[str, int] = {}
    exhaustion_world = build_scenario(
        isp, max_flows=params["max_flows"],
        overload_policy=params["overload"])
    exhaustion = probe_state_exhaustion(
        exhaustion_world, exhaustion_world.client,
        exhaustion_world.server_ip, BLOCKED_DOMAIN, isp=isp,
        max_probe=params["max_flows"] + 8)
    _accumulate_counters(counters, exhaustion_world.box)
    residual_text = "-"
    if params["residual_window"] > 0.0:
        residual_world = build_scenario(
            isp, max_flows=None, residual_window=params["residual_window"])
        residual = probe_residual_window(
            residual_world, residual_world.client,
            residual_world.server_ip, BLOCKED_DOMAIN, isp=isp)
        _accumulate_counters(counters, residual_world.box)
        if residual.window is not None:
            residual_text = fmt_cell(residual.window)
    capacity_text = ("-" if exhaustion.capacity is None
                     else str(exhaustion.capacity))
    payload = campaign_payload([[
        isp, PROFILES[isp].mechanism, timeout_text, capacity_text,
        exhaustion.classification, residual_text]])
    if counters:
        payload["session_counters"] = dict(sorted(counters.items()))
    return payload
