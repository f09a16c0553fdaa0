"""repro.experiments — one module per paper table/figure/finding.

Each module is its campaign contract: ``CAMPAIGN``, the table's title
and headers, and ``units()``, whose functions each measure one ISP
(or stub, or the synthetic injector) of a fresh world and return its
payload rows, plus ``PAPER_*`` constants carrying the published values
for side-by-side comparison.  ``repro campaign``, ``repro experiment``
and ``repro serve`` run the units, each on its own world, and render
the tables from their journaled payloads.  The thirteen paper
experiments also declare fidelity ``CELLS`` and ``CHECKS`` and parse
their own payload rows with ``measured(rows)``, which ``repro report``
judges (see :mod:`repro.experiments.common`).

| Module              | Reproduces                                     |
|---------------------|------------------------------------------------|
| table1_ooni         | Table 1 (OONI precision/recall)                |
| table2_http         | Table 2 (HTTP coverage, box types, blocked)    |
| table3_collateral   | Table 3 (collateral damage)                    |
| fig2_dns            | Figure 2 (DNS resolver consistency)            |
| fig5_http           | Figure 5 (middlebox path consistency)          |
| trigger_analysis    | §3.4-III/IV (what triggers censorship)         |
| dns_mechanism       | §3.2-III (poisoning vs injection)              |
| tcpip_filtering     | §3.3 (no TCP/IP filtering)                     |
| statefulness        | §4.2.1 caveat (handshake gating, flow timeout) |
| session_dynamics    | §4.2.1/§6.3 (session-table capacity/residual)  |
| evasion_matrix      | §5 (anti-censorship effectiveness)             |
| ooni_failures       | §3.1/§6.2 (anatomy of OONI's errors)           |
| population_scale    | Table 2 / §5 at population scale (cohorts)     |
"""

from . import (
    common,
    dns_mechanism,
    evasion_matrix,
    fig2_dns,
    fig5_http,
    https_filtering,
    idiosyncrasies,
    ooni_failures,
    population_scale,
    session_dynamics,
    statefulness,
    table1_ooni,
    table2_http,
    table3_collateral,
    tcpip_filtering,
    trigger_analysis,
)

#: CLI/campaign experiment key -> module.  The campaign runner walks
#: this registry; every module exposes ``units()`` and ``CAMPAIGN``.
EXPERIMENT_MODULES = {
    "table1": table1_ooni,
    "table2": table2_http,
    "table3": table3_collateral,
    "fig2": fig2_dns,
    "fig5": fig5_http,
    "trigger": trigger_analysis,
    "dns-mechanism": dns_mechanism,
    "tcpip": tcpip_filtering,
    "statefulness": statefulness,
    "session-dynamics": session_dynamics,
    "population-scale": population_scale,
    "evasion": evasion_matrix,
    "ooni-failures": ooni_failures,
    "https": https_filtering,
    "idiosyncrasies": idiosyncrasies,
}

__all__ = [
    "EXPERIMENT_MODULES",
    "common",
    "dns_mechanism",
    "evasion_matrix",
    "fig2_dns",
    "fig5_http",
    "https_filtering",
    "idiosyncrasies",
    "ooni_failures",
    "population_scale",
    "session_dynamics",
    "statefulness",
    "table1_ooni",
    "table2_http",
    "table3_collateral",
    "tcpip_filtering",
    "trigger_analysis",
]
