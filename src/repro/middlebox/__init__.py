"""repro.middlebox — the censorship infrastructure models.

Implements the two HTTP middlebox families the paper characterizes —
wiretap (out-of-band injectors; Airtel, Jio) and interceptive (in-path
proxies; Idea, Vodafone) — plus DNS injection (built to contrast with
the resolver poisoning actually found in MTNL/BSNL), stateful flow
tracking, per-box trigger disciplines, and per-ISP notification pages.
"""

from .base import Middlebox
from .dns_injector import DNSInjectorMiddlebox
from .flowstate import (
    DEFAULT_FLOW_TIMEOUT,
    ESTABLISHED,
    EVICTION_POLICIES,
    FAIL_CLOSED,
    FAIL_OPEN,
    FlowRecord,
    FlowTable,
    OVERLOAD_POLICIES,
    SYNACK_SEEN,
    SYN_SEEN,
)
from .interceptive import (
    COVERT,
    FORGED_RST_SEQ_OFFSET,
    InterceptiveMiddlebox,
    OVERT,
)
from .notification import (
    NOTIFICATION_PROFILES,
    NotificationProfile,
    identify_isp,
    looks_like_block_page,
    profile_for,
)
from .triggers import TriggerSpec, TriggerStats
from .wiretap import WiretapMiddlebox

__all__ = [
    "COVERT",
    "DEFAULT_FLOW_TIMEOUT",
    "DNSInjectorMiddlebox",
    "ESTABLISHED",
    "EVICTION_POLICIES",
    "FAIL_CLOSED",
    "FAIL_OPEN",
    "FORGED_RST_SEQ_OFFSET",
    "FlowRecord",
    "FlowTable",
    "InterceptiveMiddlebox",
    "Middlebox",
    "NOTIFICATION_PROFILES",
    "NotificationProfile",
    "OVERLOAD_POLICIES",
    "OVERT",
    "SYNACK_SEEN",
    "SYN_SEEN",
    "TriggerSpec",
    "TriggerStats",
    "WiretapMiddlebox",
    "identify_isp",
    "looks_like_block_page",
    "profile_for",
]
