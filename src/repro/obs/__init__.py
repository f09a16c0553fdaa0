"""Observability: trace bus, metrics registry, and run reports.

Everything here is optional at runtime — the simulator runs with
``Network.trace is None`` and no registry attached, at zero cost.  See
``docs/OBSERVABILITY.md`` for the event schema and metric catalog.
"""

from .metrics import (
    MetricsRegistry,
    STEP_BUCKETS,
    WALL_BUCKETS,
    collect_network_metrics,
    collect_world_metrics,
    metric_key,
)
from .trace import BufferSink, JsonlSink, TraceBus, event_json, flow_id

__all__ = [
    "BufferSink",
    "JsonlSink",
    "MetricsRegistry",
    "STEP_BUCKETS",
    "TraceBus",
    "WALL_BUCKETS",
    "collect_network_metrics",
    "collect_world_metrics",
    "event_json",
    "flow_id",
    "metric_key",
]
