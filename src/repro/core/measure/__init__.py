"""repro.core.measure — the paper's measurement toolkit."""

from .attribution import AttributionResult, attribute_censorship
from .classify import (
    BehaviouralClassification,
    MiddleboxClassification,
    classify_by_behaviour,
    classify_middlebox,
    find_controlled_target,
    find_triggering_domain,
)
from .collateral import (
    CollateralReport,
    measure_collateral_express,
    measure_collateral_fetch,
)
from .coverage import (
    CoverageResult,
    PathProbe,
    measure_coverage_inside,
    measure_coverage_outside,
    probe_path,
)
from .detector import (
    DetectorRun,
    DetectorSiteOutcome,
    detect_site,
    run_detector,
)
from .dns_detect import (
    DNSDetectionOutcome,
    DNSDetectionRun,
    detect_dns_filtering,
)
from .fastprobe import (
    ExpressDNSAnswer,
    ExpressVerdict,
    canonical_payload,
    express_canonical_blocked,
    express_dns_probe,
    express_http_probe,
    resolver_service_at,
)
from .metrics import (
    PrecisionRecall,
    consistency,
    coverage,
    per_site_blocking_fractions,
    precision_recall,
)
from .ooni import (
    BLOCKING_DNS,
    BLOCKING_HTTP,
    BLOCKING_NONE,
    BLOCKING_TCP,
    OONIRun,
    OONISiteResult,
    run_ooni,
    web_connectivity,
)
from .probes import CraftedFlow, ProbeObservation, RawProbeSession
from .reporting import (
    blocking_series_csv,
    coverage_report,
    coverage_series_csv,
    ooni_run_report,
    ooni_run_to_json,
    precision_recall_table,
    resolver_scan_report,
    resolver_series_csv,
)
from .resolver_scan import (
    ResolverScanResult,
    identify_censorious,
    scan_isp_resolvers,
    sweep_open_resolvers,
)
from .stateful import (
    FlowTimeoutEstimate,
    StatefulnessReport,
    estimate_flow_timeout,
    probe_statefulness,
)
from .tcpip import TCPIPFilterReport, detect_tcpip_filtering
from .tracer import (
    DNSTraceResult,
    HTTPTraceResult,
    dns_iterative_trace,
    http_iterative_trace,
)
from .trigger import CRAFTED_VARIANTS, TriggerAnalysis, analyze_trigger

__all__ = [
    "BLOCKING_DNS",
    "BLOCKING_HTTP",
    "BLOCKING_NONE",
    "BLOCKING_TCP",
    "CRAFTED_VARIANTS",
    "CollateralReport",
    "CoverageResult",
    "CraftedFlow",
    "DNSDetectionOutcome",
    "DNSDetectionRun",
    "DNSTraceResult",
    "DetectorRun",
    "DetectorSiteOutcome",
    "ExpressDNSAnswer",
    "ExpressVerdict",
    "FlowTimeoutEstimate",
    "HTTPTraceResult",
    "AttributionResult",
    "BehaviouralClassification",
    "MiddleboxClassification",
    "OONIRun",
    "OONISiteResult",
    "PathProbe",
    "PrecisionRecall",
    "ProbeObservation",
    "RawProbeSession",
    "ResolverScanResult",
    "StatefulnessReport",
    "TCPIPFilterReport",
    "TriggerAnalysis",
    "analyze_trigger",
    "attribute_censorship",
    "blocking_series_csv",
    "canonical_payload",
    "classify_by_behaviour",
    "classify_middlebox",
    "consistency",
    "coverage",
    "coverage_report",
    "coverage_series_csv",
    "detect_dns_filtering",
    "detect_site",
    "detect_tcpip_filtering",
    "dns_iterative_trace",
    "estimate_flow_timeout",
    "express_canonical_blocked",
    "express_dns_probe",
    "express_http_probe",
    "find_controlled_target",
    "find_triggering_domain",
    "http_iterative_trace",
    "identify_censorious",
    "measure_collateral_express",
    "measure_collateral_fetch",
    "measure_coverage_inside",
    "measure_coverage_outside",
    "ooni_run_report",
    "ooni_run_to_json",
    "per_site_blocking_fractions",
    "precision_recall",
    "precision_recall_table",
    "probe_path",
    "probe_statefulness",
    "resolver_scan_report",
    "resolver_series_csv",
    "resolver_service_at",
    "run_detector",
    "run_ooni",
    "scan_isp_resolvers",
    "sweep_open_resolvers",
    "web_connectivity",
]
