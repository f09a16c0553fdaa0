"""Deterministic protocol fuzzing with a differential oracle.

``repro.fuzz`` stress-tests the simulator's protocol surfaces — HTTP
request parsing, middlebox trigger matching, TCP segment reassembly
and DNS resolution — with seed-driven structured mutation.  Its
headline oracle is *differential*: every mutant must either make the
origin-server parse and the middlebox match agree, or disagree for a
reason the evasion model already names (Table 4 of the paper,
generalized).  Anything else is a finding, minimized to a
locally-minimal reproducer and journaled.

See ``docs/FUZZING.md`` for the campaign workflow.
"""

from .corpus import (
    DECOY_DOMAIN,
    FUZZ_DOMAIN,
    TARGETS,
    decode_entry,
    encode_entry,
    load_corpus_dir,
    load_fixture,
    seed_corpus,
    write_fixture,
)
from .engine import FuzzEngine, FuzzReport, replay_fixture
from .harness import (
    model_reassembly,
    run_dns_probe,
    run_session_schedule,
    run_tcp_schedule,
)
from .minimize import minimize, minimize_bytes, minimize_schedule
from .mutators import (
    mutate,
    mutate_dns,
    mutate_http,
    mutate_session,
    mutate_tcp,
)
from .oracles import (
    DISCIPLINES,
    DiffResult,
    check_http_invariants,
    classify_evasion,
    classify_overmatch,
    diff_http,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "DECOY_DOMAIN",
    "DISCIPLINES",
    "DiffResult",
    "FUZZ_DOMAIN",
    "FuzzEngine",
    "FuzzReport",
    "TARGETS",
    "check_http_invariants",
    "classify_evasion",
    "classify_overmatch",
    "decode_entry",
    "derive_rng",
    "derive_seed",
    "diff_http",
    "encode_entry",
    "load_corpus_dir",
    "load_fixture",
    "minimize",
    "minimize_bytes",
    "minimize_schedule",
    "model_reassembly",
    "mutate",
    "mutate_dns",
    "mutate_http",
    "mutate_session",
    "mutate_tcp",
    "replay_fixture",
    "run_dns_probe",
    "run_session_schedule",
    "run_tcp_schedule",
    "seed_corpus",
    "write_fixture",
]
