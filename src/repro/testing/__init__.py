"""Testing utilities: the long-tail fuzz harness and reference paths.

Dependency-free scenario fuzzing with greedy shrinking — see
:mod:`repro.testing.fuzz` — and the scalar perception reference the
batched fleet path is checked against (:mod:`repro.testing.reference`).
"""

from repro.testing.fuzz import (
    DYNAMIC_WINDOW,
    STATIC_WINDOW,
    FuzzHarness,
    FuzzReport,
    InvariantViolation,
    MinimisedCase,
    Recognizers,
    WindowResult,
    case_bytes,
    case_filename,
    check_envelope_invariant,
    check_fleet_invariants,
    check_window_invariants,
    execute_window,
    replay_case,
    shrink_candidates,
    shrink_scenario,
)
from repro.testing.reference import ScalarReferencePerception

__all__ = [
    "DYNAMIC_WINDOW",
    "STATIC_WINDOW",
    "FuzzHarness",
    "FuzzReport",
    "InvariantViolation",
    "MinimisedCase",
    "Recognizers",
    "ScalarReferencePerception",
    "WindowResult",
    "case_bytes",
    "case_filename",
    "check_envelope_invariant",
    "check_fleet_invariants",
    "check_window_invariants",
    "execute_window",
    "replay_case",
    "shrink_candidates",
    "shrink_scenario",
]
