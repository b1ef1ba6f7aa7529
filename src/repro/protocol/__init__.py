"""The human-drone negotiation protocol (paper Figure 3) and safety.

Drone-side negotiation state machine, the perception abstraction that
reads the human's sign (full SAX pipeline or the calibrated oracle), and
the safety monitor that triggers the all-red emergency behaviour.
"""

from repro.protocol.negotiation import (
    NegotiationConfig,
    NegotiationController,
    NegotiationOutcome,
    NegotiationState,
)
from repro.protocol.perception import (
    ObservationGeometry,
    OraclePerception,
    Perception,
)
from repro.protocol.recognizer import (
    ObservationQuery,
    PerceptionStats,
    RecognitionEnvelope,
    RecognizerPerception,
)
from repro.protocol.safety import SafetyLimits, SafetyMonitor, SafetyViolation

__all__ = [
    "NegotiationConfig",
    "NegotiationController",
    "NegotiationOutcome",
    "NegotiationState",
    "ObservationGeometry",
    "ObservationQuery",
    "OraclePerception",
    "Perception",
    "PerceptionStats",
    "RecognitionEnvelope",
    "RecognizerPerception",
    "SafetyLimits",
    "SafetyMonitor",
    "SafetyViolation",
]
