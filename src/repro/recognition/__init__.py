"""Sign recognition: the paper's SAX pipeline plus baselines and sweeps.

``frame → preprocess → SAX word → database match``, with per-stage
real-time budget accounting (Section IV) and the altitude/azimuth
envelope evaluations behind Figure 4 and the dead-angle claim.
"""

from repro.recognition.baselines import (
    BaselineResult,
    HuMomentClassifier,
    TemplateCorrelationClassifier,
)
from repro.recognition.budget import FRAME_BUDGET_S, BudgetReport, FrameBudget, StageTiming
from repro.recognition.dynamic import (
    DynamicObservation,
    DynamicRecognition,
    DynamicSignRecognizer,
)
from repro.recognition.evaluation import (
    AltitudeEnvelope,
    AzimuthEnvelope,
    SweepPoint,
    confusion_matrix,
    sweep_altitude,
    sweep_azimuth,
)
from repro.recognition.pipeline import (
    CANONICAL_ALTITUDE_M,
    CANONICAL_DISTANCE_M,
    ENROLMENT_AZIMUTHS_DEG,
    Recognition,
    SaxSignRecognizer,
    observation_elevation_deg,
)
from repro.recognition.preprocess import (
    PreprocessResult,
    PreprocessSettings,
    broadcast_elevations,
    preprocess_frame,
    preprocess_frames,
    silhouette_to_series,
)

__all__ = [
    "BaselineResult",
    "DynamicObservation",
    "DynamicRecognition",
    "DynamicSignRecognizer",
    "HuMomentClassifier",
    "TemplateCorrelationClassifier",
    "FRAME_BUDGET_S",
    "BudgetReport",
    "FrameBudget",
    "StageTiming",
    "AltitudeEnvelope",
    "AzimuthEnvelope",
    "SweepPoint",
    "confusion_matrix",
    "sweep_altitude",
    "sweep_azimuth",
    "CANONICAL_ALTITUDE_M",
    "CANONICAL_DISTANCE_M",
    "ENROLMENT_AZIMUTHS_DEG",
    "Recognition",
    "SaxSignRecognizer",
    "observation_elevation_deg",
    "PreprocessResult",
    "PreprocessSettings",
    "broadcast_elevations",
    "preprocess_frame",
    "preprocess_frames",
    "silhouette_to_series",
]
