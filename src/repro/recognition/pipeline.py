"""The SAX sign recogniser: frame in, sign out.

Ties the pre-processor, the SAX encoder and the sign database together
and accounts every stage against the real-time budget.

Enrolment strategy
------------------
The paper enrols "the 0° relative azimuth image as the canonical
reference" of each sign, photographed with a real (3-D) signaller.  Our
signaller is a flat skeleton, which exaggerates azimuth foreshortening;
to preserve the paper's behaviour envelope (recognition holds to ~65°
relative azimuth) each sign is enrolled at a small set of *synthetic*
azimuth views generated from the sign's own pose model — free for the
drone, since the vocabulary is fixed at design time.  Queries are also
perspective-rectified using the drone's known observation elevation.
Both substitutions are documented in DESIGN.md §2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.camera import observation_camera
from repro.human.pose import pose_for_sign
from repro.human.render import RenderSettings, render_frame
from repro.human.signs import COMMUNICATIVE_SIGNS, MarshallingSign
from repro.recognition.budget import BudgetReport, FrameBudget
from repro.recognition.preprocess import (
    PreprocessSettings,
    preprocess_frame,
    preprocess_frames,
)
from repro.sax.database import SignDatabase
from repro.sax.encoder import SaxParameters
from repro.vision.image import Image

__all__ = [
    "Recognition",
    "SaxSignRecognizer",
    "CANONICAL_ALTITUDE_M",
    "CANONICAL_DISTANCE_M",
    "ENROLMENT_AZIMUTHS_DEG",
    "label_to_sign",
    "observation_elevation_deg",
]

# The paper's canonical enrolment viewpoint: "the drone at an altitude of
# five meters, three meters distance from the signaller ... full-on (0°)".
CANONICAL_ALTITUDE_M = 5.0
CANONICAL_DISTANCE_M = 3.0

# Synthetic enrolment views per sign (degrees of relative azimuth).
ENROLMENT_AZIMUTHS_DEG = (0.0, 15.0, 30.0, 50.0, 65.0)

# Height of the signaller's torso centre: the camera aims here, and the
# elevation rectification is computed about this point.
TORSO_CENTRE_HEIGHT_M = 1.1


def observation_elevation_deg(altitude_m: float, distance_m: float) -> float:
    """Camera elevation (degrees) for a drone at the given geometry."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return math.degrees(math.atan2(altitude_m - TORSO_CENTRE_HEIGHT_M, distance_m))


def label_to_sign(label: str | None) -> MarshallingSign | None:
    """Map a database label onto the built-in sign enum (``None`` for
    rejections and custom labels)."""
    if label is None:
        return None
    try:
        return MarshallingSign(label)
    except ValueError:
        return None


@dataclass(frozen=True)
class Recognition:
    """Result of recognising one frame.

    ``label`` is the raw database label (supports custom signs enrolled
    beyond the built-in vocabulary); ``sign`` maps it onto the built-in
    :class:`MarshallingSign` enum when possible and is ``None`` for
    custom labels.
    """

    label: str | None
    distance: float
    margin: float
    budget: BudgetReport
    reject_reason: str | None = None

    @property
    def sign(self) -> MarshallingSign | None:
        """The built-in sign, when the label is one."""
        return label_to_sign(self.label)

    @property
    def recognised(self) -> bool:
        """``True`` when a communicative sign was confidently read."""
        if self.label is None:
            return False
        sign = self.sign
        return sign is None or sign.is_communicative


class SaxSignRecognizer:
    """Recognises marshalling signs in camera frames via SAX matching.

    Parameters
    ----------
    sax_parameters:
        Word length / alphabet size for the string stage.
    acceptance_threshold:
        Per-sample-normalised distance above which a frame is rejected.
    preprocess_settings:
        Pre-processing tunables (shared by enrolment and queries).

    Every stage is timed against
    :data:`~repro.recognition.budget.FRAME_BUDGET_S` (30 fps).
    """

    def __init__(
        self,
        sax_parameters: SaxParameters | None = None,
        acceptance_threshold: float = 0.55,
        margin_threshold: float = 0.08,
        preprocess_settings: PreprocessSettings | None = None,
    ) -> None:
        self.preprocess_settings = (
            preprocess_settings if preprocess_settings is not None else PreprocessSettings()
        )
        self.database = SignDatabase(
            parameters=sax_parameters,
            acceptance_threshold=acceptance_threshold,
            margin_threshold=margin_threshold,
        )

    # -- enrolment ----------------------------------------------------------------

    def enroll_sign(
        self,
        sign: MarshallingSign | str,
        frame: Image,
        elevation_deg: float | None = None,
        view: str = "canonical",
    ) -> None:
        """Enrol *sign* from a reference frame.

        *sign* is a built-in sign or a custom label (a dynamic sign
        enrols its keyframes as ``"wave_off#0"``, …).  The frame goes
        through the batched pre-processor (bit-identical to
        :func:`~repro.recognition.preprocess.preprocess_frame`), so a
        rendered reference view takes its windowed path.

        Raises
        ------
        ValueError
            If no usable silhouette can be extracted from the frame.
        """
        label = sign.value if isinstance(sign, MarshallingSign) else sign
        (result,) = preprocess_frames(
            [frame], self.preprocess_settings, elevation_deg=elevation_deg
        )
        if not result.ok:
            raise ValueError(f"cannot enrol {label!r}: {result.reject_reason}")
        assert result.series is not None
        self.database.add(label, result.series, view=view)

    def enroll_canonical_views(
        self,
        altitude_m: float = CANONICAL_ALTITUDE_M,
        distance_m: float = CANONICAL_DISTANCE_M,
        azimuths_deg: tuple[float, ...] = ENROLMENT_AZIMUTHS_DEG,
        render_settings: RenderSettings | None = None,
    ) -> None:
        """Enrol all three signs from clean synthetic reference views.

        Each sign is rendered at the canonical altitude/distance for
        every azimuth in *azimuths_deg* (see module docstring for why
        several views are enrolled).
        """
        settings = render_settings if render_settings is not None else RenderSettings(noise_sigma=0.0)
        elevation = observation_elevation_deg(altitude_m, distance_m)
        for sign in COMMUNICATIVE_SIGNS:
            for azimuth in azimuths_deg:
                camera = observation_camera(altitude_m, distance_m, azimuth_deg=azimuth)
                frame = render_frame(pose_for_sign(sign), camera, settings)
                self.enroll_sign(
                    sign, frame, elevation_deg=elevation, view=f"az{azimuth:.0f}"
                )

    @property
    def enrolled_signs(self) -> list[str]:
        """Labels currently in the database."""
        return self.database.labels

    # -- recognition ----------------------------------------------------------------

    def recognise(self, frame: Image, elevation_deg: float | None = None) -> Recognition:
        """Recognise the sign in *frame*, timing every stage.

        Parameters
        ----------
        elevation_deg:
            The drone's observation elevation towards the signaller, when
            known (it almost always is — the drone navigated there);
            enables perspective rectification.
        """
        if not self.database.labels:
            raise RuntimeError("no signs enrolled; call enroll_canonical_views() first")
        budget = FrameBudget()

        with budget.stage("preprocess"):
            pre = preprocess_frame(frame, self.preprocess_settings, elevation_deg=elevation_deg)
        if not pre.ok:
            return Recognition(
                label=None,
                distance=float("inf"),
                margin=0.0,
                budget=budget.report(),
                reject_reason=pre.reject_reason,
            )
        assert pre.series is not None

        with budget.stage("sax_match"):
            match = self.database.classify(pre.series)
        return self._recognition_from_match(match, budget.report())

    @staticmethod
    def _recognition_from_match(match, report: BudgetReport) -> Recognition:
        """Map a database MatchResult onto a Recognition."""
        if match.label is None:
            return Recognition(
                label=None,
                distance=match.distance,
                margin=match.margin,
                budget=report,
                reject_reason="no database entry within threshold",
            )
        return Recognition(
            label=match.label,
            distance=match.distance,
            margin=match.margin,
            budget=report,
        )

    def recognize_batch(
        self,
        frames: Sequence[Image],
        elevation_deg: float | Sequence[float] | None = None,
    ) -> list[Recognition]:
        """Recognise a batch of frames in one amortised pass.

        Batch-first end to end: pre-processing is one
        :func:`~repro.recognition.preprocess.preprocess_frames` call
        (each distinct frame runs once through the windowed fast
        stages), and SAX matching is a single batched database call
        scoring every usable series against the enrolment-time FFT
        cache.  Per-frame results are bit-identical to calling
        :meth:`recognise` on each frame.  All returned
        :class:`Recognition`\\ s share one batch-level
        :class:`BudgetReport` whose budget check applies to the
        amortised per-frame cost.

        Parameters
        ----------
        elevation_deg:
            A single elevation applied to every frame, or one elevation
            per frame.
        """
        frames = list(frames)
        if not self.database.labels:
            raise RuntimeError("no signs enrolled; call enroll_canonical_views() first")
        budget = FrameBudget(frame_count=max(1, len(frames)))
        with budget.stage("preprocess"):
            pres = preprocess_frames(
                frames, self.preprocess_settings, elevation_deg=elevation_deg
            )
        usable = [pre.series for pre in pres if pre.ok]
        with budget.stage("sax_match"):
            matches = iter(self.database.classify_batch(usable) if usable else [])
        report = budget.report()
        results: list[Recognition] = []
        for pre in pres:
            if not pre.ok:
                results.append(
                    Recognition(
                        label=None,
                        distance=float("inf"),
                        margin=0.0,
                        budget=report,
                        reject_reason=pre.reject_reason,
                    )
                )
            else:
                results.append(self._recognition_from_match(next(matches), report))
        return results

    def recognise_observation(
        self,
        sign: MarshallingSign,
        altitude_m: float,
        distance_m: float,
        azimuth_deg: float,
        lean_deg: float = 0.0,
        render_settings: RenderSettings | None = None,
    ) -> Recognition:
        """Render *sign* from the given viewpoint and recognise it.

        Convenience used by the altitude/azimuth envelope benchmarks —
        the synthetic analogue of the paper's field configuration.
        """
        camera = observation_camera(altitude_m, distance_m, azimuth_deg)
        pose = pose_for_sign(sign, lean_deg=lean_deg)
        frame = render_frame(pose, camera, render_settings)
        return self.recognise(
            frame, elevation_deg=observation_elevation_deg(altitude_m, distance_m)
        )

    def word_table(self) -> dict[str, str]:
        """SAX words of all enrolled signs (uniqueness evidence, R4)."""
        return self.database.word_table()
