"""Dynamic-sign recognition: temporal SAX (paper future work).

Extends the static pipeline to the dynamic marshalling signals of
:mod:`repro.human.dynamic` without abandoning the paper's cheapness
philosophy: the keyframe shapes of every dynamic sign are enrolled in
one :class:`~repro.recognition.pipeline.SaxSignRecognizer` (labelled
``"<sign>#<keyframe>"``), every observed frame is read by that
recogniser exactly like a static sign, and the temporal axis is decoded
as a string of keyframe labels — the signal is recognised when the
label sequence visits at least one full cycle of its keyframes in order.

:meth:`DynamicSignRecognizer.classify_frame` reads one frame with the
scalar :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognise`;
:meth:`DynamicSignRecognizer.recognize_window` reads a whole window
with one :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognize_batch`
call.  Both feed the same :meth:`DynamicSignRecognizer.decode`, so the
batched window equals the scalar loop label for label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.geometry.camera import observation_camera
from repro.human.dynamic import DynamicSign
from repro.human.render import RenderSettings, render_frame
from repro.recognition.pipeline import SaxSignRecognizer, observation_elevation_deg
from repro.recognition.preprocess import PreprocessSettings
from repro.sax.encoder import SaxParameters
from repro.vision.image import Image

__all__ = [
    "DynamicObservation",
    "DynamicRecognition",
    "DynamicSignRecognizer",
]


@dataclass(frozen=True, slots=True)
class DynamicObservation:
    """One frame's keyframe verdict."""

    time_s: float
    label: str | None  # e.g. "wave_off#1", or None when unreadable


@dataclass(frozen=True)
class DynamicRecognition:
    """Outcome of decoding an observation window."""

    sign_name: str | None
    cycles_seen: int
    observations: tuple[DynamicObservation, ...]

    @property
    def recognised(self) -> bool:
        """``True`` when a dynamic sign was decoded."""
        return self.sign_name is not None


def _count_cycles(sign: DynamicSign, labels: Sequence[str | None]) -> int:
    """Full in-order keyframe cycles of *sign* in a label sequence.

    Labels of other signs and unreadable (``None``) frames are skipped,
    a repeated label means the keyframe is still being held, an in-order
    keyframe advances the cycle position, the first keyframe restarts
    mid-stream, anything else resets the position.
    """
    prefix = f"{sign.name}#"
    expected = sign.expected_label_cycle()
    position, last_label, cycles = 0, None, 0
    for label in labels:
        if label is None or not label.startswith(prefix) or label == last_label:
            continue
        last_label = label
        if label == expected[position]:
            position += 1
            if position == len(expected):
                cycles += 1
                position = 0
        elif label == expected[0]:
            position = 1
        else:
            position = 0
    return cycles


def _window_times(
    count: int, times: Sequence[float] | None, sample_hz: float | None
) -> list[float]:
    """Resolve per-frame timestamps for a *count*-frame window.

    Explicit *times* win; else *sample_hz* yields ``k / sample_hz``;
    else frame indices are used as seconds.
    """
    if times is not None:
        resolved = [float(t) for t in times]
        if len(resolved) != count:
            raise ValueError(f"{len(resolved)} timestamps for {count} frames")
        return resolved
    if sample_hz is not None:
        if sample_hz <= 0:
            raise ValueError("sample rate must be positive")
        return [k / sample_hz for k in range(count)]
    return [float(k) for k in range(count)]


class DynamicSignRecognizer:
    """Recognises periodic signals as keyframe-label sequences.

    Parameters
    ----------
    sax_parameters, acceptance_threshold, margin_threshold, preprocess_settings:
        Settings of :attr:`recognizer`, the static recogniser that
        holds the keyframe database and reads every frame.
    min_cycles:
        Full keyframe cycles required before a signal is accepted
        (2 by default: one cycle can be coincidence, two is intent —
        the same reasoning behind the drone's repeated nod/turn).
    """

    def __init__(
        self,
        sax_parameters: SaxParameters | None = None,
        acceptance_threshold: float = 0.55,
        margin_threshold: float = 0.05,
        preprocess_settings: PreprocessSettings | None = None,
        min_cycles: int = 2,
    ) -> None:
        if min_cycles < 1:
            raise ValueError("min_cycles must be >= 1")
        self.recognizer = SaxSignRecognizer(
            sax_parameters=sax_parameters,
            acceptance_threshold=acceptance_threshold,
            margin_threshold=margin_threshold,
            preprocess_settings=preprocess_settings,
        )
        self.min_cycles = min_cycles
        self._signs: dict[str, DynamicSign] = {}

    # -- enrolment ------------------------------------------------------------------

    def enroll(
        self,
        sign: DynamicSign,
        altitude_m: float = 5.0,
        distance_m: float = 3.0,
        azimuths_deg: tuple[float, ...] = (0.0, 30.0),
    ) -> None:
        """Enrol every keyframe of *sign* from synthetic views.

        Each keyframe × azimuth view is rendered and enrolled in
        :attr:`recognizer` as ``"<sign>#<keyframe>"``.
        """
        elevation = observation_elevation_deg(altitude_m, distance_m)
        settings = RenderSettings(noise_sigma=0.0)
        for index in range(sign.n_keyframes):
            for azimuth in azimuths_deg:
                camera = observation_camera(altitude_m, distance_m, azimuth)
                self.recognizer.enroll_sign(
                    f"{sign.name}#{index}",
                    render_frame(sign.keyframe_pose(index), camera, settings),
                    elevation_deg=elevation,
                    view=f"az{azimuth:.0f}",
                )
        self._signs[sign.name] = sign

    @property
    def enrolled_signs(self) -> list[str]:
        """Names of enrolled dynamic signs."""
        return list(self._signs)

    def _require_enrolled(self) -> None:
        if not self._signs:
            raise RuntimeError("no dynamic signs enrolled; call enroll() first")

    # -- recognition ----------------------------------------------------------------

    def classify_frame(
        self, frame: Image, time_s: float, elevation_deg: float | None = None
    ) -> DynamicObservation:
        """Read one frame's keyframe label (the scalar reference)."""
        self._require_enrolled()
        label = self.recognizer.recognise(frame, elevation_deg=elevation_deg).label
        return DynamicObservation(time_s=time_s, label=label)

    def decode(self, observations: Sequence[DynamicObservation]) -> DynamicRecognition:
        """Decode an observation window into a dynamic-sign verdict.

        A sign is recognised when its keyframe labels appear in cyclic
        order for at least ``min_cycles`` full cycles; other signs'
        labels or unreadable frames reset nothing (they are simply
        skipped), so brief occlusions do not break a decode.  Signs are
        tried in enrolment order and ties keep the earlier sign.
        """
        observations = tuple(observations)
        labels = [observation.label for observation in observations]
        best_name: str | None = None
        best_cycles = 0
        for name, sign in self._signs.items():
            cycles = _count_cycles(sign, labels)
            if cycles > best_cycles:
                best_name, best_cycles = name, cycles
        if best_cycles < self.min_cycles:
            best_name = None
        return DynamicRecognition(
            sign_name=best_name, cycles_seen=best_cycles, observations=observations
        )

    def observe_sequence(
        self,
        sign_renderer: Callable[[float], Image],
        duration_s: float,
        sample_hz: float,
        elevation_deg: float | None = None,
    ) -> DynamicRecognition:
        """Sample ``sign_renderer(t) -> Image`` at *sample_hz* and decode.

        The scalar reference loop: one :meth:`classify_frame` per frame.
        *sign_renderer* abstracts where frames come from (simulation or
        recorded sequence); see the dynamic-sign benchmark for use.
        """
        if duration_s <= 0 or sample_hz <= 0:
            raise ValueError("duration and sample rate must be positive")
        observations = []
        steps = int(duration_s * sample_hz)
        for k in range(steps):
            t = k / sample_hz
            frame = sign_renderer(t)
            observations.append(self.classify_frame(frame, t, elevation_deg))
        return self.decode(observations)

    def recognize_window(
        self,
        frames: Sequence[Image],
        times: Sequence[float] | None = None,
        elevation_deg: float | Sequence[float] | None = None,
        sample_hz: float | None = None,
    ) -> DynamicRecognition:
        """Recognise a dynamic sign over one observation window, batched.

        The labels come from one
        :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognize_batch`
        call and the verdict from :meth:`decode`; observation *i* equals
        ``classify_frame(frames[i], times[i], elevation_deg)``.

        Parameters
        ----------
        times:
            Per-frame timestamps; defaults to ``k / sample_hz``, or to
            frame indices without a rate.
        elevation_deg:
            One elevation for every frame, or one per frame.
        """
        frames = list(frames)
        resolved_times = _window_times(len(frames), times, sample_hz)
        self._require_enrolled()
        recognitions = self.recognizer.recognize_batch(frames, elevation_deg=elevation_deg)
        return self.decode(
            [
                DynamicObservation(time_s=time_s, label=recognition.label)
                for time_s, recognition in zip(resolved_times, recognitions)
            ]
        )
