"""Dynamic-sign recognition: temporal SAX (paper future work).

Extends the static pipeline to the dynamic marshalling signals of
:mod:`repro.human.dynamic` without abandoning the paper's cheapness
philosophy: every observed frame goes through the ordinary
shape-to-SAX-string machinery against a database of *keyframe* shapes,
and the temporal axis is decoded as a string of keyframe labels — the
signal is recognised when the label sequence visits at least one full
cycle of its keyframes in order.

Two code paths share these semantics (see ``docs/ARCHITECTURE.md``):

* the **scalar reference** — :meth:`DynamicSignRecognizer.classify_frame`
  per frame plus :meth:`DynamicSignRecognizer.decode` over the window;
* the **streaming batch engine** —
  :meth:`DynamicSignRecognizer.recognize_window` feeds the whole
  observation window through the windowed
  :func:`~repro.recognition.preprocess.preprocess_frames` front-end and
  one :meth:`~repro.sax.database.SignDatabase.classify_batch` call, and
  :meth:`DynamicSignRecognizer.open_stream` /
  :meth:`DynamicSignRecognizer.decode_stream` consume frames in chunks
  through the incremental :class:`DynamicWindowDecoder`, which never
  re-decodes the already-seen prefix.

Per-frame labels are bit-identical between the two paths (the batched
vision stages and matcher are bit-identical to their scalar twins, and
parity tests enforce it end to end), and the chunked decoder state
machine is the same object the scalar decoder runs over a whole window
— so chunking can never change a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.geometry.camera import PinholeCamera, observation_camera
from repro.human.dynamic import DynamicSign
from repro.human.render import RenderSettings, render_frame
from repro.recognition.budget import BudgetReport, FrameBudget
from repro.recognition.pipeline import observation_elevation_deg
from repro.recognition.preprocess import (
    PreprocessSettings,
    broadcast_elevations,
    preprocess_frame,
    preprocess_frames,
)
from repro.sax.database import SignDatabase
from repro.sax.encoder import SaxParameters
from repro.vision.image import Image

__all__ = [
    "DynamicObservation",
    "DynamicRecognition",
    "DynamicSignRecognizer",
    "DynamicSignStream",
    "DynamicWindowDecoder",
]


@dataclass(frozen=True, slots=True)
class DynamicObservation:
    """One frame's keyframe verdict."""

    time_s: float
    label: str | None  # e.g. "wave_off#1", or None when unreadable


@dataclass(frozen=True)
class DynamicRecognition:
    """Outcome of decoding an observation window.

    ``budget`` is attached by the batched window/stream paths (one
    amortised :class:`~repro.recognition.budget.BudgetReport` for the
    whole window) and ``None`` for the plain scalar decoder.
    """

    sign_name: str | None
    cycles_seen: int
    observations: tuple[DynamicObservation, ...]
    budget: BudgetReport | None = None

    @property
    def recognised(self) -> bool:
        """``True`` when a dynamic sign was decoded."""
        return self.sign_name is not None


class _CycleTracker:
    """Incremental keyframe-cycle counter for one dynamic sign.

    This is *the* decoder state machine: the scalar
    :meth:`DynamicSignRecognizer.decode` runs a fresh tracker over a
    whole window, the streaming :class:`DynamicWindowDecoder` keeps the
    same trackers alive across chunks — parity between chunked and
    whole-window decoding holds by construction, not by re-decoding.

    Semantics (unchanged from the original scalar decoder): labels of
    other signs and unreadable (``None``) frames are skipped, a repeated
    label means the keyframe is still being held, an in-order keyframe
    advances the cycle position, the first keyframe restarts mid-stream,
    anything else resets the position.
    """

    __slots__ = ("_prefix", "_expected", "_position", "_last_label", "cycles")

    def __init__(self, sign: DynamicSign) -> None:
        self._prefix = f"{sign.name}#"
        self._expected = sign.expected_label_cycle()
        self._position = 0
        self._last_label: str | None = None
        self.cycles = 0

    def push(self, label: str | None) -> None:
        """Advance the state machine by one observed frame label."""
        if label is None or not label.startswith(self._prefix):
            return
        if label == self._last_label:
            return  # still holding the same keyframe
        self._last_label = label
        if label == self._expected[self._position]:
            self._position += 1
            if self._position == len(self._expected):
                self.cycles += 1
                self._position = 0
        elif label == self._expected[0]:
            self._position = 1  # restart mid-stream
        else:
            self._position = 0


class DynamicWindowDecoder:
    """Incremental windowed decoder over keyframe-label observations.

    Consumes observations chunk by chunk (:meth:`extend` /
    :meth:`push`); per-sign cycle state persists between chunks, so a
    growing window is decoded in amortised O(chunk) — the already-seen
    prefix is never revisited.  :meth:`result` is pure: it can be read
    after every chunk and always equals what the scalar decoder would
    return for the concatenation of everything fed so far.
    """

    def __init__(self, signs: Mapping[str, DynamicSign], min_cycles: int = 2) -> None:
        if min_cycles < 1:
            raise ValueError("min_cycles must be >= 1")
        self.min_cycles = min_cycles
        self._trackers = {name: _CycleTracker(sign) for name, sign in signs.items()}
        self._observations: list[DynamicObservation] = []

    @property
    def frames_seen(self) -> int:
        """Number of observations consumed so far."""
        return len(self._observations)

    def push(self, observation: DynamicObservation) -> None:
        """Consume one observation."""
        self._observations.append(observation)
        for tracker in self._trackers.values():
            tracker.push(observation.label)

    def extend(self, observations: Iterable[DynamicObservation]) -> None:
        """Consume a chunk of observations (prefix state is kept)."""
        for observation in observations:
            self.push(observation)

    def result(self, budget: BudgetReport | None = None) -> DynamicRecognition:
        """The verdict over everything consumed so far.

        Sign iteration order is enrolment order and ties keep the
        earlier sign, exactly like the scalar decoder.
        """
        best_name: str | None = None
        best_cycles = 0
        for name, tracker in self._trackers.items():
            if tracker.cycles > best_cycles:
                best_name, best_cycles = name, tracker.cycles
        if best_cycles < self.min_cycles:
            best_name = None
        return DynamicRecognition(
            sign_name=best_name,
            cycles_seen=best_cycles,
            observations=tuple(self._observations),
            budget=budget,
        )


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


class DynamicSignStream:
    """A live decode session over an open-ended frame stream.

    Obtained from :meth:`DynamicSignRecognizer.open_stream`.  Each
    :meth:`feed` call classifies one chunk of frames through the batched
    front-end and advances the incremental decoder; the returned
    :class:`DynamicRecognition` is the verdict over *all* frames fed so
    far.  One :class:`~repro.recognition.budget.FrameBudget` accumulates
    across chunks, so the attached report always shows the amortised
    per-frame cost of the whole session.

    A periodic signal sampled commensurately with its period revisits
    the *same* frames, so the stream memoises per-frame labels by frame
    object identity **across chunks** (holding a reference keeps the
    identity stable; ``memo_capacity`` distinct frames are retained,
    oldest evicted first).  Identical objects trivially classify
    identically, so the memo cannot change any label — chunked
    streaming stays bit-identical to one-shot window decoding.
    """

    #: Distinct frames remembered across chunks before eviction.
    memo_capacity: int = 256

    def __init__(
        self,
        recognizer: "DynamicSignRecognizer",
        elevation_deg: float | None = None,
        sample_hz: float | None = None,
    ) -> None:
        self._recognizer = recognizer
        self._elevation_deg = elevation_deg
        self._sample_hz = sample_hz
        self._decoder = recognizer.decoder()
        self._budget = FrameBudget(budget_s=recognizer.frame_budget_s)
        self._frames_fed = 0
        # (id(frame), elevation) -> (frame ref, label); the ref pins the
        # object so its id cannot be recycled while the entry lives.
        self._memo: dict[tuple[int, float | None], tuple[Image, str | None]] = {}

    @property
    def frames_fed(self) -> int:
        """Total frames consumed across all chunks."""
        return self._frames_fed

    @property
    def recognition(self) -> DynamicRecognition:
        """The current verdict (same as the last :meth:`feed` return)."""
        return self._decoder.result(self._budget.report())

    def feed(
        self,
        frames: Sequence[Image],
        times: Sequence[float] | None = None,
        elevation_deg: float | Sequence[float] | None = None,
    ) -> DynamicRecognition:
        """Classify a chunk of frames and fold it into the decode.

        When *times* is omitted, timestamps continue the stream's clock
        (``frames_fed / sample_hz``, or frame indices without a rate).
        *elevation_deg* defaults to the stream-level elevation.  Frames
        already seen (same object, same elevation) reuse their memoised
        label; only genuinely new frames enter the batched front-end.
        """
        frames = list(frames)
        if times is None:
            start = self._frames_fed
            if self._sample_hz is None:
                times = [float(start + k) for k in range(len(frames))]
            else:
                if self._sample_hz <= 0:
                    raise ValueError("sample rate must be positive")
                times = [(start + k) / self._sample_hz for k in range(len(frames))]
        else:
            times = _window_times(len(frames), times, None)
        if elevation_deg is None:
            elevation_deg = self._elevation_deg
        elevations = broadcast_elevations(elevation_deg, len(frames))
        self._frames_fed += len(frames)
        self._budget.frame_count = max(1, self._frames_fed)

        labels: list[str | None] = [None] * len(frames)
        new_indices = []
        for index, (frame, elevation) in enumerate(zip(frames, elevations)):
            hit = self._memo.get((id(frame), elevation))
            if hit is not None and hit[0] is frame:
                labels[index] = hit[1]
            else:
                new_indices.append(index)
        if new_indices:
            fresh = self._recognizer.classify_window(
                [frames[i] for i in new_indices],
                [times[i] for i in new_indices],
                elevation_deg=[elevations[i] for i in new_indices],
                budget=self._budget,
            )
            for index, observation in zip(new_indices, fresh):
                labels[index] = observation.label
                self._memo[(id(frames[index]), elevations[index])] = (
                    frames[index],
                    observation.label,
                )
                while len(self._memo) > self.memo_capacity:
                    self._memo.pop(next(iter(self._memo)))
        observations = [
            DynamicObservation(time_s=t, label=label)
            for t, label in zip(times, labels)
        ]
        with self._budget.stage("decode"):
            self._decoder.extend(observations)
        return self._decoder.result(self._budget.report())


class DynamicSignRecognizer:
    """Recognises periodic signals as keyframe-label sequences.

    Parameters
    ----------
    min_cycles:
        Full keyframe cycles required before a signal is accepted
        (2 by default: one cycle can be coincidence, two is intent —
        the same reasoning behind the drone's repeated nod/turn).
    frame_budget_s:
        Real-time budget per frame for the batched window/stream paths
        (default: 30 fps, matching the static recogniser).
    """

    def __init__(
        self,
        sax_parameters: SaxParameters | None = None,
        acceptance_threshold: float = 0.55,
        margin_threshold: float = 0.05,
        preprocess_settings: PreprocessSettings | None = None,
        min_cycles: int = 2,
        frame_budget_s: float = 1.0 / 30.0,
    ) -> None:
        if min_cycles < 1:
            raise ValueError("min_cycles must be >= 1")
        self.preprocess_settings = (
            preprocess_settings if preprocess_settings is not None else PreprocessSettings()
        )
        self.database = SignDatabase(
            parameters=sax_parameters,
            acceptance_threshold=acceptance_threshold,
            margin_threshold=margin_threshold,
        )
        self.min_cycles = min_cycles
        self.frame_budget_s = frame_budget_s
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

        Rendering stays per-view, but all keyframe × azimuth reference
        frames pre-process as one batch through the windowed
        front-end (bit-identical to the scalar path, and the database
        sees the exact same add order as before).
        """
        elevation = observation_elevation_deg(altitude_m, distance_m)
        settings = RenderSettings(noise_sigma=0.0)
        labels: list[tuple[str, str]] = []  # (label, view) in add order
        frames: list[Image] = []
        for index in range(sign.n_keyframes):
            for azimuth in azimuths_deg:
                camera = observation_camera(altitude_m, distance_m, azimuth)
                frames.append(render_frame(sign.keyframe_pose(index), camera, settings))
                labels.append((f"{sign.name}#{index}", f"az{azimuth:.0f}"))
        results = preprocess_frames(frames, self.preprocess_settings, elevation_deg=elevation)
        for (label, view), result in zip(labels, results):
            if not result.ok:
                raise ValueError(f"cannot enrol {label}: {result.reject_reason}")
            assert result.series is not None
            self.database.add(label, result.series, view=view)
        self._signs[sign.name] = sign

    @property
    def enrolled_signs(self) -> list[str]:
        """Names of enrolled dynamic signs."""
        return list(self._signs)

    # -- scalar reference path ------------------------------------------------------

    def classify_frame(
        self, frame: Image, time_s: float, elevation_deg: float | None = None
    ) -> DynamicObservation:
        """Classify one frame against the keyframe database (scalar)."""
        result = preprocess_frame(
            frame, self.preprocess_settings, elevation_deg=elevation_deg
        )
        if not result.ok:
            return DynamicObservation(time_s=time_s, label=None)
        assert result.series is not None
        match = self.database.classify(result.series)
        return DynamicObservation(time_s=time_s, label=match.label)

    def decode(self, observations: Sequence[DynamicObservation]) -> DynamicRecognition:
        """Decode an observation window into a dynamic-sign verdict.

        A sign is recognised when its keyframe labels appear in cyclic
        order for at least ``min_cycles`` full cycles; other signs'
        labels or unreadable frames reset nothing (they are simply
        skipped), so brief occlusions do not break a decode.
        """
        decoder = self.decoder()
        decoder.extend(observations)
        return decoder.result()

    def observe_sequence(
        self,
        sign_renderer: Callable[[float], Image],
        duration_s: float,
        sample_hz: float,
        camera: PinholeCamera,
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

    # -- streaming batch engine -----------------------------------------------------

    def decoder(self) -> DynamicWindowDecoder:
        """A fresh incremental decoder bound to the enrolled signs."""
        return DynamicWindowDecoder(self._signs, self.min_cycles)

    def classify_window(
        self,
        frames: Sequence[Image],
        times: Sequence[float] | None = None,
        elevation_deg: float | Sequence[float] | None = None,
        sample_hz: float | None = None,
        budget: FrameBudget | None = None,
    ) -> list[DynamicObservation]:
        """Classify a whole frame window in one batched pass.

        The window flows through
        :func:`~repro.recognition.preprocess.preprocess_frames` (each
        distinct frame pre-processed once, on its window) and a single
        :meth:`~repro.sax.database.SignDatabase.classify_batch` call;
        observation *i* is bit-identical to
        ``classify_frame(frames[i], times[i], elevation_deg)``.

        Parameters
        ----------
        times:
            Per-frame timestamps; defaults to ``k / sample_hz`` (or
            frame indices without a rate) — see module docstring.
        elevation_deg:
            One elevation for every frame, or one per frame.
        budget:
            Optional :class:`~repro.recognition.budget.FrameBudget` to
            time the ``preprocess`` and ``sax_match`` stages against.
        """
        frames = list(frames)
        resolved_times = _window_times(len(frames), times, sample_hz)
        if budget is None:
            budget = FrameBudget(
                budget_s=self.frame_budget_s, frame_count=max(1, len(frames))
            )
        with budget.stage("preprocess"):
            pres = preprocess_frames(
                frames, self.preprocess_settings, elevation_deg=elevation_deg, budget=budget
            )
        usable = [pre.series for pre in pres if pre.ok]
        with budget.stage("sax_match"):
            matches = iter(self.database.classify_batch(usable) if usable else [])
        observations: list[DynamicObservation] = []
        for time_s, pre in zip(resolved_times, pres):
            label = next(matches).label if pre.ok else None
            observations.append(DynamicObservation(time_s=time_s, label=label))
        return observations

    def recognize_window(
        self,
        frames: Sequence[Image],
        times: Sequence[float] | None = None,
        elevation_deg: float | Sequence[float] | None = None,
        sample_hz: float | None = None,
    ) -> DynamicRecognition:
        """Recognise a dynamic sign over one observation window, batched.

        The batch-first twin of :meth:`observe_sequence`'s inner loop:
        per-frame labels come from :meth:`classify_window` and the
        verdict from the shared decoder state machine, so the result is
        bit-identical to the scalar reference on the same frames.  The
        attached :class:`~repro.recognition.budget.BudgetReport` splits
        the window into ``preprocess`` (with dotted vision sub-stages),
        ``sax_match`` and ``decode``, amortised per frame.
        """
        frames = list(frames)
        budget = FrameBudget(
            budget_s=self.frame_budget_s, frame_count=max(1, len(frames))
        )
        observations = self.classify_window(
            frames, times, elevation_deg=elevation_deg, sample_hz=sample_hz, budget=budget
        )
        decoder = self.decoder()
        with budget.stage("decode"):
            decoder.extend(observations)
        return decoder.result(budget.report())

    # American-spelling project convention; keep a British alias like the
    # static recogniser does.
    recognise_window = recognize_window

    def decode_stream(
        self, observation_chunks: Iterable[Sequence[DynamicObservation]]
    ) -> DynamicRecognition:
        """Decode already-classified observations arriving in chunks.

        Feeds every chunk through one incremental
        :class:`DynamicWindowDecoder`; the result equals
        :meth:`decode` of the concatenated chunks without ever
        re-decoding the prefix.
        """
        decoder = self.decoder()
        for chunk in observation_chunks:
            decoder.extend(chunk)
        return decoder.result()

    def open_stream(
        self,
        elevation_deg: float | None = None,
        sample_hz: float | None = None,
    ) -> DynamicSignStream:
        """Open a live :class:`DynamicSignStream` decode session.

        Parameters
        ----------
        elevation_deg:
            Default observation elevation for every fed chunk.
        sample_hz:
            When set, auto-timestamps fed frames on the stream clock.
        """
        return DynamicSignStream(self, elevation_deg=elevation_deg, sample_hz=sample_hz)

    def observe_window(
        self,
        sign_renderer: Callable[[float], Image],
        duration_s: float,
        sample_hz: float,
        elevation_deg: float | None = None,
    ) -> DynamicRecognition:
        """Render a whole observation window and recognise it batched.

        The batched counterpart of :meth:`observe_sequence`: frames are
        rendered up front and decoded with :meth:`recognize_window`.
        """
        if duration_s <= 0 or sample_hz <= 0:
            raise ValueError("duration and sample rate must be positive")
        steps = int(duration_s * sample_hz)
        frames = [sign_renderer(k / sample_hz) for k in range(steps)]
        return self.recognize_window(
            frames, sample_hz=sample_hz, elevation_deg=elevation_deg
        )
