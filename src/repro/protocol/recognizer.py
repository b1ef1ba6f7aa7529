"""Recognition-in-the-loop perception for mission-scale simulation.

:class:`RecognizerPerception` implements the
:class:`~repro.protocol.perception.Perception` interface with the *real*
batched recognition stack: it renders the interlocutor's current pose
through the drone's camera and classifies the frame via
:func:`~repro.recognition.preprocess.preprocess_frames` +
:meth:`~repro.sax.database.SignDatabase.classify_batch`.  It is the
environment's ``"recognizer"`` perception kind, and it is built to sit
inside a *fleet* of concurrent missions:

* **Trust envelope** — queries outside the pipeline's *measured*
  reliable zone (:class:`RecognitionEnvelope`) return ``None`` without
  rendering, exactly as the calibrated
  :class:`~repro.protocol.perception.OraclePerception` refuses geometry
  outside its envelope.  The azimuth bound is much tighter than the
  oracle's (25° vs 65°): from ~30° relative azimuth upward the
  foreshortened IDLE silhouette starts aliasing into NO/ATTENTION
  (false-positive distances 0.43–0.54, just under the 0.55 acceptance
  threshold), so a mission-grade perception must not trust reads
  there.  During negotiation the interlocutor faces the drone
  (azimuth ≈ 0°), so the tighter gate is behaviourally transparent —
  the Oracle-parity contract in ``docs/ARCHITECTURE.md`` makes this
  precise.
* **Pose-quantised memoisation** — the camera pose is snapped to a
  5 cm grid (:data:`POSE_QUANTUM_M`) before rendering, making repeated
  observations of a hovering drone watching a held sign *identical*
  queries; their classification is answered from an LRU cache instead
  of re-rendering.  Quantisation is part of the perception's semantics
  (applied on every path), so cached and uncached answers can never
  disagree.
* **Cross-mission batching** — the seams :meth:`pending_misses`,
  :meth:`render_batch`, :meth:`preprocess_batch` and :meth:`match_batch`
  resolve any number of distinct queries (typically one per mission per
  fleet tick) through a single ``preprocess_frames`` +
  ``classify_batch`` pass; per-frame results are bit-identical to the
  scalar path, so a batched fleet replays a sequential run exactly.

The perception keeps counters, not timers: in a fleet, the stage loop
(:mod:`repro.mission.pipeline`) times the ``render``, ``preprocess``
and ``match`` seams as stages of their own.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Sequence

from repro.geometry.camera import CameraIntrinsics, PinholeCamera
from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.pose import BodyDimensions, HumanPose, capsule_endpoints, pose_for_sign
from repro.human.render import RenderSettings, render_capsules
from repro.human.signs import MarshallingSign
from repro.protocol.perception import ObservationGeometry
from repro.recognition.pipeline import (
    TORSO_CENTRE_HEIGHT_M,
    SaxSignRecognizer,
    label_to_sign,
    observation_elevation_deg,
)
from repro.recognition.preprocess import preprocess_frames
from repro.vision.image import Image

__all__ = [
    "POSE_QUANTUM_M",
    "RecognitionEnvelope",
    "ObservationQuery",
    "PerceptionStats",
    "RecognizerPerception",
]

# Drone camera intrinsics used for every mission observation (matches
# the canonical enrolment views).
_OBSERVATION_INTRINSICS = CameraIntrinsics(240, 240, 280.0)

# A query's ``dim_key``: the BodyDimensions field values in declaration
# order, the same tuple ``dataclasses.astuple`` gives without its
# recursive deep copy.
_dimension_key = attrgetter(*(f.name for f in fields(BodyDimensions)))

#: Camera-position grid step (m) every observation query snaps to.
POSE_QUANTUM_M = 0.05


@dataclass(frozen=True, slots=True)
class RecognitionEnvelope:
    """The geometry region inside which the SAX pipeline is trusted.

    Altitude and range bounds mirror the calibrated oracle envelope;
    the azimuth bound is the *measured* zone in which every
    communicative sign is read correctly across persona leans (±12°)
    and — critically — the IDLE pose is reliably rejected under every
    built-in lighting condition.  From ~30° azimuth upward the
    oblique IDLE silhouette aliases into NO/ATTENTION; inside 25° no
    false positive was found across the distance/altitude jitter a
    buffeted hover produces.  Beyond the envelope, recognition results
    are discarded rather than trusted.
    """

    min_altitude_m: float = 2.0
    max_azimuth_deg: float = 25.0
    max_range_m: float = 12.0

    def allows(self, geometry: ObservationGeometry) -> bool:
        """Return ``True`` when *geometry* is inside the trust region."""
        slant = math.hypot(geometry.horizontal_distance_m, geometry.altitude_m)
        return (
            geometry.altitude_m >= self.min_altitude_m
            and geometry.relative_azimuth_deg <= self.max_azimuth_deg
            and slant <= self.max_range_m
        )


@dataclass(frozen=True)
class ObservationQuery:
    """One fully-specified render-and-classify request.

    Equality and hash cover every input that influences the rendered
    frame (signalled pose, body dimensions, quantised camera position,
    photometric settings), so equal queries are guaranteed to produce
    pixel-identical frames — the contract the memoisation cache relies
    on.  ``dimensions`` itself is carried for rendering but excluded
    from comparison in favour of its value tuple ``dim_key``.
    """

    sign: MarshallingSign
    lean_deg: float
    human_x: float
    human_y: float
    facing_deg: float
    camera_x: float
    camera_y: float
    camera_z: float
    settings: RenderSettings
    dim_key: tuple[float, ...]
    dimensions: BodyDimensions = field(compare=False)

    @staticmethod
    def build(
        drone_position: Vec3, human: HumanAgent, settings: RenderSettings
    ) -> "ObservationQuery":
        """Build the query for observing *human* from *drone_position*.

        The camera position is snapped to the :data:`POSE_QUANTUM_M`
        grid; everything else is taken from the human's current state.
        """
        q = POSE_QUANTUM_M
        return ObservationQuery(
            sign=human.current_sign,
            lean_deg=human.current_lean_deg,
            human_x=human.position.x,
            human_y=human.position.y,
            facing_deg=human.facing_deg,
            camera_x=round(drone_position.x / q) * q,
            camera_y=round(drone_position.y / q) * q,
            camera_z=round(drone_position.z / q) * q,
            settings=settings,
            dim_key=_dimension_key(human.dimensions),
            dimensions=human.dimensions,
        )

    @property
    def camera_position(self) -> Vec3:
        """The quantised camera position."""
        return Vec3(self.camera_x, self.camera_y, self.camera_z)

    @property
    def torso_target(self) -> Vec3:
        """The camera look-at point (signaller's torso centre)."""
        return Vec3(self.human_x, self.human_y, TORSO_CENTRE_HEIGHT_M)

    @property
    def elevation_deg(self) -> float:
        """Observation elevation used for perspective rectification."""
        horizontal = math.hypot(
            self.camera_x - self.human_x, self.camera_y - self.human_y
        )
        return observation_elevation_deg(self.camera_z, max(horizontal, 0.1))

    def pose(self) -> HumanPose:
        """The signaller's skeleton for this query."""
        return pose_for_sign(
            self.sign,
            position=Vec3(self.human_x, self.human_y, 0.0),
            facing_deg=self.facing_deg,
            dimensions=self.dimensions,
            lean_deg=self.lean_deg,
        )

    def camera(self) -> PinholeCamera:
        """The observing drone camera for this query."""
        return PinholeCamera(
            position=self.camera_position,
            target=self.torso_target,
            intrinsics=_OBSERVATION_INTRINSICS,
        )

    def render(self) -> Image:
        """Render the query's frame (deterministic): ``render_frame`` of
        :meth:`pose`, drawn from its capsules with no skeleton built."""
        endpoints, radii = capsule_endpoints(
            self.sign,
            position=Vec3(self.human_x, self.human_y, 0.0),
            facing_deg=self.facing_deg,
            dimensions=self.dimensions,
            lean_deg=self.lean_deg,
        )
        return render_capsules(endpoints, radii, self.camera(), self.settings)


def _at_torso(x: float, y: float, z: float, human_x: float, human_y: float) -> bool:
    """Whether a camera at ``(x, y, z)`` sits on the signaller's torso
    centre (within 1e-6 m on every axis): a degenerate pose."""
    return (
        abs(x - human_x) <= 1e-6
        and abs(y - human_y) <= 1e-6
        and abs(z - TORSO_CENTRE_HEIGHT_M) <= 1e-6
    )


@dataclass(frozen=True, slots=True)
class PerceptionStats:
    """Counters describing how a :class:`RecognizerPerception` worked."""

    observations: int
    gated: int
    cache_hits: int
    frames_classified: int
    batch_calls: int

    @property
    def rendered_fraction(self) -> float:
        """Fraction of observations that needed a fresh render."""
        if self.observations == 0:
            return 0.0
        return self.frames_classified / self.observations


class _PerceptionCore:
    """State shared by every view of one perception: recogniser, cache
    and counters."""

    def __init__(self, recognizer: SaxSignRecognizer, max_cache_entries: int) -> None:
        self.recognizer = recognizer
        self.max_cache_entries = max_cache_entries
        self.cache: OrderedDict[ObservationQuery, MarshallingSign | None] = OrderedDict()
        self.observations = 0
        self.gated = 0
        self.cache_hits = 0
        self.frames_classified = 0
        self.batch_calls = 0


class RecognizerPerception:
    """Batched, envelope-gated, memoising full-pipeline perception.

    Implements the :class:`~repro.protocol.perception.Perception`
    protocol, so it drops into
    :class:`~repro.protocol.negotiation.NegotiationController` and
    :class:`~repro.mission.executor.MissionExecutor` wherever an
    :class:`~repro.protocol.perception.OraclePerception` would.  Every
    query is gated by :attr:`envelope` and snapped to the
    :data:`POSE_QUANTUM_M` grid.

    Parameters
    ----------
    recognizer:
        A ready :class:`~repro.recognition.pipeline.SaxSignRecognizer`;
        built and enrolled with canonical views when omitted.
    render_settings:
        Photometric conditions of this view's renders (per-mission
        lighting); defaults to baseline :class:`RenderSettings`.
    max_cache_entries:
        LRU capacity of the result cache.
    """

    #: Geometry trust region; see :class:`RecognitionEnvelope`.
    envelope = RecognitionEnvelope()

    def __init__(
        self,
        recognizer: SaxSignRecognizer | None = None,
        render_settings: RenderSettings | None = None,
        max_cache_entries: int = 8192,
    ) -> None:
        if recognizer is None:
            recognizer = SaxSignRecognizer()
            recognizer.enroll_canonical_views()
        elif not recognizer.enrolled_signs:
            recognizer.enroll_canonical_views()
        self.render_settings = (
            render_settings if render_settings is not None else RenderSettings()
        )
        self._core = _PerceptionCore(recognizer, max_cache_entries)

    # -- views ----------------------------------------------------------------------

    def with_render_settings(self, render_settings: RenderSettings) -> "RecognizerPerception":
        """A view of this perception under different lighting.

        The returned instance shares the recogniser, cache and
        counters — a fleet gives each mission its own lighting view
        while all observations flow through one batched core.
        """
        twin = RecognizerPerception.__new__(RecognizerPerception)
        twin.render_settings = render_settings
        twin._core = self._core
        return twin

    @property
    def recognizer(self) -> SaxSignRecognizer:
        """The underlying shared recogniser."""
        return self._core.recognizer

    @property
    def core_key(self) -> int:
        """Identity of the shared core: views share caches iff equal."""
        return id(self._core)

    # -- query construction ---------------------------------------------------------

    def query(
        self, drone_position: Vec3, human: HumanAgent
    ) -> ObservationQuery | None:
        """The render-and-classify request for this observation.

        Returns ``None`` when the observation is decided *without*
        recognition: geometry outside the trust envelope, or a
        degenerate camera pose — those observations read ``None``.
        """
        position = human.position
        hx, hy = position.x, position.y
        if _at_torso(drone_position.x, drone_position.y, drone_position.z, hx, hy):
            return None
        query = ObservationQuery.build(drone_position, human, self.render_settings)
        x, y, z = query.camera_x, query.camera_y, query.camera_z
        if _at_torso(x, y, z, hx, hy):
            return None
        if not self.envelope.allows(ObservationGeometry.at(x, y, z, human)):
            return None
        return query

    # -- Perception protocol ----------------------------------------------------------

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Read the human's sign through the full batched pipeline."""
        core = self._core
        core.observations += 1
        query = self.query(drone_position, human)
        if query is None:
            core.gated += 1
            return None
        cache = core.cache
        if query in cache:
            cache.move_to_end(query)
            core.cache_hits += 1
            return cache[query]
        misses = [query]
        frames = self.render_batch(misses)
        return self.match_batch(misses, self.preprocess_batch(misses, frames))[0]

    # -- fleet-stage seams --------------------------------------------------------------
    #
    # The fleet stage loop (repro.mission.pipeline) calls one seam per
    # stage; observe() composes the very same seams on a cache miss, so
    # the loop cannot diverge from the direct path.

    def pending_misses(
        self, queries: Sequence[ObservationQuery | None]
    ) -> list[ObservationQuery]:
        """The deduplicated cache misses of *queries*, in order.

        Drops ``None`` entries and already-cached queries, promoting the
        cached ones in the LRU order exactly as :meth:`observe` would.
        """
        cache = self._core.cache
        misses: list[ObservationQuery] = []
        seen: set[ObservationQuery] = set()
        for query in queries:
            if query is None or query in seen:
                continue
            seen.add(query)
            if query in cache:
                cache.move_to_end(query)
            else:
                misses.append(query)
        return misses

    def render_batch(self, misses: Sequence[ObservationQuery]) -> list[Image]:
        """Render every missed query's frame."""
        return [query.render() for query in misses]

    def preprocess_batch(
        self, misses: Sequence[ObservationQuery], frames: Sequence[Image]
    ) -> list:
        """Run the batched vision front-end over rendered query frames.

        One :func:`~repro.recognition.preprocess.preprocess_frames`
        call over the whole batch; returns the per-frame
        ``PreprocessResult`` list.
        """
        return preprocess_frames(
            frames,
            self._core.recognizer.preprocess_settings,
            elevation_deg=[query.elevation_deg for query in misses],
        )

    def match_batch(
        self, misses: Sequence[ObservationQuery], pres: Sequence
    ) -> list[MarshallingSign | None]:
        """SAX-match preprocessed queries and fill the result cache.

        One batched
        :meth:`~repro.sax.database.SignDatabase.classify_batch` call
        over the usable series.  Per-frame verdicts map onto
        :class:`~repro.human.signs.MarshallingSign` through
        :func:`~repro.recognition.pipeline.label_to_sign`, as
        :attr:`~repro.recognition.pipeline.Recognition.sign` does;
        unusable frames (no silhouette) read ``None``.
        """
        core = self._core
        usable = [pre.series for pre in pres if pre.ok]
        matches = iter(core.recognizer.database.classify_batch(usable) if usable else [])
        core.batch_calls += 1
        signs = [label_to_sign(next(matches).label) if pre.ok else None for pre in pres]
        core.frames_classified += len(misses)
        cache = core.cache
        for query, sign in zip(misses, signs):
            cache[query] = sign
        while len(cache) > core.max_cache_entries:
            cache.popitem(last=False)
        return signs

    def peek(self, query: ObservationQuery) -> tuple[bool, MarshallingSign | None]:
        """Read *query*'s cached verdict without disturbing the cache.

        Unlike :meth:`pending_misses` this neither promotes the entry
        in the LRU order nor bumps any counter — the flight recorder's
        zero-intrusion read of what ``match`` just resolved.
        """
        cache = self._core.cache
        if query in cache:
            return True, cache[query]
        return False, None

    # -- reporting ----------------------------------------------------------------------

    @property
    def stats(self) -> PerceptionStats:
        """Counters for this perception (shared across views)."""
        return PerceptionStats(*self.counters)

    @property
    def counters(self) -> tuple[int, int, int, int, int]:
        """:attr:`stats` as a tuple in field order, without building a
        :class:`PerceptionStats` — the cheap per-tick read the flight
        recorder uses."""
        core = self._core
        return (
            core.observations,
            core.gated,
            core.cache_hits,
            core.frames_classified,
            core.batch_calls,
        )
