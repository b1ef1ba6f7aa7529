"""Property-based fuzzing of the recognition stack over the long tail.

A dependency-free mini-Hypothesis specialised to this repo: scenarios
are drawn from the seeded long-tail generator
(:func:`~repro.simulation.scenarios.sample_longtail`), run through the
*real* batched recognisers by :func:`execute_window` — the one window
runner, which also folds a window's labels into its verdict — and
checked against the safety invariants the paper's protocol rests on
(fleet cases fly the full orchard trap fleet stage loop instead):

``verdict_fold``
    An outcome is never marked *correct* unless the independently
    recomputed majority verdict equals the expected label — the system
    must never claim success on a wrong reading.
``safety_fold``
    The ``safe`` flag matches an independent recomputation: no readable
    frame claimed a communicative sign *different* from the
    expectation.
``no_crash``
    Rendering + recognition of any generated scenario never raises.
``envelope_rejection_explicit``
    Observations whose geometry lies outside the trust-envelope
    *fields* are refused explicitly: ``observe`` returns ``None`` and
    the ``gated`` counter increments.  The expectation is computed from
    the envelope's field values — not by calling
    :meth:`~repro.protocol.recognizer.RecognitionEnvelope.allows` — so
    a disabled or monkeypatched envelope check is caught, not echoed.
``deterministic_replay``
    Executing the same scenario twice yields byte-identical frames and
    identical labels (the window *signature* matches).
``transcript_determinism`` / ``negotiation_explicit`` (fleet cases)
    Two runs of the same seeded orchard trap fleet produce identical
    mission transcripts, and every negotiation ends explicitly —
    granted, denied or failed, never left open (a mission a safety
    rule aborted may leave the one round it was running open).

Any failing scenario is **shrunk** by greedy axis-by-axis minimisation
(:func:`shrink_scenario`): candidates drop whole perturbation layers or
step one axis toward its grid's simplest value, and a candidate is
accepted only when it still fails with the *same* invariant.  Every
acceptance strictly decreases the integer
:meth:`~repro.simulation.scenarios.Scenario.complexity`, so
shrinking always terminates at a local minimum.  Minimised cases
serialise to canonical JSON bytes (:func:`case_bytes`) — same seed,
same bytes — which the nightly fuzz job uploads and the regression
corpus under ``tests/data/longtail/`` commits and replays.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace

from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.dynamic import MOVE_UPWARD, WAVE_OFF
from repro.human.persona import WORKER
from repro.human.signs import COMMUNICATIVE_SIGNS, MarshallingSign
from repro.mission.executor import MissionPhase
from repro.mission.fleet import build_fleet, mission_transcript
from repro.mission.orchard import OrchardConfig
from repro.mission.spec import FleetSpec
from repro.protocol.recognizer import RecognizerPerception
from repro.recognition.dynamic import DynamicSignRecognizer
from repro.recognition.pipeline import SaxSignRecognizer
from repro.simulation.scenarios import (
    AXIS_AZIMUTHS_DEG,
    AXIS_BLUR_TAPS,
    AXIS_CONFLICT_OFFSETS,
    AXIS_DRIFT_SPEEDS,
    AXIS_DROP_PERIODS,
    AXIS_LIGHTINGS,
    AXIS_OCCLUSION_FRACTIONS,
    AXIS_PERSONAS,
    AXIS_SIGNS,
    AXIS_VIEWPOINTS,
    AXIS_WINDS,
    Scenario,
    sample_longtail,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.simulation.world import World

__all__ = [
    "STATIC_WINDOW",
    "DYNAMIC_WINDOW",
    "InvariantViolation",
    "WindowResult",
    "Recognizers",
    "MinimisedCase",
    "FuzzReport",
    "FuzzHarness",
    "execute_window",
    "check_window_invariants",
    "check_envelope_invariant",
    "check_fleet_invariants",
    "shrink_candidates",
    "shrink_scenario",
    "case_bytes",
    "case_filename",
    "replay_case",
]

#: Static observation window: duration (s) and sample rate (Hz).
STATIC_WINDOW = (1.0, 4.0)
#: Dynamic window: signal periods and sample rate fed to the decoder.
DYNAMIC_WINDOW = (2.0, 5.0)

_COMMUNICATIVE_LABELS = frozenset(sign.value for sign in COMMUNICATIVE_SIGNS)


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a safety invariant."""

    invariant: str
    detail: str
    scenario: Scenario | None = None


@dataclass(frozen=True)
class WindowResult:
    """What one window execution produced."""

    observed: str | None
    labels: tuple[str | None, ...]
    correct: bool
    safe: bool
    signature: str
    frame_count: int


class Recognizers:
    """Lazily-built recogniser pair shared across a fuzz run.

    Enrolment is expensive, so the static and dynamic engines are
    constructed on first use and reused for every scenario; pass
    pre-built instances (e.g. pytest's session fixtures) to skip
    construction entirely.
    """

    def __init__(
        self,
        static: SaxSignRecognizer | None = None,
        dynamic: DynamicSignRecognizer | None = None,
    ) -> None:
        self._static = static
        self._dynamic = dynamic

    @property
    def static(self) -> SaxSignRecognizer:
        """The enrolled static recogniser (built on first access)."""
        if self._static is None:
            self._static = SaxSignRecognizer()
            self._static.enroll_canonical_views()
        return self._static

    @property
    def dynamic(self) -> DynamicSignRecognizer:
        """The enrolled dynamic recogniser (built on first access)."""
        if self._dynamic is None:
            self._dynamic = DynamicSignRecognizer()
            self._dynamic.enroll(WAVE_OFF)
            self._dynamic.enroll(MOVE_UPWARD)
        return self._dynamic


def _window_signature(frames, times, labels) -> str:
    """SHA-256 over frame bytes, timestamps and labels — the replay
    identity committed regression cases are compared against."""
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(frame.pixels.tobytes())
    for t in times:
        digest.update(f"{t:.6f}".encode())
    for label in labels:
        digest.update(b"\x00" if label is None else label.encode())
    return digest.hexdigest()


def execute_window(scenario: Scenario, recognizers: Recognizers) -> WindowResult:
    """Render one scenario window and run it through the real stack.

    Static scenarios flow through one
    :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognize_batch`
    call (the same batched kernels the fleet graph's match stage uses)
    and fold to the majority readable label (ties keep the first
    occurrence); the window is ``safe`` when no readable frame claimed a
    *different* communicative sign.  Dynamic ones go through
    :meth:`~repro.recognition.dynamic.DynamicSignRecognizer.recognize_window`,
    which only ever reports enrolled sign names, so any other verdict
    than the expected sign is unsafe.
    """
    expected = scenario.expected_label
    if scenario.is_dynamic:
        periods, sample_hz = DYNAMIC_WINDOW
        frames, times = scenario.render_window(
            periods * scenario.sign.period_s, sample_hz
        )
        recognition = recognizers.dynamic.recognize_window(
            frames, times, elevation_deg=scenario.elevation_deg
        )
        labels = tuple(o.label for o in recognition.observations)
        observed = recognition.sign_name
        correct = observed == expected
        safe = observed in (None, expected)
    else:
        duration_s, sample_hz = STATIC_WINDOW
        frames, times = scenario.render_window(duration_s, sample_hz)
        results = recognizers.static.recognize_batch(
            frames, elevation_deg=[scenario.elevation_deg] * len(frames)
        )
        labels = tuple(r.label for r in results)
        readable = [label for label in labels if label is not None]
        counts: dict[str, int] = {}
        for label in readable:
            counts[label] = counts.get(label, 0) + 1
        observed = max(counts, key=counts.__getitem__, default=None)
        correct = observed == expected
        safe = all(
            label == expected or label not in _COMMUNICATIVE_LABELS
            for label in readable
        )
    return WindowResult(
        observed=observed,
        labels=labels,
        correct=correct,
        safe=safe,
        signature=_window_signature(frames, times, labels),
        frame_count=len(frames),
    )


def _independent_majority(labels) -> str | None:
    """Majority readable label, recomputed from scratch (ties keep the
    first occurrence) — deliberately not shared with
    :func:`execute_window`'s fold, so ``verdict_fold`` stays a real
    check."""
    counts: dict[str, int] = {}
    for label in labels:
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    for label in labels:
        if label is not None and counts[label] == best:
            return label
    return None  # pragma: no cover - counts non-empty implies a winner


def check_window_invariants(
    scenario: Scenario, recognizers: Recognizers
) -> list[InvariantViolation]:
    """Run one scenario window and check every window-level invariant."""
    try:
        result = execute_window(scenario, recognizers)
        replay = execute_window(scenario, recognizers)
    except Exception as exc:  # noqa: BLE001 - the invariant is "no crash"
        return [
            InvariantViolation(
                invariant="no_crash",
                detail=f"{type(exc).__name__}: {exc}",
                scenario=scenario,
            )
        ]
    violations: list[InvariantViolation] = []
    expected = scenario.expected_label
    majority = _independent_majority(result.labels)
    if scenario.is_dynamic:
        verdict_ok = result.correct == (result.observed == expected)
        safe_ok = result.safe == (result.observed in (None, expected))
    else:
        verdict_ok = (
            result.correct == (majority == expected)
            and result.observed == majority
        )
        safe_ok = result.safe == all(
            label == expected or label not in _COMMUNICATIVE_LABELS
            for label in result.labels
            if label is not None
        )
    if result.correct and result.observed != expected:
        verdict_ok = False
    if not verdict_ok:
        violations.append(
            InvariantViolation(
                invariant="verdict_fold",
                detail=(
                    f"correct={result.correct} observed={result.observed!r} "
                    f"expected={expected!r} majority={majority!r}"
                ),
                scenario=scenario,
            )
        )
    if not safe_ok:
        violations.append(
            InvariantViolation(
                invariant="safety_fold",
                detail=f"safe={result.safe} labels={result.labels!r} expected={expected!r}",
                scenario=scenario,
            )
        )
    if result.signature != replay.signature:
        violations.append(
            InvariantViolation(
                invariant="deterministic_replay",
                detail=f"{result.signature[:12]} != {replay.signature[:12]}",
                scenario=scenario,
            )
        )
    return violations


def check_envelope_invariant(
    scenario: Scenario, recognizers: Recognizers
) -> list[InvariantViolation]:
    """Probe the trust envelope at this scenario's observation geometry.

    The allow/deny expectation is derived from the envelope's *fields*
    (``min_altitude_m`` / ``max_azimuth_deg`` / ``max_range_m``), never
    from its ``allows`` method — so a monkeypatched or disabled
    envelope check surfaces as ``envelope_rejection_explicit``.
    """
    perception = RecognizerPerception(
        recognizer=recognizers.static,
        render_settings=scenario.lighting.render_settings(),
    )
    sign = scenario.sign if isinstance(scenario.sign, MarshallingSign) else MarshallingSign.ATTENTION
    world = World()
    human = HumanAgent(name="probe_human", persona=WORKER)
    human.show_sign(sign, world)
    theta = math.radians(scenario.azimuth_deg)
    drone_position = Vec3(
        scenario.distance_m * math.sin(theta),
        scenario.distance_m * math.cos(theta),
        scenario.altitude_m,
    )
    envelope = perception.envelope
    slant = math.hypot(scenario.distance_m, scenario.altitude_m)
    expected_allow = (
        scenario.altitude_m >= envelope.min_altitude_m
        and scenario.azimuth_deg <= envelope.max_azimuth_deg
        and slant <= envelope.max_range_m
    )
    gated_before = perception.stats.gated
    observed = perception.observe(drone_position, human)
    gated_delta = perception.stats.gated - gated_before
    if not expected_allow and not (observed is None and gated_delta == 1):
        return [
            InvariantViolation(
                invariant="envelope_rejection_explicit",
                detail=(
                    f"geometry outside envelope fields (alt={scenario.altitude_m}, "
                    f"az={scenario.azimuth_deg}, slant={slant:.2f}) was not gated: "
                    f"observed={observed!r} gated_delta={gated_delta}"
                ),
                scenario=scenario,
            )
        ]
    if expected_allow and gated_delta != 0:
        return [
            InvariantViolation(
                invariant="envelope_rejection_explicit",
                detail=(
                    f"geometry inside envelope fields was gated "
                    f"(alt={scenario.altitude_m}, az={scenario.azimuth_deg}, slant={slant:.2f})"
                ),
                scenario=scenario,
            )
        ]
    return []


#: Orchard of a fleet fuzz case: one row of 4 trees, 2 traps and 2
#: workers blocking them, so every mission negotiates — small enough
#: that the double run (the determinism check) stays cheap.
_FLEET_CASE_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)
#: Missions per fleet fuzz case: two share one recogniser core.
_FLEET_CASE_MISSIONS = 2


def check_fleet_invariants(seed: int) -> list[InvariantViolation]:
    """Run one seeded orchard trap fleet case twice and check it.

    Exercises the full fleet stack: a two-mission trap-reading fleet
    with recognizer perception, driven through the seven-stage fleet
    loop with batched recognition.  Checks ``no_crash``,
    ``negotiation_explicit`` (every negotiation is granted, denied or
    failed; a mission a safety rule aborted may leave the one round it
    was running open) and ``transcript_determinism`` (two runs, same
    seed, identical canonical transcripts).
    """
    base_seed = random.Random(f"fuzz-fleet:{seed}").randrange(1 << 16)

    def _run():
        scheduler = build_fleet(
            FleetSpec(
                count=_FLEET_CASE_MISSIONS,
                base_seed=base_seed,
                config=_FLEET_CASE_CONFIG,
            )
        )
        scheduler.run(timeout_s=900.0)
        transcripts = [mission_transcript(m.world) for m in scheduler.missions]
        return scheduler.missions, transcripts

    try:
        missions, transcripts_a = _run()
        _, transcripts_b = _run()
    except Exception as exc:  # noqa: BLE001 - the invariant is "no crash"
        return [
            InvariantViolation(
                invariant="no_crash",
                detail=f"fleet seed={seed}: {type(exc).__name__}: {exc}",
            )
        ]
    violations: list[InvariantViolation] = []
    for mission in missions:
        report = mission.report
        resolved = (
            report.negotiations_granted
            + report.negotiations_denied
            + report.negotiations_failed
        )
        unresolved = report.negotiations - resolved
        cut_short = 1 if mission.executor.phase is MissionPhase.ABORTED else 0
        if not 0 <= unresolved <= cut_short:
            violations.append(
                InvariantViolation(
                    invariant="negotiation_explicit",
                    detail=(
                        f"fleet seed={seed} mission={mission.name} "
                        f"({mission.executor.phase.name}): "
                        f"{report.negotiations} negotiations, {resolved} resolved"
                    ),
                )
            )
    if transcripts_a != transcripts_b:
        violations.append(
            InvariantViolation(
                invariant="transcript_determinism",
                detail=f"fleet seed={seed}: two runs diverged",
            )
        )
    return violations


# -- shrinking -------------------------------------------------------------------------


def _step_down(grid: tuple, value):
    """The next-simpler grid value, or ``None`` at the simplest."""
    try:
        index = grid.index(value)
    except ValueError:
        return grid[-1]  # off-grid values snap to the last grid point
    if index == 0:
        return None
    return grid[index - 1]


def shrink_candidates(scenario: Scenario) -> list[Scenario]:
    """Strictly-simpler one-step variants of *scenario*, in fixed order.

    First each active perturbation layer is dropped entirely, then each
    layer's main parameter steps one grid notch simpler, then each grid
    axis steps toward its grid's first value.  Every candidate has
    strictly lower :meth:`~repro.simulation.scenarios.Scenario.complexity`,
    which is what guarantees greedy shrinking terminates.
    """
    candidates: list[Scenario] = []
    if scenario.occlusion is not None:
        candidates.append(replace(scenario, occlusion=None))
        fraction = _step_down(AXIS_OCCLUSION_FRACTIONS, scenario.occlusion.fraction)
        if fraction is not None:
            candidates.append(
                replace(scenario, occlusion=replace(scenario.occlusion, fraction=fraction))
            )
    if scenario.conflict is not None:
        candidates.append(replace(scenario, conflict=None))
        offsets = _step_down(
            AXIS_CONFLICT_OFFSETS,
            (scenario.conflict.offset_x_m, scenario.conflict.offset_y_m),
        )
        if offsets is not None:
            candidates.append(
                replace(
                    scenario,
                    conflict=replace(
                        scenario.conflict, offset_x_m=offsets[0], offset_y_m=offsets[1]
                    ),
                )
            )
    if scenario.blur is not None:
        candidates.append(replace(scenario, blur=None))
        taps = _step_down(AXIS_BLUR_TAPS, scenario.blur.taps)
        if taps is not None:
            candidates.append(replace(scenario, blur=replace(scenario.blur, taps=taps)))
    if scenario.drops is not None:
        candidates.append(replace(scenario, drops=None))
        period = _step_down(AXIS_DROP_PERIODS, scenario.drops.period)
        if period is not None:
            candidates.append(
                replace(scenario, drops=replace(scenario.drops, period=period))
            )
    if scenario.drift is not None:
        candidates.append(replace(scenario, drift=None))
        speed = _step_down(AXIS_DRIFT_SPEEDS, scenario.drift.speed_mps)
        if speed is not None:
            candidates.append(
                replace(scenario, drift=replace(scenario.drift, speed_mps=speed))
            )
    persona = _step_down(AXIS_PERSONAS, scenario.persona)
    if persona is not None:
        candidates.append(replace(scenario, persona=persona))
    sign = _step_down(AXIS_SIGNS, scenario.sign)
    if sign is not None:
        candidates.append(replace(scenario, sign=sign))
    viewpoint = _step_down(AXIS_VIEWPOINTS, (scenario.altitude_m, scenario.distance_m))
    if viewpoint is not None:
        candidates.append(
            replace(scenario, altitude_m=viewpoint[0], distance_m=viewpoint[1])
        )
    azimuth = _step_down(AXIS_AZIMUTHS_DEG, scenario.azimuth_deg)
    if azimuth is not None:
        candidates.append(replace(scenario, azimuth_deg=azimuth))
    wind = _step_down(AXIS_WINDS, scenario.wind)
    if wind is not None:
        candidates.append(replace(scenario, wind=wind))
    lighting = _step_down(AXIS_LIGHTINGS, scenario.lighting)
    if lighting is not None:
        candidates.append(replace(scenario, lighting=lighting))
    return candidates


def shrink_scenario(scenario: Scenario, predicate) -> Scenario:
    """Greedily minimise *scenario* while ``predicate`` keeps failing.

    ``predicate(candidate)`` returns a failure name (any truthy string)
    or ``None``; the shrink target is ``predicate(scenario)``, and a
    candidate is accepted only when it fails with the *same* name —
    first acceptable candidate wins, then the loop restarts from it.
    Because every candidate strictly decreases the integer complexity
    score, the loop terminates; the result is 1-minimal with respect to
    :func:`shrink_candidates` (no single simplification still fails).
    """
    target = predicate(scenario)
    if not target:
        raise ValueError("scenario does not fail; nothing to shrink")
    current = scenario
    while True:
        for candidate in shrink_candidates(current):
            if candidate.complexity() >= current.complexity():  # pragma: no cover
                raise AssertionError("shrink candidate did not reduce complexity")
            if predicate(candidate) == target:
                current = candidate
                break
        else:
            return current


# -- case serialisation ----------------------------------------------------------------


@dataclass(frozen=True)
class MinimisedCase:
    """One shrunk failing-or-edge scenario, ready to serialise."""

    kind: str  # "violation" (invariant breach) or "edge" (verdict delta)
    invariant: str
    detail: str
    scenario: Scenario
    seed: int
    index: int
    expected_label: str
    observed: str | None
    signature: str


def case_bytes(case: MinimisedCase) -> bytes:
    """Canonical JSON bytes for *case* — same case, same bytes.

    Keys are sorted and floats come straight from the grid values, so
    the reproducibility contract (`make fuzz FUZZ_SEED=s` twice →
    identical minimised case bytes) holds at the byte level.
    """
    data = {
        "kind": case.kind,
        "invariant": case.invariant,
        "detail": case.detail,
        "seed": case.seed,
        "index": case.index,
        "scenario": scenario_to_dict(case.scenario),
        "expect": {
            "expected_label": case.expected_label,
            "observed": case.observed,
            "signature": case.signature,
        },
    }
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def case_filename(case: MinimisedCase) -> str:
    """Deterministic filename for *case* (content-addressed suffix)."""
    digest = hashlib.sha256(case_bytes(case)).hexdigest()[:12]
    return f"{case.kind}_{case.invariant}_{digest}.json"


def replay_case(data: dict, recognizers: Recognizers) -> list[str]:
    """Replay one committed regression case; return failure descriptions.

    An empty list means the case replays green: the scenario executes
    bit-deterministically to the recorded signature, reports the
    recorded verdict, and (for ``edge`` cases) violates no invariant.
    """
    scenario = scenario_from_dict(data["scenario"])
    failures: list[str] = []
    result = execute_window(scenario, recognizers)
    expect = data["expect"]
    if result.signature != expect["signature"]:
        failures.append(
            f"signature drifted: {result.signature} != {expect['signature']}"
        )
    if result.observed != expect["observed"]:
        failures.append(
            f"verdict drifted: {result.observed!r} != {expect['observed']!r}"
        )
    if scenario.expected_label != expect["expected_label"]:
        failures.append(
            f"expected label drifted: {scenario.expected_label!r} "
            f"!= {expect['expected_label']!r}"
        )
    if data["kind"] == "edge":
        for violation in check_window_invariants(scenario, recognizers):
            failures.append(f"invariant {violation.invariant}: {violation.detail}")
    return failures


# -- the harness -----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    iterations: int
    fleet_cases: int
    scenarios_checked: int = 0
    cases: list[MinimisedCase] = field(default_factory=list)
    fleet_violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no invariant was violated."""
        return not self.cases and not self.fleet_violations


class FuzzHarness:
    """Seeded fuzz driver: sample → check → shrink → serialise.

    ``iterations`` long-tail scenario windows plus ``fleet_cases``
    orchard trap fleet runs, all derived from ``seed``.  Violations are
    shrunk (:func:`shrink_scenario`) with a predicate that re-checks
    the *violated* invariant only, so shrinking is as cheap as the
    failing check.  ``invariant_checks`` is the overridable list of
    per-scenario checks — tests inject broken checks (or monkeypatch
    the stack under test) and assert the harness catches and shrinks.
    """

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 20,
        fleet_cases: int = 1,
        recognizers: Recognizers | None = None,
    ) -> None:
        if iterations < 0 or fleet_cases < 0:
            raise ValueError("iteration counts must be non-negative")
        self.seed = seed
        self.iterations = iterations
        self.fleet_cases = fleet_cases
        self.recognizers = recognizers if recognizers is not None else Recognizers()
        self.invariant_checks = [check_window_invariants, check_envelope_invariant]

    def _first_violation(self, scenario: Scenario) -> InvariantViolation | None:
        for check in self.invariant_checks:
            violations = check(scenario, self.recognizers)
            if violations:
                return violations[0]
        return None

    def _failure_name(self, scenario: Scenario) -> str | None:
        violation = self._first_violation(scenario)
        return violation.invariant if violation is not None else None

    def run(self) -> FuzzReport:
        """Execute the full fuzz run and return its report."""
        report = FuzzReport(
            seed=self.seed, iterations=self.iterations, fleet_cases=self.fleet_cases
        )
        for index in range(self.iterations):
            scenario = sample_longtail(self.seed, index)
            report.scenarios_checked += 1
            violation = self._first_violation(scenario)
            if violation is None:
                continue
            minimal = shrink_scenario(scenario, self._failure_name)
            final = self._first_violation(minimal)
            assert final is not None  # shrinking preserves the failure
            try:
                result = execute_window(minimal, self.recognizers)
                observed, signature = result.observed, result.signature
            except Exception:  # noqa: BLE001 - no_crash cases cannot execute
                observed, signature = None, ""
            report.cases.append(
                MinimisedCase(
                    kind="violation",
                    invariant=final.invariant,
                    detail=final.detail,
                    scenario=minimal,
                    seed=self.seed,
                    index=index,
                    expected_label=minimal.expected_label,
                    observed=observed,
                    signature=signature,
                )
            )
        for case_index in range(self.fleet_cases):
            report.fleet_violations.extend(
                check_fleet_invariants(self.seed * 1000 + case_index)
            )
        return report

    def mine_edge_case(
        self, index: int, predicate_name: str = "verdict_delta"
    ) -> MinimisedCase | None:
        """Shrink scenario *index* into an ``edge`` regression case.

        An *edge* scenario is one whose perturbations change the
        recognition verdict relative to its
        :attr:`~repro.simulation.scenarios.Scenario.clean` twin — the
        long-tail regression surface worth pinning even when no
        invariant breaks.  Returns ``None`` when the perturbed verdict
        matches the clean one (nothing to pin).  The shrink predicate
        preserves "verdict differs from the clean twin's verdict", so
        the minimised case is the simplest perturbation that still
        flips this scenario.
        """
        scenario = sample_longtail(self.seed, index)

        def delta(candidate: Scenario) -> str | None:
            baseline = execute_window(candidate.clean, self.recognizers)
            perturbed = execute_window(candidate, self.recognizers)
            return predicate_name if perturbed.observed != baseline.observed else None

        if scenario.is_clean or delta(scenario) is None:
            return None
        minimal = shrink_scenario(scenario, delta)
        result = execute_window(minimal, self.recognizers)
        baseline = execute_window(minimal.clean, self.recognizers)
        return MinimisedCase(
            kind="edge",
            invariant=predicate_name,
            detail=(
                f"clean base reads {baseline.observed!r}, "
                f"perturbed reads {result.observed!r}"
            ),
            scenario=minimal,
            seed=self.seed,
            index=index,
            expected_label=minimal.expected_label,
            observed=result.observed,
            signature=result.signature,
        )
