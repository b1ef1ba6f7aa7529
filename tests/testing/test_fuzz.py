"""The fuzz harness: invariants, shrinking, determinism, violation capture."""

import hashlib
import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.testing.fuzz as fuzz_module
from repro.human.signs import MarshallingSign
from repro.mission.executor import MissionPhase
from repro.mission.fleet import FleetScheduler
from repro.protocol.recognizer import RecognitionEnvelope
from repro.simulation.scenarios import (
    ConflictingSigner,
    FrameDropSpec,
    MotionBlurSpec,
    OcclusionSpec,
    sample_longtail,
    scenario_to_dict,
)
from repro.testing.fuzz import (
    FuzzHarness,
    Recognizers,
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


class _ScriptedStatic:
    """A static recogniser stub that reads a fixed label per frame."""

    def __init__(self, labels):
        self.labels = labels

    def recognize_batch(self, frames, elevation_deg):
        assert len(frames) == len(self.labels)
        return [SimpleNamespace(label=label) for label in self.labels]


class TestStaticWindowFold:
    """execute_window's static fold: majority readable label, first
    occurrence on a tie, unsafe only on a different communicative sign."""

    SCENARIO = replace(sample_longtail(7, 0).clean, sign=MarshallingSign.YES)

    def run(self, labels):
        recognizers = Recognizers(static=_ScriptedStatic(labels))
        return execute_window(self.SCENARIO, recognizers)

    def test_tie_keeps_the_first_readable_label(self):
        result = self.run([None, "no", "yes", "yes"])
        assert (result.observed, result.correct, result.safe) == ("yes", True, False)
        result = self.run(["no", None, "yes", "no"])
        assert (result.observed, result.correct) == ("no", False)
        result = self.run(["yes", "no", "no", "yes"])
        assert (result.observed, result.correct) == ("yes", True)

    def test_unreadable_and_non_communicative_frames_are_safe(self):
        result = self.run([None, None, None, None])
        assert (result.observed, result.correct, result.safe) == (None, False, True)
        result = self.run(["idle", "yes", None, "idle"])
        assert (result.observed, result.correct, result.safe) == ("idle", False, True)


class TestInvariantChecks:
    def test_clean_run_finds_no_violations(self, fuzz_recognizers):
        harness = FuzzHarness(
            seed=7, iterations=4, fleet_cases=0, recognizers=fuzz_recognizers
        )
        report = harness.run()
        assert report.ok
        assert report.scenarios_checked == 4

    def test_window_checks_pass_on_sampled_scenarios(self, fuzz_recognizers):
        for index in range(3):
            scenario = sample_longtail(3, index)
            assert check_window_invariants(scenario, fuzz_recognizers) == []
            assert check_envelope_invariant(scenario, fuzz_recognizers) == []

    def test_execute_window_deterministic_per_seed(self, fuzz_recognizers):
        for index in range(3):
            first = execute_window(sample_longtail(5, index), fuzz_recognizers)
            second = execute_window(sample_longtail(5, index), fuzz_recognizers)
            assert first.signature == second.signature
            assert first.observed == second.observed


#: SHA-256 over every draw of ``sample_longtail(seed, i)`` for seeds 0-1
#: and i < 20 — its codec dict, name and complexity — each followed by
#: the same triple for every one of its shrink candidates.
PINNED_DRAWS_DIGEST = "6e563e8b41b415de1a20dce29c4a2ef10bc473a7b17c1a4f53775120b4bd05a2"


def _draw_entry(scenario) -> bytes:
    return json.dumps(
        [scenario_to_dict(scenario), scenario.name, scenario.complexity()],
        sort_keys=True,
    ).encode()


class TestShrinker:
    def test_draws_and_candidates_match_pinned_digest(self):
        """The sampler, codec, names, complexity and shrinker are pinned
        across commits (nothing is rendered)."""
        digest = hashlib.sha256()
        for seed, index in itertools.product((0, 1), range(20)):
            scenario = sample_longtail(seed, index)
            digest.update(_draw_entry(scenario))
            for candidate in shrink_candidates(scenario):
                digest.update(b"|" + _draw_entry(candidate))
            digest.update(b"\n")
        assert digest.hexdigest() == PINNED_DRAWS_DIGEST

    def test_candidates_strictly_reduce_complexity(self):
        scenario = sample_longtail(7, 4)
        for candidate in shrink_candidates(scenario):
            assert candidate.complexity() < scenario.complexity()

    def test_shrink_terminates_at_failing_minimum(self):
        scenario = replace(
            sample_longtail(7, 0).clean,
            occlusion=OcclusionSpec(side="bottom", fraction=0.45),
            conflict=ConflictingSigner(),
            blur=MotionBlurSpec(taps=4),
            drops=FrameDropSpec(period=2, mode="remove"),
        )

        def predicate(candidate):
            return "needs_occlusion" if candidate.occlusion is not None else None

        minimal = shrink_scenario(scenario, predicate)
        # Still failing, and 1-minimal: every remaining one-step
        # simplification makes the failure disappear.
        assert predicate(minimal) == "needs_occlusion"
        assert minimal.complexity() < scenario.complexity()
        assert minimal.conflict is None
        assert minimal.blur is None
        assert minimal.drops is None
        for candidate in shrink_candidates(minimal):
            assert predicate(candidate) != "needs_occlusion"

    def test_shrink_rejects_passing_scenario(self):
        with pytest.raises(ValueError):
            shrink_scenario(sample_longtail(7, 0), lambda s: None)

    def test_shrink_keeps_same_failure_name(self):
        scenario = replace(
            sample_longtail(7, 1).clean,
            occlusion=OcclusionSpec(side="left", fraction=0.3),
            drops=FrameDropSpec(period=3, mode="freeze"),
        )

        def predicate(candidate):
            if candidate.drops is not None:
                return "drops_bug"
            if candidate.occlusion is not None:
                return "occlusion_bug"  # a different failure; never accepted
            return None

        minimal = shrink_scenario(scenario, predicate)
        assert minimal.drops is not None


class TestBrokenInvariantCapture:
    def test_disabled_envelope_is_caught_and_shrunk(
        self, fuzz_recognizers, monkeypatch
    ):
        """The acceptance scenario: gating disabled via monkeypatch must
        surface as a shrunk case naming the violated invariant."""
        monkeypatch.setattr(
            RecognitionEnvelope, "allows", lambda self, geometry: True
        )
        harness = FuzzHarness(
            seed=7, iterations=10, fleet_cases=0, recognizers=fuzz_recognizers
        )
        report = harness.run()
        assert not report.ok
        case = next(
            c for c in report.cases if c.invariant == "envelope_rejection_explicit"
        )
        assert case.kind == "violation"
        assert "was not gated" in case.detail
        # Shrunk to the simplest geometry that still sits outside the
        # envelope fields.
        assert case.scenario.complexity() <= 3
        payload = json.loads(case_bytes(case))
        assert payload["invariant"] == "envelope_rejection_explicit"

    def test_forced_wrong_verdict_is_caught(self, fuzz_recognizers, monkeypatch):
        original = fuzz_module.execute_window

        def lying_execute(scenario, recognizers):
            return replace(original(scenario, recognizers), correct=True)

        monkeypatch.setattr(fuzz_module, "execute_window", lying_execute)
        violations = []
        for index in range(10):
            scenario = sample_longtail(7, index)
            if scenario.is_dynamic:
                continue
            violations.extend(check_window_invariants(scenario, fuzz_recognizers))
        names = {v.invariant for v in violations}
        assert "verdict_fold" in names


class TestFleetCase:
    """The orchard trap fleet case: seed 1 flies one DONE and one
    ABORTED mission."""

    def test_seed_passes_every_invariant(self):
        assert check_fleet_invariants(1) == []

    def test_nondeterministic_run_is_caught(self, monkeypatch):
        original = fuzz_module.build_fleet
        shift = itertools.count()
        monkeypatch.setattr(
            fuzz_module,
            "build_fleet",
            lambda spec: original(replace(spec, base_seed=spec.base_seed + next(shift))),
        )
        names = [v.invariant for v in check_fleet_invariants(1)]
        assert names == ["transcript_determinism"]

    def test_open_negotiation_on_a_done_mission_is_caught(self, monkeypatch):
        original = FleetScheduler.run

        def run_leaving_a_round_open(self, *args, **kwargs):
            report = original(self, *args, **kwargs)
            for mission in self.missions:
                if mission.executor.phase is MissionPhase.DONE:
                    mission.report.negotiations += 1
            return report

        monkeypatch.setattr(FleetScheduler, "run", run_leaving_a_round_open)
        (violation,) = check_fleet_invariants(1)
        assert violation.invariant == "negotiation_explicit"
        assert "(DONE)" in violation.detail

    @staticmethod
    def _open_rounds_on_aborted_missions(monkeypatch, rounds):
        """Leave *rounds* negotiations open on every ABORTED mission;
        returns the list the aborted missions' names are collected in."""
        original = FleetScheduler.run
        aborted = []

        def run_leaving_rounds_open(self, *args, **kwargs):
            report = original(self, *args, **kwargs)
            for mission in self.missions:
                if mission.executor.phase is MissionPhase.ABORTED:
                    mine = mission.report
                    mine.negotiations = rounds + (
                        mine.negotiations_granted
                        + mine.negotiations_denied
                        + mine.negotiations_failed
                    )
                    aborted.append(mission.name)
            return report

        monkeypatch.setattr(FleetScheduler, "run", run_leaving_rounds_open)
        return aborted

    def test_aborted_mission_may_leave_its_one_round_open(self, monkeypatch):
        aborted = self._open_rounds_on_aborted_missions(monkeypatch, rounds=1)
        assert check_fleet_invariants(1) == []
        assert aborted

    def test_aborted_mission_with_two_open_rounds_is_caught(self, monkeypatch):
        aborted = self._open_rounds_on_aborted_missions(monkeypatch, rounds=2)
        (violation,) = check_fleet_invariants(1)
        assert violation.invariant == "negotiation_explicit"
        (name,) = set(aborted)
        assert f"mission={name} (ABORTED)" in violation.detail

    def test_crash_in_the_second_run_is_reported_as_no_crash(self, monkeypatch):
        original = FleetScheduler.run
        calls = itertools.count()

        def run_then_crash(self, *args, **kwargs):
            if next(calls) == 1:
                raise RuntimeError("stage loop broke")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FleetScheduler, "run", run_then_crash)
        (violation,) = check_fleet_invariants(1)
        assert violation.invariant == "no_crash"
        assert violation.detail == "fleet seed=1: RuntimeError: stage loop broke"

    def test_case_flies_a_blocked_orchard_with_recognizer_perception(self, monkeypatch):
        specs = []

        def capture(spec):
            specs.append(spec)
            raise RuntimeError("captured")

        monkeypatch.setattr(fuzz_module, "build_fleet", capture)
        for seed in (1, 2):
            (violation,) = check_fleet_invariants(seed)
            assert violation.invariant == "no_crash"
        first, second = specs
        assert first.base_seed != second.base_seed  # each seed flies its own fleet
        for spec in specs:
            assert spec.count == 2
            assert spec.perception == "recognizer"
            config = spec.config
            assert (config.rows, config.trees_per_row, config.traps_per_row) == (1, 4, 2)
            assert (config.workers, config.visitors) == (2, 0)
            assert config.blocking_fraction == 1.0

    def test_harness_collects_each_fleet_cases_violations(self, monkeypatch, fuzz_recognizers):
        seeds = []

        def check(seed):
            seeds.append(seed)
            return [fuzz_module.InvariantViolation(invariant="no_crash", detail=str(seed))]

        monkeypatch.setattr(fuzz_module, "check_fleet_invariants", check)
        report = FuzzHarness(
            seed=3, iterations=0, fleet_cases=2, recognizers=fuzz_recognizers
        ).run()
        assert seeds == [3000, 3001]
        assert [v.detail for v in report.fleet_violations] == ["3000", "3001"]
        assert not report.ok


class TestCaseSerialisation:
    def test_mined_case_bytes_deterministic(self, fuzz_recognizers):
        harness = FuzzHarness(seed=7, recognizers=fuzz_recognizers)
        first = harness.mine_edge_case(3)
        second = harness.mine_edge_case(3)
        assert first is not None
        assert case_bytes(first) == case_bytes(second)
        assert case_filename(first) == case_filename(second)
        assert case_filename(first).startswith("edge_")

    def test_mined_case_replays_green(self, fuzz_recognizers):
        harness = FuzzHarness(seed=7, recognizers=fuzz_recognizers)
        case = harness.mine_edge_case(0)
        assert case is not None
        assert replay_case(json.loads(case_bytes(case)), fuzz_recognizers) == []

    def test_replay_flags_signature_drift(self, fuzz_recognizers):
        harness = FuzzHarness(seed=7, recognizers=fuzz_recognizers)
        case = harness.mine_edge_case(0)
        data = json.loads(case_bytes(case))
        data["expect"]["signature"] = "0" * 64
        failures = replay_case(data, fuzz_recognizers)
        assert any("signature drifted" in f for f in failures)


class TestHarnessValidation:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            FuzzHarness(iterations=-1)
        with pytest.raises(ValueError):
            FuzzHarness(fleet_cases=-1)
