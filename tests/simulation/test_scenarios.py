"""Scenarios: window rendering, and accuracy sweeps across the axes.

The sweeps run narrow slices of the axis grids (the full cross product
takes minutes); the slices still cross every persona, wind and
lighting, and the batch-vs-scalar parity check runs per frame on top
of the accuracy assertions.
"""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.human import MOVE_UPWARD, WAVE_OFF, MarshallingSign
from repro.human.dynamic import BUILTIN_DYNAMIC_SIGNS, DynamicSign
from repro.human.persona import SUPERVISOR, VISITOR, WORKER
from repro.recognition import DynamicSignRecognizer
from repro.simulation.scenarios import (
    AXIS_LIGHTINGS,
    AXIS_PERSONAS,
    AXIS_SIGNS,
    AXIS_WINDS,
    BREEZE,
    CALM,
    DEFAULT_LIGHTINGS,
    DEFAULT_WINDS,
    DUSK,
    GUSTY,
    LIGHTINGS,
    NIGHT,
    NOON,
    OVERCAST,
    WINDS,
    Lighting,
    Scenario,
    WindCondition,
    sample_longtail,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.testing.fuzz import Recognizers, execute_window

#: Wind and lighting conditions under registry names: the registry
#: entries themselves and custom values that reuse their names.
CONDITION_WINDS = st.one_of(
    st.sampled_from(list(WINDS.values())),
    st.builds(
        WindCondition,
        name=st.sampled_from(sorted(WINDS)),
        speed_mps=st.floats(0.0, 30.0),
        sway_period_s=st.floats(0.5, 5.0),
    ),
)
CONDITION_LIGHTINGS = st.one_of(
    st.sampled_from(list(LIGHTINGS.values())),
    st.builds(
        Lighting,
        name=st.sampled_from(sorted(LIGHTINGS)),
        background_intensity=st.floats(0.3, 1.0),
        figure_intensity=st.floats(0.0, 0.25),
        noise_sigma=st.floats(0.0, 0.1),
    ),
)


def is_registry_condition(condition, registry) -> bool:
    return registry[condition.name] == condition


@pytest.fixture
def recognizers(canonical_recognizer, enrolled_dynamic_recognizer) -> Recognizers:
    # Shared session recognisers (tests/conftest.py); read-only here.
    return Recognizers(static=canonical_recognizer, dynamic=enrolled_dynamic_recognizer)


@pytest.fixture
def dynamic_recognizer(enrolled_dynamic_recognizer) -> DynamicSignRecognizer:
    # Shared session recogniser (tests/conftest.py); read-only here.
    return enrolled_dynamic_recognizer


class TestScenario:
    def test_scenario_name_is_descriptive(self):
        scenario = Scenario(VISITOR, WAVE_OFF, 5.0, 3.0, 0.0, BREEZE, DUSK)
        assert "wave_off" in scenario.name
        assert "breeze" in scenario.name
        assert "dusk" in scenario.name
        assert scenario.is_dynamic

    def test_condition_registries_hold_every_named_condition(self):
        assert WINDS == {"calm": CALM, "breeze": BREEZE, "gusty": GUSTY}
        assert LIGHTINGS == {
            "noon": NOON, "overcast": OVERCAST, "dusk": DUSK, "night": NIGHT
        }
        assert set(AXIS_WINDS) == set(WINDS.values())
        assert set(AXIS_LIGHTINGS) == set(LIGHTINGS.values())

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 3),
        index=st.integers(0, 19),
        wind=CONDITION_WINDS,
        lighting=CONDITION_LIGHTINGS,
    )
    def test_codec_round_trips_or_refuses_conditions(self, seed, index, wind, lighting):
        """Scenario → dict → JSON → Scenario is the identity, and a
        condition that only reuses a registry name is refused rather
        than decoded to the registry entry."""
        scenario = replace(sample_longtail(seed, index), wind=wind, lighting=lighting)
        registered = is_registry_condition(wind, WINDS) and is_registry_condition(
            lighting, LIGHTINGS
        )
        if not registered:
            with pytest.raises(ValueError, match="is not a registry"):
                scenario_to_dict(scenario)
            return
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario

    def test_builtin_dynamic_signs_are_on_the_sign_axis(self):
        signs = {s.name for s in BUILTIN_DYNAMIC_SIGNS}
        axis_signs = {s.name for s in AXIS_SIGNS if isinstance(s, DynamicSign)}
        assert signs == axis_signs


class TestRendering:
    def test_calm_static_window_renders_once(self):
        scenario = Scenario(SUPERVISOR, MarshallingSign.YES, 5.0, 3.0, 0.0, CALM, NOON)
        frames, times = scenario.render_window(2.0, 4.0)
        assert len(frames) == 8 and len(times) == 8
        assert all(frame is frames[0] for frame in frames)  # one distinct pose

    def test_commensurate_dynamic_window_revisits_poses(self):
        scenario = Scenario(SUPERVISOR, WAVE_OFF, 5.0, 3.0, 0.0, CALM, NOON)
        assert scenario.pose_repeat_frames(10.0) == 16  # 1.6 s at 10 Hz
        frames, _ = scenario.render_window(6.4, 10.0)
        assert len(frames) == 64
        assert len({id(frame) for frame in frames}) == 16
        assert frames[0] is frames[16] is frames[32]

    def test_incommensurate_rate_renders_every_frame(self):
        scenario = Scenario(SUPERVISOR, WAVE_OFF, 5.0, 3.0, 0.0, CALM, NOON)
        assert scenario.pose_repeat_frames(8.0) is None  # 12.8 samples/period
        frames, _ = scenario.render_window(2.0, 8.0)
        assert len({id(frame) for frame in frames}) == len(frames)

    def test_sway_extends_repeat_to_lcm(self):
        scenario = Scenario(SUPERVISOR, WAVE_OFF, 5.0, 3.0, 0.0, GUSTY, NOON)
        # signal: 16 frames, sway: 24 frames at 10 Hz -> lcm 48
        assert scenario.pose_repeat_frames(10.0) == 48

    def test_count_over_rate_window_keeps_every_sample(self):
        # count / hz * hz lands one ulp under count for these pairs
        # (29 frames at 25 Hz, 123 at 15 Hz, ...); the window must
        # still hold all count samples.
        scenario = Scenario(SUPERVISOR, MarshallingSign.YES, 5.0, 3.0, 0.0, CALM, NOON)
        pairs = [
            (count, float(hz))
            for hz in (4, 5, 8, 10, 12, 15, 25, 30)
            for count in range(1, 500)
            if int(count / hz * hz) != count
        ]
        assert (29, 25.0) in pairs and (123, 15.0) in pairs
        for count, hz in pairs:
            frames, times = scenario.render_window(count / hz, hz)
            assert len(frames) == len(times) == count, (count, hz)
            assert times[-1] == (count - 1) / hz

    def test_wind_condition_maps_to_wind_model(self):
        model = GUSTY.wind_model(seed=7)
        assert model.mean_speed_mps == GUSTY.speed_mps
        assert GUSTY.sway_amplitude_deg > BREEZE.sway_amplitude_deg == pytest.approx(2.4)
        assert CALM.sway_amplitude_deg == 0.0

    def test_lean_combines_persona_and_wind(self):
        scenario = Scenario(VISITOR, MarshallingSign.NO, 5.0, 3.0, 0.0, GUSTY, NOON)
        leans = {scenario.lean_at(k / 10.0) for k in range(24)}
        assert len(leans) > 1  # sway moves the signaller
        assert all(abs(lean - VISITOR.max_lean_deg) <= GUSTY.sway_amplitude_deg + 1e-9 for lean in leans)


class TestStaticSweep:
    def test_accuracy_and_safety_across_axes(self, recognizers):
        # One static sign swept across every persona, wind and lighting.
        scenarios = [
            Scenario(persona, MarshallingSign.NO, 5.0, 3.0, 0.0, wind, lighting)
            for persona, wind, lighting in itertools.product(
                AXIS_PERSONAS, DEFAULT_WINDS, DEFAULT_LIGHTINGS
            )
        ]
        results = [execute_window(scenario, recognizers) for scenario in scenarios]
        assert len(results) == 27
        assert all(result.safe for result in results)
        assert all(result.correct for result in results)

    def test_batch_equals_scalar_per_frame(self, recognizers):
        for sign in (MarshallingSign.YES, MarshallingSign.ATTENTION):
            scenario = Scenario(WORKER, sign, 3.0, 3.0, 30.0, GUSTY, DUSK)
            result = execute_window(scenario, recognizers)
            frames, _ = scenario.render_window(1.0, 4.0)
            scalar = [
                recognizers.static.recognise(
                    frame, elevation_deg=scenario.elevation_deg
                ).label
                for frame in frames
            ]
            assert list(result.labels) == scalar


class TestDynamicSweep:
    def test_accuracy_and_safety_across_axes(self, dynamic_recognizer):
        # Three signal periods at 10 Hz per window.
        for persona, wind, lighting in itertools.product(
            (SUPERVISOR, VISITOR), (CALM, GUSTY), (NOON, DUSK)
        ):
            scenario = Scenario(persona, WAVE_OFF, 5.0, 3.0, 0.0, wind, lighting)
            frames, times = scenario.render_window(3.0 * WAVE_OFF.period_s, 10.0)
            recognition = dynamic_recognizer.recognize_window(
                frames, times, elevation_deg=scenario.elevation_deg
            )
            assert recognition.sign_name == scenario.expected_label, scenario.name

    def test_window_equals_scalar_reference(self, dynamic_recognizer):
        scenario = Scenario(WORKER, MOVE_UPWARD, 3.0, 3.0, 30.0, BREEZE, OVERCAST)
        frames, times = scenario.render_window(2.0 * MOVE_UPWARD.period_s, 10.0)
        observations = [
            dynamic_recognizer.classify_frame(frame, t, scenario.elevation_deg)
            for frame, t in zip(frames, times)
        ]
        scalar = dynamic_recognizer.decode(observations)
        batched = dynamic_recognizer.recognize_window(
            frames, times, elevation_deg=scenario.elevation_deg
        )
        assert batched.observations == scalar.observations
        assert (batched.sign_name, batched.cycles_seen) == (
            scalar.sign_name,
            scalar.cycles_seen,
        )
