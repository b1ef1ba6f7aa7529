"""Long-tail scenario layers: operators, sampling, serialisation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.human.persona import WORKER
from repro.human.render import render_frame
from repro.human.signs import MarshallingSign
from repro.simulation import (
    NIGHT,
    ConflictingSigner,
    FrameDropSpec,
    MotionBlurSpec,
    OcclusionSpec,
    WalkDriftSpec,
    apply_frame_drops,
    occlude_frame,
    sample_longtail,
    scenario_from_dict,
    scenario_to_dict,
    temporal_blur,
)
from repro.simulation.scenarios import AXIS_LIGHTINGS, AXIS_SIGNS, CALM, NOON, Scenario


def clean_base(sign=MarshallingSign.YES) -> Scenario:
    return Scenario(
        persona=WORKER, sign=sign, altitude_m=5.0, distance_m=3.0,
        azimuth_deg=0.0, wind=CALM, lighting=NOON,
    )


def render_one(scenario: Scenario):
    frames, _ = scenario.render_window(duration_s=0.25, sample_hz=4.0)
    return frames[0]


class TestSpecValidation:
    def test_occlusion_side_and_fraction(self):
        with pytest.raises(ValueError):
            OcclusionSpec(side="diagonal", fraction=0.3)
        with pytest.raises(ValueError):
            OcclusionSpec(side="left", fraction=0.0)
        with pytest.raises(ValueError):
            OcclusionSpec(side="left", fraction=1.0)

    def test_blur_needs_two_taps(self):
        with pytest.raises(ValueError):
            MotionBlurSpec(taps=1)

    def test_drop_period_and_mode(self):
        with pytest.raises(ValueError):
            FrameDropSpec(period=1)
        with pytest.raises(ValueError):
            FrameDropSpec(period=2, mode="skip")

    def test_drift_needs_positive_speed(self):
        with pytest.raises(ValueError):
            WalkDriftSpec(speed_mps=0.0, heading_deg=90.0)

    def test_night_lighting_is_valid(self):
        settings = NIGHT.render_settings()
        assert 0.0 <= settings.figure_intensity < settings.background_intensity <= 1.0


class TestOperators:
    def test_occlusion_paints_band_and_preserves_rest(self):
        frame = render_one(clean_base())
        spec = OcclusionSpec(side="left", fraction=0.25, intensity=0.08)
        occluded = occlude_frame(frame, spec)
        width = frame.pixels.shape[1]
        band = int(round(width * spec.fraction))
        assert np.allclose(occluded.pixels[:, :band], spec.intensity)
        assert np.array_equal(occluded.pixels[:, band:], frame.pixels[:, band:])
        # The input frame is untouched.
        assert not np.allclose(frame.pixels[:, :band], spec.intensity)

    def test_temporal_blur_is_trailing_mean(self):
        frames, _ = clean_base().render_window(duration_s=1.0, sample_hz=4.0)
        blurred = temporal_blur(frames, taps=2)
        assert len(blurred) == len(frames)
        assert np.array_equal(blurred[0].pixels, frames[0].pixels)
        expected = (frames[0].pixels + frames[1].pixels) / 2.0
        assert np.allclose(blurred[1].pixels, expected)

    def test_frame_drops_freeze_repeats_predecessor(self):
        frames, times = clean_base().render_window(duration_s=1.0, sample_hz=4.0)
        kept, kept_times = apply_frame_drops(frames, times, FrameDropSpec(period=2, mode="freeze"))
        assert len(kept) == len(frames)
        assert kept_times == list(times)
        assert kept[1] is kept[0]  # frame 1 frozen to its predecessor

    def test_frame_drops_remove_deletes_and_keeps_frame_zero(self):
        frames, times = clean_base().render_window(duration_s=1.0, sample_hz=4.0)
        kept, kept_times = apply_frame_drops(frames, times, FrameDropSpec(period=2, mode="remove"))
        assert len(kept) < len(frames)
        assert kept[0] is frames[0]
        assert kept_times[0] == times[0]
        assert len(kept) == len(kept_times)


class TestLongTailScenario:
    def test_clean_render_matches_base_bit_for_bit(self):
        # A clean window is render_frame of each sampled pose, byte for byte.
        base = clean_base()
        assert base.is_clean
        frames, times = base.render_window(duration_s=1.0, sample_hz=4.0)
        assert times == [0.0, 0.25, 0.5, 0.75]
        settings = NOON.render_settings()
        for frame, t in zip(frames, times):
            single = render_frame(base.pose_at(t), base.camera(), settings)
            assert np.array_equal(frame.pixels, single.pixels)

    def test_clean_drops_every_layer(self):
        scenario = sample_longtail(7, 2)
        assert not scenario.is_clean
        clean = scenario.clean
        assert clean.is_clean
        assert clean == replace(
            scenario, occlusion=None, conflict=None, blur=None, drops=None, drift=None
        )
        assert scenario.name.startswith(clean.name + "+")
        assert clean.clean == clean

    def test_conflicting_signer_adds_second_figure(self):
        base = clean_base()
        clean = render_one(base)
        doubled = render_one(replace(base, conflict=ConflictingSigner()))
        # Two bodies silhouette more pixels than one.
        assert (doubled.pixels < 0.5).sum() > (clean.pixels < 0.5).sum()

    def test_render_is_deterministic(self):
        scenario = sample_longtail(11, 3)
        duration = 1.0 if not scenario.is_dynamic else 2.0 * scenario.sign.period_s
        frames_a, _ = scenario.render_window(duration, 4.0)
        frames_b, _ = scenario.render_window(duration, 4.0)
        for a, b in zip(frames_a, frames_b):
            assert np.array_equal(a.pixels, b.pixels)

    def test_name_tags_active_layers(self):
        scenario = replace(
            clean_base(),
            occlusion=OcclusionSpec(side="top", fraction=0.3),
            drops=FrameDropSpec(period=2, mode="freeze"),
        )
        assert "occ:top0.3" in scenario.name
        assert "drop:" in scenario.name


class TestSampling:
    def test_same_seed_same_scenarios(self):
        assert [sample_longtail(9, i) for i in range(6)] == [
            sample_longtail(9, i) for i in range(6)
        ]

    def test_different_indices_vary(self):
        scenarios = {sample_longtail(9, i) for i in range(8)}
        assert len(scenarios) > 1

    def test_at_least_one_perturbation_always_active(self):
        for i in range(12):
            assert not sample_longtail(13, i).is_clean

    def test_conflict_sign_never_matches_expectation(self):
        for i in range(20):
            scenario = sample_longtail(17, i)
            if scenario.conflict is not None:
                assert scenario.conflict.sign.value != scenario.expected_label

    def test_axes_cover_night(self):
        assert NIGHT in AXIS_LIGHTINGS
        assert len(AXIS_SIGNS) > 3


class TestSerialisation:
    def test_round_trip_identity(self):
        for i in range(10):
            scenario = sample_longtail(21, i)
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_unknown_lighting_rejected_on_load(self):
        data = scenario_to_dict(sample_longtail(21, 0))
        data["lighting"] = "eclipse"
        with pytest.raises(KeyError):
            scenario_from_dict(data)

    def test_non_registry_persona_rejected_on_dump(self):
        from repro.human import Persona, TrainingLevel

        rogue = Persona(
            name="rogue", training=TrainingLevel.UNTRAINED,
            notice_probability=1.0, response_probability=1.0,
            correct_sign_probability=1.0, mean_delay_s=1.0,
            delay_jitter_s=0.0, max_lean_deg=0.0,
            grants_space_probability=1.0,
        )
        rogue_scenario = replace(sample_longtail(21, 0), persona=rogue)
        with pytest.raises(ValueError):
            scenario_to_dict(rogue_scenario)
