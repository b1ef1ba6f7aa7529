"""Tests for dynamic-sign recognition (temporal SAX)."""

import pytest

from repro.geometry import observation_camera
from repro.human import (
    MOVE_UPWARD,
    WAVE_OFF,
    MarshallingSign,
    RenderSettings,
    pose_for_sign,
    render_frame,
)
from repro.recognition import DynamicObservation, DynamicSignRecognizer, SaxSignRecognizer
from repro.recognition.pipeline import observation_elevation_deg
from repro.recognition.preprocess import PreprocessSettings
from repro.sax.encoder import SaxParameters

CAMERA = observation_camera(5.0, 3.0, 0.0)
ELEVATION = observation_elevation_deg(5.0, 3.0)
SETTINGS = RenderSettings(noise_sigma=0.02)


@pytest.fixture
def recognizer(enrolled_dynamic_recognizer) -> DynamicSignRecognizer:
    # Shared session recogniser (tests/conftest.py); read-only here.
    return enrolled_dynamic_recognizer


def renderer_for(sign):
    return lambda t: render_frame(sign.pose_at(t), CAMERA, SETTINGS)


class TestEnrolment:
    def test_signs_enrolled(self, recognizer):
        assert set(recognizer.enrolled_signs) == {"wave_off", "move_upward"}

    def test_keyframes_in_database(self, recognizer):
        assert "wave_off#0" in recognizer.recognizer.database
        assert "move_upward#1" in recognizer.recognizer.database

    def test_min_cycles_validation(self):
        with pytest.raises(ValueError):
            DynamicSignRecognizer(min_cycles=0)

    def test_settings_reach_wrapped_recognizer(self):
        settings = PreprocessSettings()
        parameters = SaxParameters(word_length=16, alphabet_size=5)
        dynamic = DynamicSignRecognizer(
            sax_parameters=parameters,
            acceptance_threshold=0.4,
            preprocess_settings=settings,
        )
        wrapped = dynamic.recognizer
        assert wrapped.preprocess_settings is settings
        assert wrapped.database.encoder.parameters == parameters
        assert wrapped.database.acceptance_threshold == 0.4
        # Dynamic signs default to a looser margin than static ones.
        assert wrapped.database.margin_threshold == 0.05
        assert SaxSignRecognizer().database.margin_threshold > 0.05

    def test_unenrolled_recognizer_names_enroll(self):
        unenrolled = DynamicSignRecognizer()
        frame = renderer_for(WAVE_OFF)(0.0)
        with pytest.raises(RuntimeError, match=r"call enroll\(\) first"):
            unenrolled.classify_frame(frame, 0.0, ELEVATION)
        with pytest.raises(RuntimeError, match=r"call enroll\(\) first"):
            unenrolled.recognize_window([frame], elevation_deg=ELEVATION)


class TestRecognition:
    def test_wave_off_decoded(self, recognizer):
        result = recognizer.observe_sequence(
            renderer_for(WAVE_OFF),
            duration_s=3.0 * WAVE_OFF.period_s,
            sample_hz=8.0,
            elevation_deg=ELEVATION,
        )
        assert result.recognised
        assert result.sign_name == "wave_off"
        assert result.cycles_seen >= 2

    def test_move_upward_decoded(self, recognizer):
        result = recognizer.observe_sequence(
            renderer_for(MOVE_UPWARD),
            duration_s=3.0 * MOVE_UPWARD.period_s,
            sample_hz=8.0,
            elevation_deg=ELEVATION,
        )
        assert result.sign_name == "move_upward"

    def test_static_pose_not_decoded(self, recognizer):
        """A held static sign never counts as a dynamic signal."""
        static = lambda t: render_frame(
            pose_for_sign(MarshallingSign.YES), CAMERA, SETTINGS
        )
        result = recognizer.observe_sequence(
            static, duration_s=4.0, sample_hz=8.0,
            elevation_deg=ELEVATION,
        )
        assert not result.recognised
        assert result.cycles_seen == 0

    def test_single_cycle_insufficient(self, recognizer):
        """min_cycles=2: one cycle could be coincidence."""
        result = recognizer.observe_sequence(
            renderer_for(WAVE_OFF),
            duration_s=1.1 * WAVE_OFF.period_s,
            sample_hz=8.0,
            elevation_deg=ELEVATION,
        )
        assert not result.recognised

    def test_occlusion_tolerated(self, recognizer):
        """Dropping every third frame (occlusion/motion blur) must not
        break the decode — unreadable frames are skipped, not resets."""
        base = renderer_for(WAVE_OFF)
        from repro.vision import Image

        def flaky(t):
            if int(t * 8) % 3 == 0:
                return Image.full(240, 240, 0.85)  # unreadable frame
            return base(t)

        result = recognizer.observe_sequence(
            flaky,
            duration_s=4.0 * WAVE_OFF.period_s,
            sample_hz=8.0,
            elevation_deg=ELEVATION,
        )
        assert result.sign_name == "wave_off"


class TestDecoder:
    def obs(self, labels):
        return [
            DynamicObservation(time_s=float(i), label=label)
            for i, label in enumerate(labels)
        ]

    def test_ordered_cycles_counted(self, recognizer):
        observations = self.obs(
            ["wave_off#0", "wave_off#1", "wave_off#0", "wave_off#1"]
        )
        result = recognizer.decode(observations)
        assert result.sign_name == "wave_off"
        assert result.cycles_seen == 2

    def test_repeated_keyframe_not_double_counted(self, recognizer):
        observations = self.obs(
            ["wave_off#0", "wave_off#0", "wave_off#1", "wave_off#1"]
        )
        result = recognizer.decode(observations)
        assert result.cycles_seen == 1

    def test_reverse_order_not_a_cycle(self, recognizer):
        observations = self.obs(
            ["wave_off#1", "wave_off#0", "wave_off#1", "wave_off#0"]
        )
        # #0 -> #1 still appears once inside this stream (positions 1,2),
        # but never twice: below min_cycles.
        result = recognizer.decode(observations)
        assert not result.recognised

    def test_none_frames_skipped(self, recognizer):
        observations = self.obs(
            ["wave_off#0", None, "wave_off#1", None, "wave_off#0", "wave_off#1"]
        )
        result = recognizer.decode(observations)
        assert result.cycles_seen == 2

    def test_empty_window(self, recognizer):
        result = recognizer.decode([])
        assert not result.recognised

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_verdict_after_each_cycle(self, recognizer, repeats):
        labels = ["wave_off#0", "wave_off#1"] * repeats
        result = recognizer.decode(self.obs(labels))
        assert result.cycles_seen == repeats
        assert result.recognised == (repeats >= recognizer.min_cycles)
        assert list(result.observations) == self.obs(labels)

    def test_mixed_signs_and_unreadable_frames(self, recognizer):
        labels = (
            ["wave_off#0", "wave_off#1", None, "move_upward#0"] * 6
            + ["wave_off#0", "wave_off#1"]
        )
        result = recognizer.decode(self.obs(labels))
        assert (result.sign_name, result.cycles_seen) == ("wave_off", 7)
        assert list(result.observations) == self.obs(labels)
