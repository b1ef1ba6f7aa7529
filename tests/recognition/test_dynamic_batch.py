"""Batched dynamic-sign windows: parity with the scalar chain and edge cases.

The scalar chain (``preprocess_frame`` + ``SignDatabase.classify`` per
frame, then ``decode``) is the reference; everything here checks that
``recognize_window`` reproduces it bit-identically, including the
awkward windows: empty, shorter than a keyframe cycle, and riddled with
unreadable frames mid-cycle.
"""

import pytest

from repro.geometry import observation_camera
from repro.human import MOVE_UPWARD, WAVE_OFF, RenderSettings, render_frame
from repro.recognition import DynamicObservation, DynamicSignRecognizer
from repro.recognition.pipeline import observation_elevation_deg
from repro.recognition.preprocess import preprocess_frame
from repro.vision import Image

CAMERA = observation_camera(5.0, 3.0, 0.0)
ELEVATION = observation_elevation_deg(5.0, 3.0)
SETTINGS = RenderSettings(noise_sigma=0.02)
HZ = 8.0


@pytest.fixture
def recognizer(enrolled_dynamic_recognizer) -> DynamicSignRecognizer:
    # Shared session recogniser (tests/conftest.py); read-only here.
    return enrolled_dynamic_recognizer


def window_for(sign, frame_count, hz=HZ):
    frames = [render_frame(sign.pose_at(k / hz), CAMERA, SETTINGS) for k in range(frame_count)]
    times = [k / hz for k in range(frame_count)]
    return frames, times


def scalar_reference(recognizer, frames, times):
    keyframes = recognizer.recognizer
    observations = []
    for frame, t in zip(frames, times):
        pre = preprocess_frame(frame, keyframes.preprocess_settings, elevation_deg=ELEVATION)
        label = keyframes.database.classify(pre.series).label if pre.ok else None
        observations.append(DynamicObservation(time_s=t, label=label))
    return recognizer.decode(observations)


class TestWindowParity:
    def test_labels_bit_identical_to_scalar(self, recognizer):
        frames, times = window_for(WAVE_OFF, 40)
        scalar = scalar_reference(recognizer, frames, times)
        batched = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        assert batched.observations == scalar.observations
        assert (batched.sign_name, batched.cycles_seen) == (
            scalar.sign_name,
            scalar.cycles_seen,
        )
        assert batched.sign_name == "wave_off"

    def test_move_upward_window(self, recognizer):
        frames, times = window_for(MOVE_UPWARD, 48)
        scalar = scalar_reference(recognizer, frames, times)
        batched = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        assert batched.observations == scalar.observations
        assert batched.sign_name == "move_upward"

    def test_sample_hz_timestamps(self, recognizer):
        frames, _ = window_for(WAVE_OFF, 8)
        result = recognizer.recognize_window(frames, sample_hz=HZ, elevation_deg=ELEVATION)
        assert [o.time_s for o in result.observations] == [k / HZ for k in range(8)]

    def test_mismatched_times_rejected(self, recognizer):
        frames, _ = window_for(WAVE_OFF, 4)
        with pytest.raises(ValueError):
            recognizer.recognize_window(frames, times=[0.0, 1.0], elevation_deg=ELEVATION)

    def test_default_times_are_frame_indices(self, recognizer):
        frames, _ = window_for(WAVE_OFF, 5)
        result = recognizer.recognize_window(frames, elevation_deg=ELEVATION)
        assert [o.time_s for o in result.observations] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_explicit_times_win_over_sample_hz(self, recognizer):
        frames, _ = window_for(WAVE_OFF, 3)
        times = [10.0, 10.5, 11.0]
        result = recognizer.recognize_window(
            frames, times=times, sample_hz=HZ, elevation_deg=ELEVATION
        )
        assert [o.time_s for o in result.observations] == times

    @pytest.mark.parametrize("sample_hz", [0.0, -8.0])
    def test_nonpositive_sample_hz_rejected(self, recognizer, sample_hz):
        frames, _ = window_for(WAVE_OFF, 2)
        with pytest.raises(ValueError):
            recognizer.recognize_window(frames, sample_hz=sample_hz, elevation_deg=ELEVATION)

    def test_per_frame_elevations_equal_scalar_elevation(self, recognizer):
        frames, times = window_for(WAVE_OFF, 16)
        scalar = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        listed = recognizer.recognize_window(
            frames, times, elevation_deg=[ELEVATION] * len(frames)
        )
        assert listed.observations == scalar.observations


class TestChunkedWindows:
    @pytest.mark.parametrize("chunk", [1, 5, 8, 17, 64])
    def test_chunked_windows_equal_whole_window(self, recognizer, chunk):
        # Each frame's label depends on that frame alone, so windows read
        # chunk by chunk and decoded together give the whole-window verdict.
        frames, times = window_for(WAVE_OFF, 64)
        whole = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        observations = []
        for start in range(0, len(frames), chunk):
            part = recognizer.recognize_window(
                frames[start : start + chunk],
                times[start : start + chunk],
                elevation_deg=ELEVATION,
            )
            observations.extend(part.observations)
        assert tuple(observations) == whole.observations
        result = recognizer.decode(observations)
        assert (result.sign_name, result.cycles_seen) == (
            whole.sign_name,
            whole.cycles_seen,
        )

    def test_repeated_frames_label_like_scalar(self, recognizer):
        # The same frame objects twice in one window are read once by the
        # batched front end; every copy still gets the scalar label.
        frames, _ = window_for(WAVE_OFF, 16)
        result = recognizer.recognize_window(frames + frames, sample_hz=HZ, elevation_deg=ELEVATION)
        scalar_labels = [
            recognizer.classify_frame(f, k / HZ, ELEVATION).label
            for k, f in enumerate(frames)
        ]
        assert [o.label for o in result.observations] == scalar_labels * 2
        assert [o.time_s for o in result.observations] == [k / HZ for k in range(32)]


class TestEdgeCases:
    def test_empty_window(self, recognizer):
        result = recognizer.recognize_window([], elevation_deg=ELEVATION)
        assert not result.recognised
        assert result.cycles_seen == 0
        assert result.observations == ()

    def test_window_shorter_than_keyframe_cycle(self, recognizer):
        # A quarter wave-off period: the pose never leaves keyframe #0,
        # so no full label cycle can exist, let alone min_cycles of them.
        frames, times = window_for(WAVE_OFF, int(0.25 * WAVE_OFF.period_s * HZ))
        scalar = scalar_reference(recognizer, frames, times)
        batched = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        assert batched.observations == scalar.observations
        assert not batched.recognised
        assert batched.cycles_seen == 0

    def test_unreadable_runs_mid_cycle(self, recognizer):
        # Blank out a run of frames inside each cycle; the None labels
        # must match the scalar path and must not break the decode.
        frames, times = window_for(WAVE_OFF, 64)
        blank = Image.full(frames[0].shape[0], frames[0].shape[1], 0.85)
        frames = [
            blank if k % 8 in (3, 4) else frame for k, frame in enumerate(frames)
        ]
        scalar = scalar_reference(recognizer, frames, times)
        batched = recognizer.recognize_window(frames, times, elevation_deg=ELEVATION)
        assert batched.observations == scalar.observations
        assert any(o.label is None for o in batched.observations)
        assert batched.sign_name == "wave_off"

    def test_all_unreadable_window(self, recognizer):
        blank = Image.full(240, 240, 0.85)
        result = recognizer.recognize_window([blank] * 6, elevation_deg=ELEVATION)
        assert [o.label for o in result.observations] == [None] * 6
        assert not result.recognised


class TestBatchedEnrolment:
    def test_enrolment_matches_reference_database(self, recognizer):
        # Enrolment must fill the wrapped recogniser's database exactly
        # like the scalar per-frame path (same labels, same SAX words).
        reference = DynamicSignRecognizer().recognizer
        for sign in (WAVE_OFF, MOVE_UPWARD):
            for index in range(sign.n_keyframes):
                for azimuth in (0.0, 30.0):
                    camera = observation_camera(5.0, 3.0, azimuth)
                    frame = render_frame(
                        sign.keyframe_pose(index), camera, RenderSettings(noise_sigma=0.0)
                    )
                    result = preprocess_frame(
                        frame, reference.preprocess_settings, elevation_deg=ELEVATION
                    )
                    reference.database.add(
                        f"{sign.name}#{index}", result.series, view=f"az{azimuth:.0f}"
                    )
        assert recognizer.recognizer.database.word_table() == reference.database.word_table()
