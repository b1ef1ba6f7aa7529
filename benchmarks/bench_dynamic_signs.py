"""EXT-DYN — dynamic marshalling signals (paper Section V future work).

"The flexibility of the system with respect to other static and,
possibly later, dynamic marshalling signals should also be examined."

This bench examines exactly that: two aviation-style periodic signals
(wave-off, move-upward) recognised by per-frame SAX classification plus
a keyframe-sequence decoder.  Shape claims: both signals decode within
three periods, a held static sign never false-triggers, and the
per-frame cost stays in the static pipeline's real-time class.
"""

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
from repro.recognition import DynamicSignRecognizer
from repro.recognition.pipeline import observation_elevation_deg

CAMERA = observation_camera(5.0, 3.0, 0.0)
ELEVATION = observation_elevation_deg(5.0, 3.0)
SETTINGS = RenderSettings(noise_sigma=0.02)


@pytest.fixture(scope="module")
def dynamic_recognizer() -> DynamicSignRecognizer:
    rec = DynamicSignRecognizer()
    rec.enroll(WAVE_OFF)
    rec.enroll(MOVE_UPWARD)
    return rec


def decode_signal(recognizer, sign):
    renderer = lambda t: render_frame(sign.pose_at(t), CAMERA, SETTINGS)
    return recognizer.observe_sequence(
        renderer,
        duration_s=3.0 * sign.period_s,
        sample_hz=8.0,
        elevation_deg=ELEVATION,
    )


def test_wave_off_decodes(benchmark, dynamic_recognizer):
    result = benchmark.pedantic(
        decode_signal, args=(dynamic_recognizer, WAVE_OFF), rounds=1, iterations=1
    )
    assert result.sign_name == "wave_off"
    benchmark.extra_info["cycles"] = result.cycles_seen


def test_move_upward_decodes(benchmark, dynamic_recognizer):
    result = benchmark.pedantic(
        decode_signal, args=(dynamic_recognizer, MOVE_UPWARD), rounds=1, iterations=1
    )
    assert result.sign_name == "move_upward"


def test_static_never_false_triggers(benchmark, dynamic_recognizer):
    def static_window():
        renderer = lambda t: render_frame(
            pose_for_sign(MarshallingSign.YES), CAMERA, SETTINGS
        )
        return dynamic_recognizer.observe_sequence(
            renderer, duration_s=5.0, sample_hz=8.0,
            elevation_deg=ELEVATION,
        )

    result = benchmark.pedantic(static_window, rounds=1, iterations=1)
    assert not result.recognised


def test_per_frame_cost(benchmark, dynamic_recognizer):
    """One frame through the dynamic classifier — must stay in the
    static pipeline's latency class (the decoder itself is free)."""
    frame = render_frame(WAVE_OFF.pose_at(0.0), CAMERA, SETTINGS)
    observation = benchmark(
        dynamic_recognizer.classify_frame, frame, 0.0, ELEVATION
    )
    assert observation.label == "wave_off#0"


if __name__ == "__main__":
    rec = DynamicSignRecognizer()
    rec.enroll(WAVE_OFF)
    rec.enroll(MOVE_UPWARD)
    print("EXT-DYN dynamic-signal decoding (3 periods @ 8 Hz sampling):")
    for sign in (WAVE_OFF, MOVE_UPWARD):
        result = decode_signal(rec, sign)
        print(f"  {sign.name:12s} -> {result.sign_name} "
              f"({result.cycles_seen} cycles seen)   [{sign.meaning}]")
