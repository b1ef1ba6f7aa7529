"""Tests for batched recognition: recognize_batch parity + amortised budget.

Acceptance gate for the batched engine: for every communicative sign
(and for rejected/unknown shapes) the batched path must report exactly
the label, distance and margin of the scalar per-frame path.
"""

import pytest

from repro.geometry import observation_camera
from repro.human import (
    COMMUNICATIVE_SIGNS,
    MarshallingSign,
    RenderSettings,
    pose_for_sign,
    render_frame,
)
from repro.recognition import BudgetReport, FrameBudget, SaxSignRecognizer, StageTiming
from repro.recognition.pipeline import observation_elevation_deg
from repro.vision.image import Image

ELEVATION = observation_elevation_deg(5.0, 3.0)


@pytest.fixture
def recognizer(canonical_recognizer) -> SaxSignRecognizer:
    # Shared session recogniser (tests/conftest.py); read-only here.
    return canonical_recognizer


def frame_of(sign: MarshallingSign, azimuth_deg: float = 0.0) -> Image:
    camera = observation_camera(5.0, 3.0, azimuth_deg)
    return render_frame(pose_for_sign(sign), camera, RenderSettings(noise_sigma=0.02))


class TestRecognizeBatchParity:
    def test_every_sign_matches_scalar_path(self, recognizer):
        frames = [
            frame_of(sign, azimuth)
            for sign in COMMUNICATIVE_SIGNS
            for azimuth in (0.0, 30.0, 65.0)
        ]
        batch = recognizer.recognize_batch(frames, elevation_deg=ELEVATION)
        for frame, batched in zip(frames, batch):
            scalar = recognizer.recognise(frame, elevation_deg=ELEVATION)
            assert batched.label == scalar.label
            assert batched.distance == scalar.distance
            assert batched.margin == scalar.margin
            assert batched.reject_reason == scalar.reject_reason

    def test_signs_recognised(self, recognizer):
        frames = [frame_of(sign) for sign in COMMUNICATIVE_SIGNS]
        batch = recognizer.recognize_batch(frames, elevation_deg=ELEVATION)
        assert [r.sign for r in batch] == list(COMMUNICATIVE_SIGNS)
        assert all(r.recognised for r in batch)

    def test_unusable_frame_rejected_in_place(self, recognizer):
        """A frame with no silhouette is rejected without derailing the
        batch: surrounding frames keep their scalar-path results."""
        blank = Image.full(48, 48, 1.0)
        frames = [frame_of(MarshallingSign.YES), blank, frame_of(MarshallingSign.NO)]
        batch = recognizer.recognize_batch(frames, elevation_deg=ELEVATION)
        assert batch[0].sign is MarshallingSign.YES
        assert batch[1].label is None
        assert batch[1].reject_reason is not None
        assert batch[1].distance == float("inf")
        assert batch[2].sign is MarshallingSign.NO

    def test_per_frame_elevations(self, recognizer):
        frames = [frame_of(MarshallingSign.YES), frame_of(MarshallingSign.NO)]
        batch = recognizer.recognize_batch(frames, elevation_deg=[ELEVATION, ELEVATION])
        assert [r.sign for r in batch] == [MarshallingSign.YES, MarshallingSign.NO]

    def test_elevation_count_mismatch(self, recognizer):
        with pytest.raises(ValueError):
            recognizer.recognize_batch(
                [frame_of(MarshallingSign.YES)], elevation_deg=[ELEVATION, ELEVATION]
            )

    def test_empty_batch(self, recognizer):
        assert recognizer.recognize_batch([]) == []

    def test_unenrolled_recognizer_raises(self):
        with pytest.raises(RuntimeError):
            SaxSignRecognizer().recognize_batch([frame_of(MarshallingSign.YES)])

    def test_scalar_elevation_equals_per_frame_list(self, recognizer):
        frames = [frame_of(MarshallingSign.YES)]
        assert (
            recognizer.recognize_batch(frames, elevation_deg=[ELEVATION])[0].label
            == recognizer.recognize_batch(frames, elevation_deg=ELEVATION)[0].label
        )


class TestBatchBudget:
    def test_shared_amortised_report(self, recognizer):
        frames = [frame_of(sign) for sign in COMMUNICATIVE_SIGNS]
        batch = recognizer.recognize_batch(frames, elevation_deg=ELEVATION)
        report = batch[0].budget
        assert all(r.budget is report for r in batch)
        assert report.frame_count == len(frames)
        assert report.per_frame_s == pytest.approx(report.total_s / len(frames))
        assert "frames" in report.summary()

    def test_frame_budget_amortisation(self):
        budget = FrameBudget(budget_s=0.010, frame_count=10)
        with budget.stage("work"):
            pass
        budget.timings[:] = [StageTiming("work", 0.050)]
        # 50 ms over 10 frames = 5 ms/frame, within a 10 ms budget.
        assert budget.per_frame_s() == pytest.approx(0.005)
        assert budget.within_budget()
        assert budget.report().frame_count == 10

    def test_single_frame_semantics_unchanged(self):
        report = BudgetReport(
            budget_s=0.033, stages=(StageTiming("x", 0.02),), total_s=0.02
        )
        assert report.frame_count == 1
        assert report.per_frame_s == report.total_s
        assert report.within_budget

    def test_frame_count_validation(self):
        with pytest.raises(ValueError):
            FrameBudget(budget_s=1.0, frame_count=0)
