"""Tests for real-time budget accounting (requirement R-TIMELY)."""

import time

import pytest

from repro.recognition import FRAME_BUDGET_S, BudgetReport, FrameBudget, StageTiming


class TestFrameBudget:
    def test_stage_timing(self):
        budget = FrameBudget(budget_s=1.0)
        with budget.stage("work"):
            time.sleep(0.01)
        assert len(budget.timings) == 1
        assert budget.timings[0].stage == "work"
        assert budget.timings[0].duration_s >= 0.009

    def test_total_sums_stages(self):
        budget = FrameBudget(budget_s=1.0)
        with budget.stage("a"):
            time.sleep(0.005)
        with budget.stage("b"):
            time.sleep(0.005)
        assert budget.total_s() >= 0.009

    def test_within_budget(self):
        budget = FrameBudget(budget_s=10.0)
        with budget.stage("fast"):
            pass
        assert budget.within_budget()

    def test_over_budget(self):
        budget = FrameBudget(budget_s=0.001)
        with budget.stage("slow"):
            time.sleep(0.01)
        assert not budget.within_budget()

    def test_stage_timed_even_on_exception(self):
        budget = FrameBudget(budget_s=1.0)
        with pytest.raises(RuntimeError):
            with budget.stage("failing"):
                raise RuntimeError("boom")
        assert budget.timings[0].stage == "failing"

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameBudget(budget_s=0.0)

    def test_default_budget_is_thirty_fps(self):
        assert FRAME_BUDGET_S == pytest.approx(1.0 / 30.0)
        assert FrameBudget().budget_s == FRAME_BUDGET_S

    def test_dotted_name_is_an_ordinary_stage(self):
        # Stages are flat: a dotted name is not a sub-stage and counts.
        budget = FrameBudget(budget_s=1.0)
        budget.timings[:] = [
            StageTiming("preprocess", 0.020),
            StageTiming("preprocess.threshold", 0.010),
        ]
        assert budget.total_s() == pytest.approx(0.030)
        assert budget.report().stage_fraction("preprocess.threshold") == pytest.approx(1 / 3)

    def test_report_is_a_snapshot(self):
        budget = FrameBudget(budget_s=1.0)
        with budget.stage("first"):
            pass
        report = budget.report()
        with budget.stage("second"):
            time.sleep(0.002)
        assert [t.stage for t in report.stages] == ["first"]
        assert report.total_s < budget.total_s()


class TestBudgetReport:
    def make_report(self) -> BudgetReport:
        return BudgetReport(
            budget_s=0.033,
            stages=(
                StageTiming("preprocess", 0.020),
                StageTiming("sax_match", 0.005),
            ),
            total_s=0.025,
        )

    def test_within_budget_property(self):
        assert self.make_report().within_budget

    def test_stage_fraction(self):
        report = self.make_report()
        assert report.stage_fraction("preprocess") == pytest.approx(0.8)
        assert report.stage_fraction("sax_match") == pytest.approx(0.2)
        assert report.stage_fraction("missing") == 0.0

    def test_summary_format(self):
        text = self.make_report().summary()
        assert "preprocess" in text
        assert "OK" in text

    def test_over_budget_summary(self):
        report = BudgetReport(
            budget_s=0.01, stages=(StageTiming("x", 0.02),), total_s=0.02
        )
        assert "OVER" in report.summary()
        assert not report.within_budget

    def test_stage_fraction_of_empty_report(self):
        report = BudgetReport(budget_s=0.033, stages=(), total_s=0.0)
        assert report.stage_fraction("preprocess") == 0.0

    def test_paper_stage_split(self):
        """The paper's observation: pre-processing dominates while the
        SAX conversion + string search stages are 'computationally
        cheap'.  Verify on a real frame."""
        from repro.human import MarshallingSign
        from repro.recognition import SaxSignRecognizer

        rec = SaxSignRecognizer()
        rec.enroll_canonical_views()
        result = rec.recognise_observation(MarshallingSign.NO, 5.0, 3.0, 0.0)
        # Both stages measured; neither is 100% of the time.
        assert 0.0 < result.budget.stage_fraction("preprocess") < 1.0
        assert 0.0 < result.budget.stage_fraction("sax_match") < 1.0
