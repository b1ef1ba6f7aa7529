"""The A/B command's statistics, on synthetic pairs (no subprocess)."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

# Load the script in isolation rather than putting scripts/ on sys.path
# (which would shadow same-named modules for the whole pytest session).
_spec = importlib.util.spec_from_file_location(
    "repro_scripts_ab_perfbench", ROOT / "scripts" / "ab_perfbench.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class TestSignTest:
    def test_ten_of_ten(self):
        assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)

    def test_eight_of_ten(self):
        # P(X <= 2) for Binomial(10, 1/2) is 56/1024, doubled.
        assert ab.sign_test_p(8, 2) == pytest.approx(112 / 1024)

    def test_symmetric_and_capped(self):
        assert ab.sign_test_p(3, 7) == ab.sign_test_p(7, 3)
        assert ab.sign_test_p(5, 5) == 1.0
        assert ab.sign_test_p(0, 0) == 1.0

    def test_matches_the_binomial_tail(self):
        for n in range(1, 16):
            for wins in range(n + 1):
                low = min(wins, n - wins)
                tail = sum(math.comb(n, k) for k in range(low + 1)) / 2**n
                assert ab.sign_test_p(wins, n - wins) == pytest.approx(min(1.0, 2 * tail))


class TestCompare:
    def test_higher_is_better(self):
        base = [2.0, 2.5, 3.0, 2.2]
        change = [2.4, 2.6, 3.6, 2.0]
        stats = ab.compare(base, change, "higher")
        assert stats["pairs"] == 4
        assert stats["wins"] == 3 and stats["losses"] == 1
        ratios = sorted(c / b for b, c in zip(base, change))
        assert stats["median_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)
        assert stats["base_median"] == pytest.approx(2.35)
        assert stats["change_median"] == pytest.approx(2.5)

    def test_lower_is_better_orients_the_ratio(self):
        stats = ab.compare([10.0, 10.0, 10.0], [8.0, 5.0, 12.5], "lower")
        assert stats["wins"] == 2 and stats["losses"] == 1
        assert stats["median_ratio"] == pytest.approx(10.0 / 8.0)
        assert stats["min_ratio"] == pytest.approx(0.8)
        assert stats["max_ratio"] == pytest.approx(2.0)

    def test_ties_count_for_neither_side(self):
        stats = ab.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.3], "higher")
        assert (stats["wins"], stats["losses"]) == (1, 0)
        assert stats["sign_p"] == 1.0

    def test_iqr_and_clearing_it(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, median, q3 = ab.quartiles(base)
        assert (q1, median, q3) == (2.0, 3.0, 4.0)
        assert ab.compare(base, [x + 2.5 for x in base], "higher")["clears_iqr"]
        assert not ab.compare(base, [x + 1.5 for x in base], "higher")["clears_iqr"]
        # A gain in the wrong direction never clears it.
        assert not ab.compare(base, [x + 9.0 for x in base], "lower")["clears_iqr"]
        assert ab.compare(base, [x - 2.5 for x in base], "lower")["clears_iqr"]

    def test_a_against_a_reads_no_difference(self):
        values = [2.6, 2.9, 3.1, 2.7, 2.8, 3.0]
        stats = ab.compare(values, list(values), "higher")
        assert stats["median_ratio"] == 1.0
        assert stats["wins"] == stats["losses"] == 0
        assert not stats["clears_iqr"]

    def test_one_pair(self):
        stats = ab.compare([2.0], [3.0], "higher")
        assert stats["base_iqr"] == 0.0 and stats["clears_iqr"]

    def test_rejects_unpaired_or_unoriented_input(self):
        with pytest.raises(ValueError):
            ab.compare([1.0, 2.0], [1.0], "higher")
        with pytest.raises(ValueError):
            ab.compare([], [], "higher")
        with pytest.raises(ValueError):
            ab.compare([1.0], [1.0], "faster")


class TestRefusals:
    def run(self, label, correct=True, failed=0):
        return {"label": label, "result": {"correct": correct, "failed": failed, "metrics": {}}}

    def test_clean_runs_give_a_verdict(self):
        assert ab.refusals([self.run("a"), self.run("b")]) == []

    def test_incorrect_failed_or_missing_runs_refuse_it(self):
        runs = [
            self.run("ok"),
            self.run("wrong", correct=False),
            self.run("lost", failed=2),
            {"label": "crashed", "result": None},
        ]
        problems = ab.refusals(runs)
        assert len(problems) == 3
        assert [p.split(":")[0] for p in problems] == ["wrong", "lost", "crashed"]
