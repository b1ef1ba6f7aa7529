"""T-UNIQ (claim R4) — uniqueness of the three signs' SAX strings.

Paper Section IV: "Preliminary results also suggest that the strings
retrievable from the three signs are unique."  This bench produces the
pairwise word table and the pairwise rotation-invariant distance matrix
across the canonical views; shape claims: all words distinct, all
inter-class distances comfortably above the intra-class ones.
"""

import itertools

import numpy as np
import pytest

from repro.sax import best_shift_euclidean, best_shift_mindist


def word_table(recognizer) -> dict[str, str]:
    return recognizer.word_table()


def distance_matrix(recognizer) -> dict[tuple[str, str], float]:
    """Min rotation-invariant distance between canonical views of each pair."""
    matrix = {}
    labels = recognizer.database.labels
    for a, b in itertools.product(labels, labels):
        best = min(
            best_shift_euclidean(ea.series, eb.series).distance / np.sqrt(len(ea.series))
            for ea in recognizer.database.entries(a)[:1]
            for eb in recognizer.database.entries(b)[:1]
        )
        matrix[(a, b)] = best
    return matrix


def test_words_unique(benchmark, recognizer):
    words = benchmark(word_table, recognizer)
    assert len(words) == 3
    assert len(set(words.values())) == 3, f"collision in {words}"
    benchmark.extra_info["words"] = words


def test_interclass_distances_dominate(benchmark, recognizer):
    matrix = benchmark.pedantic(distance_matrix, args=(recognizer,), rounds=1, iterations=1)
    diagonal = [matrix[(a, a)] for a in recognizer.database.labels]
    off_diagonal = [
        value for (a, b), value in matrix.items() if a != b
    ]
    assert max(diagonal) == pytest.approx(0.0, abs=1e-6)  # FFT roundoff
    assert min(off_diagonal) > 0.3, "two signs nearly coincide"
    benchmark.extra_info["min_interclass"] = round(min(off_diagonal), 3)


def test_word_level_separation(benchmark, recognizer):
    """Even at the coarse SAX-word level (MINDIST), the three canonical
    words separate — the string database alone tells them apart."""

    def min_word_distance():
        labels = recognizer.database.labels
        n = len(recognizer.database.entry(labels[0]).series)
        distances = []
        for a, b in itertools.combinations(labels, 2):
            wa = recognizer.database.entry(a).word
            wb = recognizer.database.entry(b).word
            distances.append(best_shift_mindist(wa, wb, n).distance / np.sqrt(n))
        return min(distances)

    minimum = benchmark(min_word_distance)
    assert minimum > 0.0
    benchmark.extra_info["min_word_mindist"] = round(minimum, 4)


if __name__ == "__main__":
    from repro.recognition import SaxSignRecognizer

    rec = SaxSignRecognizer()
    rec.enroll_canonical_views()
    print("T-UNIQ canonical SAX words:")
    for label, word in rec.word_table().items():
        print(f"  {label:10s} {word}")
    print("pairwise rotation-invariant distances (canonical views):")
    matrix = distance_matrix(rec)
    labels = rec.database.labels
    print("            " + "".join(f"{b:>11s}" for b in labels))
    for a in labels:
        print(f"  {a:10s}" + "".join(f"{matrix[(a, b)]:11.3f}" for b in labels))
