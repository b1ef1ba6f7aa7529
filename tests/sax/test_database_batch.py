"""Tests for the batched database engine: parity, mutation, cache coherence.

``classify_batch`` scores every query against the precomputed reference
cache in one vectorised FFT pass; it must return *bit-identical*
``MatchResult``s to the scalar ``classify`` path, both must score each
label as the exact minimum over its views, and the cache must stay
coherent through ``add``/``remove`` mutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sax import SaxParameters, SignDatabase, best_shift_euclidean, best_shift_mindist


def wave(freq: float, n: int = 128, phase: float = 0.0) -> np.ndarray:
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.sin(freq * t + phase) + 0.3 * np.sin(3 * freq * t)


def build_db() -> SignDatabase:
    db = SignDatabase()
    db.add("slow", wave(1))
    db.add("slow", wave(1, phase=0.4), view="az30")
    db.add("mid", wave(2.5))
    db.add("fast", wave(5))
    return db


def exact_scores(db: SignDatabase, query: np.ndarray) -> list[tuple[float, str]]:
    """Each label's score by definition: the minimum exact best-shift
    distance over its views, per sample."""
    sqrt_n = np.sqrt(len(query))
    scores = []
    for label in db.labels:
        distances = [
            best_shift_euclidean(query, view.series).distance / sqrt_n
            for view in db.entries(label)
        ]
        scores.append((min(distances), label))
    return scores


def assert_exact(db: SignDatabase, queries: list[np.ndarray]) -> None:
    """Scalar and batched scores both equal :func:`exact_scores` as floats,
    and the batched verdicts equal the scalar ones."""
    for query, scored in zip(queries, db.score_batch(queries)):
        expected = exact_scores(db, query)
        assert db._score_scalar(query) == expected
        assert scored == expected
    assert db.classify_batch(queries) == [db.classify(q) for q in queries]


def spiky(rng: np.random.Generator, n: int) -> np.ndarray:
    """A square wave of random +-1 runs of four samples."""
    return np.repeat(rng.choice([-1.0, 1.0], size=-(-n // 4)), 4)[:n]


def query_set() -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [
        wave(1),
        wave(5),
        np.roll(wave(5), 17),
        np.roll(wave(1), 50),
        wave(2.5, phase=0.1),
        rng.normal(size=128),  # unknown shape -> rejected
        wave(3.4),  # between references -> margin-rejected or rejected
    ]


class TestClassifyBatchParity:
    def test_bit_identical_to_scalar(self):
        db = build_db()
        queries = query_set()
        batch = db.classify_batch(queries)
        for query, result in zip(queries, batch):
            assert result == db.classify(query)

    def test_ndarray_and_sequence_forms_agree(self):
        db = build_db()
        queries = query_set()
        assert db.classify_batch(np.stack(queries)) == db.classify_batch(queries)

    def test_rejection_fields_preserved(self):
        db = build_db()
        rng = np.random.default_rng(1)
        result = db.classify_batch([rng.normal(size=128)])[0]
        assert result.label is None
        assert not result.accepted
        assert result.runner_up_label in ("slow", "mid", "fast")

    def test_exact_on_half_segment_shifts(self):
        """A query half a PAA segment off a clean spiky view has a tiny
        exact distance to it but a large word-level MINDIST; that view
        still scores, on both paths, under a tight acceptance threshold."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            db = SignDatabase(acceptance_threshold=0.05)
            clean = spiky(rng, 128)
            db.add("x", clean + 0.35 * rng.normal(size=128), view="v1")
            db.add("x", clean, view="v2")
            db.add("y", rng.normal(size=128))
            assert_exact(db, [np.roll(clean, 2)])

    def test_exact_with_indivisible_word(self):
        """A word length that does not divide the series length leaves
        the scores exact on both paths."""
        rng = np.random.default_rng(1)
        db = SignDatabase(
            SaxParameters(word_length=24, alphabet_size=5), acceptance_threshold=0.05
        )
        for label in ("a", "b"):
            for view in range(3):
                db.add(label, spiky(rng, 100) + 0.3 * rng.normal(size=100), view=f"v{view}")
        queries = [
            np.roll(spiky(rng, 100), int(rng.integers(0, 100))) + 0.1 * rng.normal(size=100)
            for _ in range(25)
        ]
        assert_exact(db, queries)

    @pytest.mark.parametrize(
        ("word_length", "alphabet_size"),
        [(8, 3), (8, 10), (12, 2), (16, 4), (16, 26), (20, 6), (24, 5), (32, 6), (36, 12)],
    )
    def test_exact_reference_across_sax_parameters(self, word_length, alphabet_size):
        """Across word lengths that divide the series length and ones
        that do not, and alphabets from binary to 26 symbols, every
        label scores the exact minimum over its views under a tight
        acceptance threshold, on both paths."""
        rng = np.random.default_rng(word_length * 100 + alphabet_size)
        n = 96
        db = SignDatabase(
            SaxParameters(word_length=word_length, alphabet_size=alphabet_size),
            acceptance_threshold=0.05,
        )
        for label in ("a", "b", "c"):
            for view in range(2):
                db.add(label, spiky(rng, n) + 0.3 * rng.normal(size=n), view=f"v{view}")
        queries = [
            np.roll(spiky(rng, n), int(rng.integers(0, n))) + 0.1 * rng.normal(size=n)
            for _ in range(20)
        ]
        assert_exact(db, queries + [np.full(n, 0.5)])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([96, 100, 128]),
        word_length=st.sampled_from([8, 16, 24, 32]),
        alphabet_size=st.integers(3, 12),
        shift=st.integers(1, 3),
    )
    def test_exact_reference_property(self, seed, n, word_length, alphabet_size, shift):
        """A query a fraction of a PAA segment off a clean spiky view has
        a tiny exact distance to it but a large word-level MINDIST: under
        ``acceptance_threshold=0.05`` that view still scores, and each
        label's score is the exact minimum over its views."""
        rng = np.random.default_rng(seed)
        db = SignDatabase(
            SaxParameters(word_length=word_length, alphabet_size=alphabet_size),
            acceptance_threshold=0.05,
        )
        for label in ("x", "y"):
            clean = spiky(rng, n)
            db.add(label, clean + 0.35 * rng.normal(size=n), view="noisy")
            db.add(label, clean, view="clean")
        views = db.reference_matrix()
        queries = [
            np.roll(views[1], shift),
            np.roll(views[3], -shift) + 0.01 * rng.normal(size=n),
            rng.normal(size=n),
        ]
        assert_exact(db, queries)

    def test_large_batch_spans_chunks(self):
        """Batches larger than the internal chunk size stay bit-identical."""
        db = build_db()
        rng = np.random.default_rng(2)
        queries = [
            np.roll(wave(rng.uniform(0.5, 6.0), phase=rng.uniform(0, 3)), int(s))
            for s in rng.integers(0, 128, size=150)
        ]
        batch = db.classify_batch(queries)
        assert len(batch) == 150
        for query, result in zip(queries, batch):
            assert result == db.classify(query)

    def test_empty_batch(self):
        assert build_db().classify_batch([]) == []

    def test_empty_database_raises(self):
        with pytest.raises(RuntimeError):
            SignDatabase().classify_batch([wave(1)])

    def test_single_series_rejected(self):
        with pytest.raises(ValueError):
            build_db().classify_batch(wave(1))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_db().classify_batch([wave(1, n=64)])

    def test_too_short_series_raises(self):
        db = SignDatabase(SaxParameters(word_length=32))
        db.add("sign", wave(1))
        with pytest.raises(ValueError):
            db.classify_batch([np.arange(8.0)])

    @pytest.mark.parametrize("method", ["classify", "score_batch"])
    def test_too_short_series_raises_on_every_path(self, method):
        """The scalar and batched paths share one word-length check."""
        db = SignDatabase(SaxParameters(word_length=32))
        db.add("sign", np.arange(8.0).repeat(4))
        query = np.arange(8.0)
        with pytest.raises(ValueError, match="shorter than word length 32"):
            getattr(db, method)(query if method == "classify" else [query])


class TestMutationCacheCoherence:
    """After add/remove, both paths must agree with a freshly-built database
    (regression guard for the precomputed FFT cache)."""

    def test_add_invalidates_cache(self):
        db = build_db()
        queries = query_set()
        db.classify_batch(queries)  # build the cache
        db.add("extra", wave(7))
        fresh = build_db()
        fresh.add("extra", wave(7))
        assert db.classify_batch(queries) == fresh.classify_batch(queries)
        for query in queries:
            assert db.classify(query) == fresh.classify(query)

    def test_view_replacement_invalidates_cache(self):
        db = build_db()
        queries = query_set()
        db.classify_batch(queries)
        db.add("slow", wave(1.2), view="az30")  # replace an existing view
        fresh = SignDatabase()
        fresh.add("slow", wave(1))
        fresh.add("slow", wave(1.2), view="az30")
        fresh.add("mid", wave(2.5))
        fresh.add("fast", wave(5))
        assert db.classify_batch(queries) == fresh.classify_batch(queries)

    def test_remove_view_invalidates_cache(self):
        db = build_db()
        queries = query_set()
        db.classify_batch(queries)
        db.remove("slow", view="az30")
        fresh = SignDatabase()
        fresh.add("slow", wave(1))
        fresh.add("mid", wave(2.5))
        fresh.add("fast", wave(5))
        assert db.classify_batch(queries) == fresh.classify_batch(queries)
        for query in queries:
            assert db.classify(query) == fresh.classify(query)

    def test_remove_label_invalidates_cache(self):
        db = build_db()
        queries = query_set()
        db.classify_batch(queries)
        db.remove("mid")
        fresh = SignDatabase()
        fresh.add("slow", wave(1))
        fresh.add("slow", wave(1, phase=0.4), view="az30")
        fresh.add("fast", wave(5))
        assert db.classify_batch(queries) == fresh.classify_batch(queries)

    def test_batch_and_scalar_agree_after_every_mutation(self):
        db = build_db()
        queries = query_set()
        for mutate in (
            lambda: db.add("seven", wave(7)),
            lambda: db.remove("seven"),
            lambda: db.remove("slow", view="az30"),
            lambda: db.add("slow", wave(1.1), view="az45"),
        ):
            mutate()
            for query, result in zip(queries, db.classify_batch(queries)):
                assert result == db.classify(query)


class TestRemove:
    def test_remove_missing_label(self):
        with pytest.raises(KeyError):
            build_db().remove("nope")

    def test_remove_missing_view(self):
        with pytest.raises(KeyError):
            build_db().remove("slow", view="az90")

    def test_remove_last_view_drops_label(self):
        db = build_db()
        db.remove("mid", view="canonical")
        assert "mid" not in db
        assert db.labels == ["slow", "fast"]

    def test_len_after_remove(self):
        db = build_db()
        assert len(db) == 4
        db.remove("slow")
        assert len(db) == 2


class TestReferenceMatrix:
    def test_shape_and_readonly(self):
        db = build_db()
        matrix = db.reference_matrix()
        assert matrix.shape == (4, 128)
        assert not matrix.flags.writeable

    def test_rebuilt_after_mutation(self):
        db = build_db()
        assert db.reference_matrix().shape[0] == 4
        db.remove("slow", view="az30")
        assert db.reference_matrix().shape[0] == 3

    def test_empty_database_raises(self):
        with pytest.raises(RuntimeError):
            SignDatabase().reference_matrix()

    def test_heterogeneous_lengths_raise(self):
        db = SignDatabase()
        db.add("a", wave(1, n=128))
        db.add("b", wave(1, n=64))
        with pytest.raises(RuntimeError):
            db.reference_matrix()

    def test_heterogeneous_lengths_defer_to_scalar_errors(self):
        db = SignDatabase()
        db.add("a", wave(1, n=128))
        db.add("b", wave(1, n=64))
        with pytest.raises(ValueError):
            db.classify_batch([wave(1, n=128)])


class TestBatchSizes:
    """``score_batch``/``classify_batch`` against the scalar ``classify``
    on one-, two- and 64-query batches: one code path for every batch
    size, bit-identical to the reference."""

    @staticmethod
    def spiky_db() -> SignDatabase:
        """Spiky labels under a tight acceptance threshold, each a noisy
        view first and its clean shape second."""
        rng = np.random.default_rng(7)
        db = SignDatabase(acceptance_threshold=0.05)
        for label in ("a", "b", "c"):
            clean = spiky(rng, 128)
            db.add(label, clean + 0.35 * rng.normal(size=128), view="noisy")
            db.add(label, clean, view="clean")
        return db

    @staticmethod
    def queries(db: SignDatabase, count: int) -> list[np.ndarray]:
        rng = np.random.default_rng(count)
        views = db.reference_matrix()
        kinds = [
            lambda: np.roll(views[1 + 2 * rng.integers(3)], 2),  # half a segment off
            lambda: rng.normal(size=128),  # random
            lambda: np.full(128, rng.uniform(-2.0, 2.0)),  # flat
            lambda: views[rng.integers(len(views))].copy(),  # an enrolled view exactly
        ]
        return [kinds[i % len(kinds)]() for i in range(count)]

    @pytest.mark.parametrize("count", [1, 2, 64])
    def test_batches_match_scalar_classify(self, count):
        db = self.spiky_db()
        queries = self.queries(db, count)
        expected = [db.classify(q) for q in queries]
        assert db.classify_batch(queries) == expected
        for query, scored, result in zip(queries, db.score_batch(queries), expected):
            assert scored == db._score_scalar(query) == exact_scores(db, query)
            assert db._decide(list(scored)) == result

    def test_some_winning_view_has_far_words(self):
        """On these inputs some label's best view has a word-level
        best-shift MINDIST above its exact distance, so a MINDIST skip
        rule in front of the exact scores would change them."""
        db = self.spiky_db()
        encode = db.encoder.encode
        far = 0
        for query in self.queries(db, 64):
            for label in db.labels:
                exact, view = min(
                    (best_shift_euclidean(query, view.series).distance, i)
                    for i, view in enumerate(db.entries(label))
                )
                word = encode(db.entries(label)[view].series)
                far += best_shift_mindist(encode(query), word, len(query)).distance > exact
        assert far

    def test_exact_ties_keep_enrolment_order(self):
        """Two labels with one identical view tie exactly; the first
        enrolled wins the sort, and the tie leaves no margin."""
        series = wave(2.0)
        db = SignDatabase()
        db.add("first", series)
        db.add("second", series)
        db.add("other", wave(5.0))
        for batch in ([series], [series, np.roll(series, 9)], [series] * 64):
            results = db.classify_batch(batch)
            assert results == [db.classify(q) for q in batch]
            assert results[0].runner_up_label == "first"
            assert results[0].label is None  # zero margin: rejected

    @pytest.mark.parametrize("count", [1, 2, 64])
    def test_batches_match_after_add_and_remove(self, count):
        db = self.spiky_db()
        queries = self.queries(db, count)
        db.classify_batch(queries)  # build the view cache
        rng = np.random.default_rng(11)
        db.add("d", spiky(rng, 128))
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
        db.remove("a", view="noisy")
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
        db.remove("d")
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
