"""Tests for the batched database engine: parity, mutation, cache coherence.

``classify_batch`` scores every query against the precomputed reference
cache in one vectorised FFT pass; it must return *bit-identical*
``MatchResult``s to the scalar ``classify`` path, and the cache must
stay coherent through ``add``/``remove`` mutations.
"""

import numpy as np
import pytest

from repro.sax import SaxParameters, SignDatabase, paa, z_normalize


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

    def test_parity_when_prune_fires(self):
        """The scalar MINDIST prune can *change* a label's distance:
        word-granularity best-shift MINDIST does not lower-bound the
        fine-grained Euclidean distance (a half-segment shift has a tiny
        exact distance but a large word-level bound), so a view can be
        skipped whose exact distance would have won.  classify_batch
        must replay those skip decisions, not compute the plain minimum
        (regression: it used to, and diverged on >50% of these)."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            db = SignDatabase(acceptance_threshold=0.05)
            spiky = np.repeat(rng.choice([-1.0, 1.0], size=32), 4)
            db.add("x", spiky + 0.35 * rng.normal(size=128), view="v1")
            db.add("x", spiky, view="v2")
            db.add("y", rng.normal(size=128))
            query = np.roll(spiky, 2)  # half-PAA-segment shift of v2
            assert db.classify_batch([query])[0] == db.classify(query)

    def test_parity_with_aggressive_prune_and_indivisible_word(self):
        """When the word length does not divide the series length, the
        aligned-shift shortcut is unavailable and every query takes the
        full bound-replay path; parity must still hold bitwise."""
        rng = np.random.default_rng(1)
        db = SignDatabase(
            SaxParameters(word_length=24, alphabet_size=5), acceptance_threshold=0.05
        )
        def spiky(n=100):
            return np.repeat(rng.choice([-1.0, 1.0], size=25), 4)[:n]
        for label in ("a", "b"):
            for view in range(3):
                db.add(label, spiky() + 0.3 * rng.normal(size=100), view=f"v{view}")
        queries = [
            np.roll(spiky(), int(rng.integers(0, 100))) + 0.1 * rng.normal(size=100)
            for _ in range(25)
        ]
        for query, result in zip(queries, db.classify_batch(queries)):
            assert result == db.classify(query)

    @pytest.mark.parametrize(
        ("word_length", "alphabet_size"),
        [(8, 3), (8, 10), (12, 2), (16, 4), (16, 26), (20, 6), (24, 5), (32, 6), (36, 12)],
    )
    def test_bound_stage_parity_across_sax_parameters(
        self, word_length, alphabet_size, monkeypatch
    ):
        """The batched bound stage takes each query's symbol indices
        straight from its z-normalised series, where the scalar path
        encodes a word.  Across word lengths that divide the series
        length and ones that do not, and alphabets from binary to 26
        symbols, the indices and the verdicts stay bit-identical."""
        rng = np.random.default_rng(word_length * 100 + alphabet_size)
        n = 96
        db = SignDatabase(
            SaxParameters(word_length=word_length, alphabet_size=alphabet_size),
            acceptance_threshold=0.05,
        )
        def spiky():
            return np.repeat(rng.choice([-1.0, 1.0], size=n // 4), 4)
        for label in ("a", "b", "c"):
            for view in range(2):
                db.add(label, spiky() + 0.3 * rng.normal(size=n), view=f"v{view}")
        queries = [
            np.roll(spiky(), int(rng.integers(0, n))) + 0.1 * rng.normal(size=n)
            for _ in range(20)
        ]
        for query in queries + [np.full(n, 0.5)]:
            reduced = paa(z_normalize(query), word_length)
            assert (
                db.encoder.indices_from_paa(reduced).tolist()
                == db.encoder.encode(query).indices().tolist()
            )

        searched = []
        indices_from_paa = db.encoder.indices_from_paa
        def counting(reduced):
            searched.append(len(reduced))
            return indices_from_paa(reduced)
        monkeypatch.setattr(db.encoder, "indices_from_paa", counting)
        for query, result in zip(queries, db.classify_batch(queries)):
            assert result == db.classify(query)
        assert searched, "the MINDIST bound stage never ran"

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
    def pruning_db() -> SignDatabase:
        """Spiky labels under a tight gate, each a noisy view first and
        its clean shape second: a query half a PAA segment off the clean
        shape has a tiny exact distance to it but a large word-level
        bound, so the scalar path skips that view and scores the noisy
        one (see ``test_parity_when_prune_fires``)."""
        rng = np.random.default_rng(7)
        db = SignDatabase(acceptance_threshold=0.05)
        for label in ("a", "b", "c"):
            spiky = np.repeat(rng.choice([-1.0, 1.0], size=32), 4)
            db.add(label, spiky + 0.35 * rng.normal(size=128), view="noisy")
            db.add(label, spiky, view="clean")
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
    def test_batches_match_scalar_classify(self, count, monkeypatch):
        from repro.sax import database

        bound_rows = []
        surface = database._mindist_surface

        def spy(query_indices, references, alphabet_size):
            bound_rows.append(len(query_indices))
            return surface(query_indices, references, alphabet_size)

        monkeypatch.setattr(database, "_mindist_surface", spy)
        db = self.pruning_db()
        queries = self.queries(db, count)
        expected = [db.classify(q) for q in queries]
        assert db.classify_batch(queries) == expected
        for query, scored, result in zip(queries, db.score_batch(queries), expected):
            assert scored == db._score_scalar(query)
            assert db._decide(list(scored)) == result
        assert bound_rows, "the MINDIST bound stage never ran"

    def test_skip_rule_changes_some_label_score(self):
        """On these inputs the skip rule matters: some label's score is
        not the plain minimum over its views, so a bound read from the
        wrong view would show."""
        from repro.sax.matching import best_shift_euclidean

        db = self.pruning_db()
        queries = self.queries(db, 64)
        changed = 0
        for query, scored in zip(queries, db.score_batch(queries)):
            for distance, label in scored:
                plain = min(
                    best_shift_euclidean(query, entry.series).distance / np.sqrt(128)
                    for entry in db.entries(label)
                )
                changed += distance != plain
        assert changed

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
        db = self.pruning_db()
        queries = self.queries(db, count)
        db.classify_batch(queries)  # build the view cache
        rng = np.random.default_rng(11)
        db.add("d", np.repeat(rng.choice([-1.0, 1.0], size=32), 4))
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
        db.remove("a", view="noisy")
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
        db.remove("d")
        assert db.classify_batch(queries) == [db.classify(q) for q in queries]
