"""The sign database: canonical SAX words + reference series.

The paper: "This last step facilitates a comparison of the string
against a database of strings and hence can be used quite effectively to
identify features in images."  The database stores, per sign label, the
canonical reference series (taken at 0° relative azimuth, per Section
IV) and its SAX word; classification is nearest-neighbour under the
exact rotation-invariant distance, every reference view scored, with an
acceptance threshold — an unknown shape too far from every reference is
rejected rather than misread, which is the safe behaviour for a
safety-relevant channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.sax.encoder import SaxEncoder, SaxParameters, SaxWord
from repro.sax.matching import _shift_surface, best_shift_euclidean
from repro.sax.normalize import z_normalize

__all__ = ["SignEntry", "MatchResult", "SignDatabase"]

# Queries scored per vectorised block in classify_batch; bounds the
# (chunk, V, n) correlation tensor to a few megabytes.
_BATCH_CHUNK = 128


@dataclass(frozen=True)
class _ViewCache:
    """Precomputed reference-side transforms, shared by all queries.

    Built lazily from the enrolled views (and invalidated by ``add`` /
    ``remove``): the z-normalised ``(V, n)`` view stack, the conjugated
    rFFT of every row and per-row squared norms.  Labels are listed in
    enrolment order with each one's first row (``label_starts``, the
    per-label minimum's ``np.minimum.reduceat`` offsets).  Everything a
    query-side match needs from the references is paid once per
    enrolment, not once per query.
    """

    length: int
    labels: tuple[str, ...]
    label_starts: np.ndarray
    series: np.ndarray
    rfft_conj: np.ndarray
    sq_norms: np.ndarray

    def __post_init__(self) -> None:
        for name in ("label_starts", "series", "rfft_conj", "sq_norms"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class SignEntry:
    """One reference view of a sign: label, series, SAX word, view tag."""

    label: str
    series: np.ndarray
    word: SaxWord
    view: str = "canonical"

    def __post_init__(self) -> None:
        series = np.asarray(self.series, dtype=np.float64)
        series.setflags(write=False)
        object.__setattr__(self, "series", series)


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of a database lookup."""

    label: str | None
    distance: float
    runner_up_label: str | None = None
    runner_up_distance: float = float("inf")

    @property
    def accepted(self) -> bool:
        """``True`` when a sign was recognised (label not ``None``)."""
        return self.label is not None

    @property
    def margin(self) -> float:
        """Distance gap to the runner-up; large margins mean confident reads."""
        if self.runner_up_distance == float("inf"):
            return float("inf")
        return self.runner_up_distance - self.distance


class SignDatabase:
    """Nearest-neighbour sign store over rotation-invariant distances.

    A label may hold several reference *views* (the recogniser enrols
    each sign at a handful of synthetic azimuths — see
    ``repro.recognition.pipeline``); the label's score is the minimum
    distance over its views.  A query is accepted when the best label is
    both close enough (``acceptance_threshold``) and sufficiently better
    than the runner-up label (``margin_threshold``) — borderline reads
    are rejected rather than guessed, the safe behaviour for a
    safety-relevant channel.

    Parameters
    ----------
    parameters:
        SAX parameters shared by all stored words.
    acceptance_threshold:
        Maximum per-sample-normalised rotation-invariant distance for a
        match to be accepted.  Calibrated on the synthetic signaller
        (see ``benchmarks/bench_dead_angle.py``).
    margin_threshold:
        Minimum distance gap between the best and second-best *labels*.
    """

    def __init__(
        self,
        parameters: SaxParameters | None = None,
        acceptance_threshold: float = 0.55,
        margin_threshold: float = 0.08,
    ) -> None:
        if acceptance_threshold <= 0:
            raise ValueError("acceptance threshold must be positive")
        if margin_threshold < 0:
            raise ValueError("margin threshold must be non-negative")
        self.encoder = SaxEncoder(parameters)
        self.acceptance_threshold = acceptance_threshold
        self.margin_threshold = margin_threshold
        self._entries: dict[str, list[SignEntry]] = {}
        self._cache: _ViewCache | None = None
        self._cache_stale = True

    def __len__(self) -> int:
        return sum(len(views) for views in self._entries.values())

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    @property
    def labels(self) -> list[str]:
        """Stored sign labels in insertion order."""
        return list(self._entries)

    def add(self, label: str, series: np.ndarray, view: str = "canonical") -> SignEntry:
        """Register a reference series under *label*.

        Multiple calls with the same label accumulate views; re-adding an
        existing ``(label, view)`` pair replaces that view.
        """
        values = np.asarray(series, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("expected a 1-D series")
        if len(values) < self.encoder.parameters.word_length:
            raise ValueError("series shorter than the SAX word length")
        entry = SignEntry(
            label=label, series=values.copy(), word=self.encoder.encode(values), view=view
        )
        views = self._entries.setdefault(label, [])
        views[:] = [v for v in views if v.view != view]
        views.append(entry)
        self._cache_stale = True
        return entry

    def remove(self, label: str, view: str | None = None) -> None:
        """Remove one view of *label*, or the whole label when *view* is None.

        Raises
        ------
        KeyError
            If the label — or the named view of it — is not stored.
        """
        views = self._entries[label]
        if view is None:
            del self._entries[label]
        else:
            kept = [v for v in views if v.view != view]
            if len(kept) == len(views):
                raise KeyError(f"label {label!r} has no view {view!r}")
            if kept:
                views[:] = kept
            else:
                del self._entries[label]
        self._cache_stale = True

    def entries(self, label: str) -> list[SignEntry]:
        """Return all views stored for *label*.

        Raises
        ------
        KeyError
            If the label is not stored.
        """
        return list(self._entries[label])

    def entry(self, label: str) -> SignEntry:
        """Return the first (canonical) view for *label*.

        Raises
        ------
        KeyError
            If the label is not stored.
        """
        return self._entries[label][0]

    def classify(self, series: np.ndarray) -> MatchResult:
        """Classify a query series against the database (scalar path).

        The per-sample-normalised distance (Euclidean over z-normalised
        series divided by ``sqrt(n)``) must beat the acceptance threshold
        and clear the runner-up label by the margin threshold; otherwise
        ``label=None`` (rejected).

        This is the scalar reference implementation — one exact FFT
        match per (query, view) pair; a label scores the minimum over its
        views.  The batched engine (:meth:`classify_batch`) produces
        bit-identical results from the precomputed view cache; parity
        between the two is enforced by ``tests/sax/test_database_batch.py``.
        """
        if not self._entries:
            raise RuntimeError("sign database is empty")
        return self._decide(self._score_scalar(series))

    def _score_scalar(self, series: np.ndarray) -> list[tuple[float, str]]:
        """Per-label distances for one query (scalar reference path)."""
        query = np.asarray(series, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError("expected a 1-D series")
        self._check_word_length(query)

        n = len(query)
        sqrt_n = np.sqrt(n)
        scored: list[tuple[float, str]] = []
        for label, views in self._entries.items():
            best_for_label = float("inf")
            for ref in views:
                if len(ref.series) != n:
                    raise ValueError(
                        f"query length {n} != reference length {len(ref.series)} for {label!r}"
                    )
                exact = best_shift_euclidean(query, ref.series).distance / sqrt_n
                best_for_label = min(best_for_label, exact)
            scored.append((best_for_label, label))
        return scored

    def _check_word_length(self, query: np.ndarray) -> None:
        """Refuse a query shorter than the SAX word length, as ``add`` does."""
        word_length = self.encoder.parameters.word_length
        if len(query) < word_length:
            raise ValueError(
                f"series of length {len(query)} shorter than word length {word_length}"
            )

    def _decide(self, scored: list[tuple[float, str]]) -> MatchResult:
        """Turn per-label distances into an accept/reject decision.

        Shared by the scalar and batched paths so the thresholding logic
        cannot drift between them.
        """
        scored.sort(key=itemgetter(0))
        best_distance, best_label = scored[0]
        runner_distance, runner_label = scored[1] if len(scored) > 1 else (float("inf"), None)
        margin = runner_distance - best_distance
        if best_distance > self.acceptance_threshold or margin < self.margin_threshold:
            return MatchResult(
                label=None,
                distance=best_distance,
                runner_up_label=best_label,
                runner_up_distance=runner_distance,
            )
        return MatchResult(
            label=best_label,
            distance=best_distance,
            runner_up_label=runner_label,
            runner_up_distance=runner_distance,
        )

    # -- batched engine -----------------------------------------------------------

    def _view_cache(self) -> _ViewCache | None:
        """Return the precomputed view cache, rebuilding it when stale.

        Returns ``None`` when the enrolled views have heterogeneous
        lengths (they cannot be stacked; no query can match them all
        anyway, so the batched path defers to the scalar one).
        """
        if not self._cache_stale:
            return self._cache
        rows: list[SignEntry] = [e for views in self._entries.values() for e in views]
        lengths = {len(e.series) for e in rows}
        if len(lengths) != 1:
            self._cache = None
        else:
            series = np.stack([z_normalize(e.series) for e in rows])
            view_counts = [len(views) for views in self._entries.values()]
            self._cache = _ViewCache(
                length=lengths.pop(),
                labels=tuple(self._entries),
                label_starts=np.cumsum([0] + view_counts[:-1], dtype=np.intp),
                series=series,
                rfft_conj=np.conj(np.fft.rfft(series, axis=1)),
                sq_norms=(series * series).sum(axis=1),
            )
        self._cache_stale = False
        return self._cache

    def reference_matrix(self) -> np.ndarray:
        """Return the z-normalised ``(V, n)`` stack of all enrolled views.

        Read-only; rebuilt automatically after ``add``/``remove``.

        Raises
        ------
        RuntimeError
            If the database is empty or views have mixed lengths.
        """
        if not self._entries:
            raise RuntimeError("sign database is empty")
        cache = self._view_cache()
        if cache is None:
            raise RuntimeError("enrolled views have heterogeneous lengths")
        return cache.series

    def classify_batch(
        self, queries: Sequence[np.ndarray] | np.ndarray
    ) -> list[MatchResult]:
        """Classify many query series in one vectorised pass.

        Accepts a ``(B, n)`` array or a sequence of 1-D series.  All
        circular-shift distances of every query against every enrolled
        view are computed in a single broadcast FFT pass over the
        precomputed reference cache, and each label scores the minimum
        over its views, as in the scalar path.  Results are bit-identical
        to calling :meth:`classify` per query.
        """
        return [self._decide(scored) for scored in self.score_batch(queries)]

    def score_batch(
        self, queries: Sequence[np.ndarray] | np.ndarray
    ) -> list[list[tuple[float, str]]]:
        """Per-label distance lists for a batch of queries.

        The scoring stage of :meth:`classify_batch` without the final
        accept/reject decision: one ``(distance, label)`` pair per
        enrolled label (in enrolment order) per query, the distances as
        Python floats.  Every batch size, one query included, takes the
        same path: everything reference-side comes from the view cache,
        each label's score is one ``np.minimum.reduceat`` over its views,
        and each row is converted to Python floats once.  Bit-identical
        to :meth:`classify`'s scores.
        """
        if not self._entries:
            raise RuntimeError("sign database is empty")
        if isinstance(queries, np.ndarray) and queries.ndim == 1:
            raise ValueError("expected a batch of series, got a single 1-D series")
        batch = [np.asarray(q, dtype=np.float64) for q in queries]
        for query in batch:
            if query.ndim != 1:
                raise ValueError("expected a 1-D series per query")
        if not batch:
            return []

        cache = self._view_cache()
        if cache is None:
            # Heterogeneous reference lengths: defer to the scalar path,
            # which raises the appropriate per-entry length error.
            return [self._score_scalar(q) for q in batch]

        n = cache.length
        for query in batch:
            self._check_word_length(query)
            if len(query) != n:
                raise ValueError(
                    f"query length {len(query)} != reference length {n} "
                    f"for {cache.labels[0]!r}"
                )

        normalized = np.stack([z_normalize(q) for q in batch])
        sqrt_n = np.sqrt(n)
        results: list[list[tuple[float, str]]] = []
        for start in range(0, len(batch), _BATCH_CHUNK):
            chunk = normalized[start : start + _BATCH_CHUNK]
            spectra = np.fft.rfft(chunk, axis=1)
            q_sq = (chunk * chunk).sum(axis=1)
            totals = q_sq[:, None] + cache.sq_norms[None, :]
            sq = _shift_surface(spectra, cache.rfft_conj, totals, n)
            view_distances = np.sqrt(sq.min(axis=2)) / sqrt_n
            minima = np.minimum.reduceat(view_distances, cache.label_starts, axis=1)
            results.extend(list(zip(row, cache.labels)) for row in minima.tolist())
        return results

    def word_table(self) -> dict[str, str]:
        """Return ``label -> canonical-view SAX word`` (uniqueness checks)."""
        return {label: views[0].word.symbols for label, views in self._entries.items()}

