"""The backend-agnostic classifier-client API.

Both classification backends in the repo — the in-process batched
engine and the sharded multi-process
:class:`~repro.service.RecognitionService` — are reached through one
small contract, the :class:`Classifier` protocol:

* ``classify_batch(queries) -> list[MatchResult]`` — bit-identical to
  :meth:`~repro.sax.database.SignDatabase.classify_batch` on the same
  database, whatever the transport (the sharding-parity contract in
  ``docs/ARCHITECTURE.md``);
* ``stats`` — a :class:`ClassifierStats` snapshot (client-side batch
  and frame counters plus backend-specific detail);
* ``close()`` — release owned resources; idempotent, and further
  ``classify_batch`` calls raise :class:`RuntimeError`.

Callers (:class:`~repro.protocol.recognizer.RecognizerPerception`,
:meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognize_batch`,
:func:`~repro.mission.fleet.build_fleet`) accept any implementation, so
*where* the matching work runs — same interpreter or a local shard
pool — is a deployment choice, not an API fork.

Both implementations pass one shared contract suite
(``tests/service/test_classifier_contract.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.sax.database import MatchResult, SignDatabase

__all__ = [
    "Classifier",
    "ClassifierStats",
    "InProcessClassifier",
]


@dataclass(frozen=True)
class ClassifierStats:
    """Client-side counters common to every :class:`Classifier`.

    ``detail`` carries backend-specific observability (label count for
    the in-process engine, shard and tag counters for the service) as
    a plain JSON-ready dict.
    """

    kind: str
    batches: int
    frames: int
    detail: dict = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Mean frames per ``classify_batch`` call."""
        if self.batches == 0:
            return 0.0
        return self.frames / self.batches


@runtime_checkable
class Classifier(Protocol):
    """The classifier-client contract every backend implements.

    Structural (``typing.Protocol``): any object with these members is
    a classifier — the contract suite, not inheritance, is what keeps
    implementations honest.
    """

    def classify_batch(
        self, queries: Sequence[np.ndarray] | np.ndarray
    ) -> list[MatchResult]:
        """Classify a batch of query series, in order.

        Must be bit-identical to
        :meth:`~repro.sax.database.SignDatabase.classify_batch` over
        the backend's enrolled database.
        """
        ...

    @property
    def stats(self) -> ClassifierStats:
        """Snapshot of the client-side counters."""
        ...

    def close(self) -> None:
        """Release owned resources; idempotent."""
        ...


class InProcessClassifier:
    """:class:`Classifier` over an in-interpreter :class:`SignDatabase`.

    The zero-transport reference implementation: ``classify_batch``
    delegates straight to the database's batched engine.  ``close``
    only marks the client closed (the database is shared and stays
    usable).
    """

    def __init__(self, database: SignDatabase) -> None:
        self.database = database
        self._batches = 0
        self._frames = 0
        self._closed = False

    def classify_batch(
        self, queries: Sequence[np.ndarray] | np.ndarray
    ) -> list[MatchResult]:
        """Classify *queries* via the database's batched engine."""
        if self._closed:
            raise RuntimeError("classifier is closed")
        results = self.database.classify_batch(queries)
        self._batches += 1
        self._frames += len(results)
        return results

    @property
    def stats(self) -> ClassifierStats:
        """Batch/frame counters; ``detail`` names the database size."""
        return ClassifierStats(
            kind="inprocess",
            batches=self._batches,
            frames=self._frames,
            detail={"labels": len(self.database.labels)},
        )

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Mark the client closed (the shared database is untouched)."""
        self._closed = True

