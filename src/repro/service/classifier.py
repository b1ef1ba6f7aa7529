""":class:`ServiceClassifier` — the classifier client of the shard pool.

Adapts a running :class:`~repro.service.service.RecognitionService`
onto the :class:`~repro.recognition.classifier.Classifier` protocol, so
callers that speak the backend-agnostic classifier-client API can route
matching work through the multi-process shard pool without knowing the
service exists.  A request tag keeps each caller's traffic attributable
in the service's ``by_tag`` counters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.recognition.classifier import ClassifierStats
from repro.sax.database import MatchResult
from repro.service.service import RecognitionService

__all__ = ["ServiceClassifier"]


class ServiceClassifier:
    """:class:`~repro.recognition.classifier.Classifier` over a
    :class:`~repro.service.service.RecognitionService`.

    Parameters
    ----------
    service:
        The backing service.  It must be running (or started by the
        caller before the first ``classify_batch``); the caller owns
        its lifecycle.
    tag:
        Request tag attached to every submission — surfaces in
        :attr:`~repro.service.service.ServiceStats.by_tag`.
    """

    def __init__(
        self,
        service: RecognitionService,
        tag: str | None = None,
    ) -> None:
        self.service = service
        self.tag = tag
        self._batches = 0
        self._frames = 0
        self._closed = False

    def classify_batch(
        self, queries: Sequence[np.ndarray] | np.ndarray
    ) -> list[MatchResult]:
        """Classify *queries* through the service's coalescing queue."""
        if self._closed:
            raise RuntimeError("classifier is closed")
        results = self.service.classify_batch(queries, tag=self.tag)
        self._batches += 1
        self._frames += len(results)
        return results

    @property
    def stats(self) -> ClassifierStats:
        """Client counters plus a service-stats snapshot in ``detail``."""
        service_stats = self.service.stats
        return ClassifierStats(
            kind="service",
            batches=self._batches,
            frames=self._frames,
            detail={
                "workers": self.service.workers,
                "submitted": service_stats.submitted,
                "completed": service_stats.completed,
                "queue_depth": service_stats.queue_depth,
                "by_tag": dict(service_stats.by_tag),
            },
        )

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Mark closed; the service keeps running (its caller stops it)."""
        self._closed = True
