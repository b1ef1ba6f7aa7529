""":class:`ServiceClassifier` — the classifier client of the shard pool.

Adapts a running :class:`~repro.service.service.RecognitionService`
onto the :class:`~repro.recognition.classifier.Classifier` protocol, so
callers that speak the backend-agnostic classifier-client API can route
matching work through the multi-process shard pool without knowing the
service exists.  It also exposes the *gateway-facing submit seam*:
:meth:`ServiceClassifier.submit_batch` fans a batch out as individually
tagged queue entries (one future per series), which is how the network
gateway multiplexes many tenants into one coalescing queue while the
service's ``by_tag`` counters keep per-tenant visibility.
"""

from __future__ import annotations

from concurrent.futures import Future
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
        caller before the first ``classify_batch``).
    owns_service:
        When ``True``, :meth:`close` stops the service; otherwise the
        caller keeps the lifecycle (the default).
    tag:
        Request tag attached to every submission — surfaces in
        :attr:`~repro.service.service.ServiceStats.by_tag`.
    """

    def __init__(
        self,
        service: RecognitionService,
        owns_service: bool = False,
        tag: str | None = None,
    ) -> None:
        self.service = service
        self.owns_service = owns_service
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

    def submit_batch(
        self,
        queries: Sequence[np.ndarray] | np.ndarray,
        tag: str | None = None,
    ) -> list[Future]:
        """Queue every series of *queries*; one future per series.

        The gateway-facing seam: requests from different network
        tenants coalesce into the same service batches, while *tag*
        (defaulting to this classifier's tag) keeps them attributable
        in the service's ``by_tag`` counters.  The trailing partial
        batch is force-flushed, exactly like :meth:`classify_batch`.
        """
        if self._closed:
            raise RuntimeError("classifier is closed")
        futures = [
            self.service.submit(series, tag=tag if tag is not None else self.tag)
            for series in queries
        ]
        self.service.flush_pending()
        self._batches += 1
        self._frames += len(futures)
        return futures

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
        """Mark closed; stop the service too when it is owned."""
        if self._closed:
            return
        self._closed = True
        if self.owns_service:
            self.service.stop()
