"""Sharded recognition service: perception as a shared, queue-fed service.

Public surface of the service subsystem:

* :class:`~repro.service.service.RecognitionService` — input queue,
  size/deadline batch coalescing, backpressure cap, a pool of shard
  worker processes, and :class:`~repro.service.service.ServiceStats`
  observability (including per-tag request attribution).
* :class:`~repro.service.classifier.ServiceClassifier` — the service's
  face on the backend-agnostic
  :class:`~repro.recognition.classifier.Classifier` protocol; its
  request tag keeps per-caller attribution in ``by_tag``.
* :func:`~repro.service.sharding.build_shards` /
  :func:`~repro.service.sharding.sharded_classify_batch` — shard-view
  construction over :class:`~repro.sax.database.SignDatabase` and the
  in-process reference implementation of the shard-merge dataflow,
  bit-identical to single-process ``classify_batch``.

See ``docs/ARCHITECTURE.md`` ("Recognition service & sharding") for the
dataflow diagram and the sharding-parity contract.
"""

from repro.service.classifier import ServiceClassifier
from repro.service.service import (
    RecognitionService,
    ServiceOverloadedError,
    ServiceStats,
    ServiceTimeoutError,
    ShardStats,
    ShardWorkerError,
)
from repro.service.sharding import (
    DatabaseShard,
    build_shards,
    merge_scored,
    sharded_classify_batch,
)

__all__ = [
    "DatabaseShard",
    "RecognitionService",
    "ServiceClassifier",
    "ServiceOverloadedError",
    "ServiceStats",
    "ServiceTimeoutError",
    "ShardStats",
    "ShardWorkerError",
    "build_shards",
    "merge_scored",
    "sharded_classify_batch",
]
