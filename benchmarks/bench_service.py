"""T-SVC — sharded recognition service vs single-process classification.

Benchmarks the :class:`~repro.service.RecognitionService` shard pool
against in-process
:meth:`~repro.sax.database.SignDatabase.classify_batch` on a wide
synthetic database (many signs — the regime sharding by sign exists
for).  Three sections:

* **sharded_vs_single** — wall-clock for the same query batch through
  the single-process engine and through the service's worker pool,
  with **unconditional bit-identical verdict parity** (label, distance,
  runner-up — exact equality, the sharding-parity contract of
  ``docs/ARCHITECTURE.md``).  Gate: sharded ≥ 1.8× single-process on 4
  workers — enforced only when the host actually has ≥ 4 CPU cores
  (process sharding cannot beat one core time-slicing itself; the
  nightly/full CI runners enforce it, and the JSON records
  ``gate_enforced`` plus the reason either way).
* **coalescing** — requests submitted one by one as futures (the
  fleet-tick pattern), exercising deadline flushes and the batch-fill
  histogram; verdicts again bit-identical.
* **shards** — per-shard observability: label/view split, batches,
  in-worker busy time.

Set ``BENCH_SMOKE=1`` for a reduced run with the perf gate disabled
(parity checks stay on).

Run as a script to write the ``BENCH_service.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.sax.database import SignDatabase
from repro.service import RecognitionService

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
WORKERS = 2 if SMOKE else 4
LABELS = 8 if SMOKE else 48
VIEWS_PER_LABEL = 2 if SMOKE else 3
SERIES_LENGTH = 64 if SMOKE else 128
BATCH = 32 if SMOKE else 256
REPS = 1 if SMOKE else 3
SPEEDUP_GATE = 1.8
CPU_COUNT = os.cpu_count() or 1
GATE_ENFORCED = not SMOKE and CPU_COUNT >= WORKERS


def build_database(rng: np.random.Generator) -> SignDatabase:
    """A wide synthetic database: many labels, several views each."""
    database = SignDatabase()
    for label_index in range(LABELS):
        base = np.cumsum(rng.standard_normal(SERIES_LENGTH))
        for view_index in range(VIEWS_PER_LABEL):
            # Views are small perturbations of the label's base shape,
            # like the synthetic-azimuth enrolment views of a real sign.
            view = base + 0.05 * np.cumsum(rng.standard_normal(SERIES_LENGTH))
            database.add(f"sign_{label_index:03d}", view, view=f"v{view_index}")
    return database


def build_queries(database: SignDatabase, rng: np.random.Generator) -> list[np.ndarray]:
    """Half near-enrolled queries (accepts), half random walks (rejects)."""
    queries = []
    labels = database.labels
    for index in range(BATCH):
        if index % 2 == 0:
            reference = database.entry(labels[index % len(labels)]).series
            queries.append(reference + 0.02 * rng.standard_normal(SERIES_LENGTH))
        else:
            queries.append(np.cumsum(rng.standard_normal(SERIES_LENGTH)))
    return queries


def measure() -> dict:
    rng = np.random.default_rng(2024)
    database = build_database(rng)
    queries = build_queries(database, rng)

    # Warm the view cache so the single-process timing excludes the
    # one-off enrolment transform (the service workers pay it at start).
    baseline = database.classify_batch(queries)
    start = time.perf_counter()
    for _ in range(REPS):
        single_results = database.classify_batch(queries)
    single_s = time.perf_counter() - start
    assert single_results == baseline

    with RecognitionService(
        database,
        workers=WORKERS,
        batch_size=BATCH,
        flush_interval_s=0.002,
        max_pending=4 * BATCH,
    ) as service:
        sharded_results = service.classify_batch(queries)  # warm pipes
        start = time.perf_counter()
        for _ in range(REPS):
            sharded_results = service.classify_batch(queries)
        sharded_s = time.perf_counter() - start

        # -- unconditional parity: bit-identical verdicts -----------------
        assert sharded_results == baseline, (
            "sharded service verdicts must be bit-identical to classify_batch"
        )

        # -- coalescing: one-by-one submissions, deadline flushing --------
        # Snapshot first: service stats are lifetime-cumulative and the
        # warm-up/timed classify_batch runs above already dispatched
        # batches; this section must describe only its own experiment.
        before = service.stats
        futures = [service.submit(query) for query in queries]
        coalesced = [future.result(timeout=60.0) for future in futures]
        assert coalesced == baseline, (
            "coalesced submissions must be bit-identical to classify_batch"
        )
        stats = service.stats
        coalesce_batches = stats.batches - before.batches
        coalesce_flushes = {
            reason: count - before.flushes.get(reason, 0)
            for reason, count in stats.flushes.items()
            if count - before.flushes.get(reason, 0) > 0
        }
        coalesce_fill = {
            fill: count - before.batch_fill.get(fill, 0)
            for fill, count in stats.batch_fill.items()
            if count - before.batch_fill.get(fill, 0) > 0
        }
        filled = sum(coalesce_fill.values())
        coalesce_mean_fill = (
            sum(fill * count for fill, count in coalesce_fill.items()) / filled
            if filled
            else 0.0
        )

    speedup = single_s / sharded_s
    accepted = sum(1 for result in baseline if result.accepted)
    return {
        "smoke": SMOKE,
        "cpu_count": CPU_COUNT,
        "python": platform.python_version(),
        "workers": WORKERS,
        "labels": LABELS,
        "views_per_label": VIEWS_PER_LABEL,
        "series_length": SERIES_LENGTH,
        "batch": BATCH,
        "reps": REPS,
        "accepted": accepted,
        "sharded_vs_single": {
            "single_s": round(single_s, 4),
            "sharded_s": round(sharded_s, 4),
            "speedup": round(speedup, 3),
            "gate": SPEEDUP_GATE,
            "gate_enforced": GATE_ENFORCED,
            "gate_skip_reason": (
                None
                if GATE_ENFORCED
                else ("smoke mode" if SMOKE else f"host has {CPU_COUNT} < {WORKERS} cores")
            ),
            "parity": True,
        },
        "coalescing": {
            "requests": len(queries),
            "batches": coalesce_batches,
            "flushes": coalesce_flushes,
            "mean_batch_fill": round(coalesce_mean_fill, 2),
            "queue_depth_final": stats.queue_depth,
            "parity": True,
        },
        "shards": [
            {
                "index": shard.index,
                "labels": len(shard.labels),
                "views": shard.views,
                "batches": shard.batches,
                "frames": shard.frames,
                "busy_s": round(shard.busy_s, 4),
                "mean_batch_ms": round(shard.mean_batch_s * 1e3, 3),
                "max_batch_ms": round(shard.max_batch_s * 1e3, 3),
            }
            for shard in stats.shards
        ],
    }


def test_service_throughput_and_parity():
    """Sharded verdicts bit-identical; >= 1.8x on a multi-core host."""
    stats = measure()
    assert stats["sharded_vs_single"]["parity"]
    assert stats["coalescing"]["parity"]
    if stats["sharded_vs_single"]["gate_enforced"]:
        assert stats["sharded_vs_single"]["speedup"] >= SPEEDUP_GATE


if __name__ == "__main__":
    stats = measure()
    artifact = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    section = stats["sharded_vs_single"]
    print(
        f"T-SVC ({stats['labels']} labels x {stats['views_per_label']} views, "
        f"batch {stats['batch']}, {stats['workers']} workers, "
        f"{stats['cpu_count']} cores)"
    )
    print(
        f"  single-process: {section['single_s']:8.3f} s   sharded service: "
        f"{section['sharded_s']:8.3f} s   ({section['speedup']:.2f}x, "
        f"gate >= {SPEEDUP_GATE}x)"
    )
    print(
        f"  coalescing: {stats['coalescing']['requests']} requests -> "
        f"{stats['coalescing']['batches']} batches "
        f"(mean fill {stats['coalescing']['mean_batch_fill']}, "
        f"flushes {stats['coalescing']['flushes']})"
    )
    print(f"  parity: bit-identical verdicts ({stats['accepted']} accepted)")
    print(f"  wrote {artifact.name}")
    if not section["gate_enforced"]:
        print(f"  perf gate skipped: {section['gate_skip_reason']}")
    else:
        assert section["speedup"] >= SPEEDUP_GATE, "service throughput gate failed"
