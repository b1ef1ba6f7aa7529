"""RecognitionService behaviour: batching, backpressure, failure modes.

Covers the queue/coalescing machinery (size, deadline, forced and drain
flushes), the backpressure cap, worker-crash surfacing, cross-process
verdict parity and the ``ServiceStats`` observability counters.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.sax.database import SignDatabase
from repro.service import (
    RecognitionService,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ShardWorkerError,
)


class TestLifecycle:
    def test_construction_rejects_bad_config(self, database):
        with pytest.raises(ValueError):
            RecognitionService(database, workers=-1)
        with pytest.raises(ValueError):
            RecognitionService(database, batch_size=0)
        with pytest.raises(ValueError):
            RecognitionService(database, max_pending=0)
        with pytest.raises(RuntimeError):
            RecognitionService(SignDatabase())  # empty database

    def test_heterogeneous_database_rejected(self):
        rng = np.random.default_rng(2)
        db = SignDatabase()
        db.add("a", np.cumsum(rng.standard_normal(64)))
        db.add("b", np.cumsum(rng.standard_normal(96)))
        with pytest.raises(RuntimeError, match="heterogeneous"):
            RecognitionService(db)

    def test_mutating_database_after_start_fails_loudly(self, queries):
        """Worker shards snapshot the database at start(); later
        enrolment changes must not silently break verdict parity."""
        rng = np.random.default_rng(7)
        db = SignDatabase()
        for index in range(3):
            db.add(f"sign_{index}", np.cumsum(rng.standard_normal(64)))
        with RecognitionService(db, workers=0) as service:
            service.classify_batch(queries[:1])
            db.add("sign_0", np.cumsum(rng.standard_normal(64)))  # replace view
            with pytest.raises(RuntimeError, match="modified after"):
                service.submit(queries[0])

    def test_submit_before_start_raises(self, database, queries):
        service = RecognitionService(database, workers=0)
        with pytest.raises(RuntimeError, match="start"):
            service.submit(queries[0])

    def test_double_start_raises(self, database):
        with RecognitionService(database, workers=0) as service:
            with pytest.raises(RuntimeError, match="already started"):
                service.start()

    def test_stop_is_idempotent_and_drains(self, database, queries):
        service = RecognitionService(
            database, workers=2, batch_size=64, flush_interval_s=10.0
        ).start()
        service.hold()
        futures = [service.submit(query) for query in queries]
        # stop() must release the hold and drain the queue ("drain"
        # flush), not abandon the queued requests.
        service.stop()
        service.stop()
        expected = database.classify_batch(queries)
        assert [future.result(timeout=10.0) for future in futures] == expected
        assert service.stats.flushes.get("drain", 0) >= 1


class TestCoalescing:
    def test_cross_process_parity(self, database, queries):
        expected = database.classify_batch(queries)
        with RecognitionService(database, workers=3, batch_size=4) as service:
            assert service.classify_batch(queries) == expected

    def test_in_process_mode_parity(self, database, queries):
        expected = database.classify_batch(queries)
        with RecognitionService(database, workers=0, batch_size=4) as service:
            assert service.classify_batch(queries) == expected

    def test_size_flush(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=3, flush_interval_s=30.0
        ) as service:
            futures = [service.submit(query) for query in queries[:3]]
            for future in futures:
                future.result(timeout=10.0)
            stats = service.stats
        assert stats.flushes.get("size", 0) == 1
        assert stats.batch_fill == {3: 1}

    def test_deadline_flush(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=1000, flush_interval_s=0.01
        ) as service:
            future = service.submit(queries[0])
            result = future.result(timeout=10.0)
            assert result == database.classify_batch([queries[0]])[0]
            assert service.stats.flushes.get("deadline", 0) == 1

    def test_forced_flush_preempts_deadline(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=1000, flush_interval_s=60.0
        ) as service:
            future = service.submit(queries[0])
            service.flush(timeout_s=10.0)
            # flush() returns when the queue empties; the popped batch
            # resolves immediately after.
            future.result(timeout=10.0)
            assert service.stats.flushes.get("forced", 0) == 1

    def test_cancelled_future_does_not_poison_the_pool(self, database, queries):
        """A client cancelling one queued request must not fail others."""
        with RecognitionService(
            database, workers=0, batch_size=4, flush_interval_s=0.001
        ) as service:
            service.hold()
            victim = service.submit(queries[0])
            survivors = [service.submit(query) for query in queries[1:4]]
            assert victim.cancel()
            service.release()
            expected = database.classify_batch(queries[1:4])
            assert [f.result(timeout=10.0) for f in survivors] == expected
            assert service.running
            # The pool still takes new work after the cancellation.
            again = service.submit(queries[0]).result(timeout=10.0)
            assert again == database.classify_batch(queries[:1])[0]
            assert service.stats.cancelled == 1

    def test_partial_synchronous_batch_does_not_wait_out_the_deadline(
        self, database, queries
    ):
        """classify_batch knows its request set is complete — a trailing
        partial batch flushes immediately instead of idling for
        flush_interval_s."""
        with RecognitionService(
            database, workers=0, batch_size=64, flush_interval_s=30.0
        ) as service:
            start = time.monotonic()
            results = service.classify_batch(queries[:3])
            elapsed = time.monotonic() - start
        assert results == database.classify_batch(queries[:3])
        assert elapsed < 5.0  # far under the 30 s coalescing deadline

    def test_empty_flush_is_a_noop(self, database):
        with RecognitionService(database, workers=0) as service:
            service.flush(timeout_s=1.0)
            stats = service.stats
        assert stats.batches == 0
        assert stats.queue_depth == 0

    def test_classify_batch_empty(self, database):
        with RecognitionService(database, workers=0) as service:
            assert service.classify_batch([]) == []

    def test_validation_matches_classify_batch_errors(self, database, queries):
        with RecognitionService(database, workers=0) as service:
            with pytest.raises(ValueError, match="1-D"):
                service.submit(np.zeros((2, 64)))
            with pytest.raises(ValueError, match="shorter than word length"):
                service.submit(np.zeros(3))
            with pytest.raises(ValueError, match="!= reference length"):
                service.submit(np.zeros(65))
            with pytest.raises(ValueError, match="single 1-D series"):
                service.classify_batch(queries[0])


class TestBackpressure:
    def test_cap_honoured_and_recovers(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=4, max_pending=4
        ) as service:
            service.hold()
            futures = [service.submit(query) for query in queries[:4]]
            # Queue is at the cap: an impatient submit fails fast...
            with pytest.raises(ServiceOverloadedError, match="backpressure cap"):
                service.submit(queries[4], timeout_s=0.0)
            assert service.stats.queue_depth == 4
            # ...and a patient one unblocks once dispatch resumes.
            service.release()
            late = service.submit(queries[4], timeout_s=10.0)
            expected = database.classify_batch(queries[:5])
            got = [future.result(timeout=10.0) for future in futures]
            got.append(late.result(timeout=10.0))
            assert got == expected

    def test_blocking_submit_waits_for_room(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=2, max_pending=2, flush_interval_s=0.001
        ) as service:
            # No timeout: submissions beyond the cap block briefly while
            # the dispatcher drains, never error.
            futures = [service.submit(query) for query in queries]
            expected = database.classify_batch(queries)
            assert [future.result(timeout=10.0) for future in futures] == expected


class TestTimeoutDisambiguation:
    """The two waiting phases time out with *distinct* errors.

    A queue-full timeout means the request was never accepted (safe to
    retry elsewhere); a result-wait timeout
    means the request was accepted but its verdict is late (retrying
    would duplicate work).  Conflating them misleads the caller.
    """

    def test_queue_full_timeout_raises_overloaded(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=4, max_pending=2
        ) as service:
            service.hold()
            for query in queries[:2]:
                service.submit(query)
            with pytest.raises(ServiceOverloadedError, match="queue-full timeout"):
                service.submit(queries[2], timeout_s=0.0)
            assert service.stats.queue_depth == 2
            service.release()

    def test_result_wait_timeout_raises_timeout(self, database, queries):
        with RecognitionService(
            database, workers=0, batch_size=4, max_pending=8
        ) as service:
            # hold() blocks dispatch even against the forced flush, so
            # the submission is *accepted* but its verdict never lands.
            service.hold()
            with pytest.raises(ServiceTimeoutError, match="result-wait timeout"):
                service.classify_batch(queries[:1], timeout_s=0.3)
            service.release()

    def test_error_taxonomy_is_disjoint(self):
        assert issubclass(ServiceTimeoutError, TimeoutError)
        assert not issubclass(ServiceTimeoutError, ServiceOverloadedError)
        assert not issubclass(ServiceOverloadedError, ServiceTimeoutError)


class TestWorkerFailure:
    def test_worker_crash_surfaces_clear_error(self, database, queries):
        service = RecognitionService(database, workers=2, batch_size=4).start()
        try:
            assert len(service.worker_pids) == 2
            os.kill(service.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            # The dispatcher notices on the next dispatch; queued and
            # future submissions fail with the shard named.
            with pytest.raises(ShardWorkerError, match="shard worker 0"):
                while time.monotonic() < deadline:
                    future = service.submit(queries[0])
                    future.result(timeout=10.0)
                raise AssertionError("worker death never surfaced")
            assert not service.running
            # The failure is sticky: the pool never half-answers.
            with pytest.raises(ShardWorkerError, match="died"):
                service.submit(queries[0])
        finally:
            service.stop()

    def test_crash_fails_queued_requests_too(self, database, queries):
        service = RecognitionService(
            database, workers=2, batch_size=2, flush_interval_s=0.001
        ).start()
        try:
            service.hold()
            futures = [service.submit(query) for query in queries[:6]]
            for pid in service.worker_pids:
                os.kill(pid, signal.SIGKILL)
            service.release()
            for future in futures:
                with pytest.raises(ShardWorkerError):
                    future.result(timeout=10.0)
        finally:
            service.stop()


class TestStats:
    def test_counters_and_shard_latency(self, database, queries):
        with RecognitionService(
            database, workers=2, batch_size=len(queries)
        ) as service:
            service.classify_batch(queries)
            stats = service.stats
        assert stats.submitted == len(queries)
        assert stats.completed == len(queries)
        assert stats.failed == 0
        assert stats.cancelled == 0
        assert stats.queue_depth == 0
        assert stats.batches >= 1
        assert sum(stats.batch_fill.values()) == stats.batches
        assert stats.mean_batch_fill > 0
        assert len(stats.shards) == 2
        for shard in stats.shards:
            assert shard.batches >= 1
            assert shard.frames >= len(queries)
            assert shard.busy_s > 0
            assert shard.max_batch_s >= shard.mean_batch_s > 0
        # Shards partition the label set.
        seen = [label for shard in stats.shards for label in shard.labels]
        assert sorted(seen) == sorted(database.labels)

    def test_empty_service_stats(self, database):
        service = RecognitionService(database, workers=0)
        stats = service.stats
        assert stats.mean_batch_fill == 0.0
        assert stats.shards == ()
