"""One contract suite, three backends.

Every :class:`~repro.recognition.classifier.Classifier` implementation
— in-process, shard-pool service, network gateway — must satisfy the
same observable contract: bit-identical verdicts, empty-batch handling,
honest stats counters and idempotent close.  The suite is parametrised
over the implementations, so a new backend earns its place by passing
unchanged.
"""

import pytest

from repro.gateway import GatewayClassifier, RecognitionGateway
from repro.human.signs import COMMUNICATIVE_SIGNS, MarshallingSign
from repro.protocol.recognizer import RecognizerPerception
from repro.recognition.classifier import (
    Classifier,
    ClassifierStats,
    InProcessClassifier,
)
from repro.service import RecognitionService, ServiceClassifier


@pytest.fixture(params=["inprocess", "service", "gateway"])
def classifier(request, database):
    """One ready-to-use classifier per backend, torn down afterwards."""
    if request.param == "inprocess":
        yield InProcessClassifier(database)
        return
    if request.param == "service":
        service = RecognitionService(database, workers=2).start()
        client = ServiceClassifier(service, owns_service=True)
        yield client
        client.close()
        return
    gateway = RecognitionGateway(
        [InProcessClassifier(database)], own_backends=True
    ).start()
    client = GatewayClassifier(*gateway.address, tenant="contract")
    yield client
    client.close()
    gateway.close()


class TestClassifierContract:
    def test_satisfies_protocol(self, classifier):
        assert isinstance(classifier, Classifier)

    def test_verdicts_bit_identical_to_database(self, classifier, database, queries):
        assert classifier.classify_batch(queries) == database.classify_batch(queries)

    def test_empty_batch(self, classifier):
        assert classifier.classify_batch([]) == []

    def test_stats_count_batches_and_frames(self, classifier, queries):
        before = classifier.stats
        assert isinstance(before, ClassifierStats)
        classifier.classify_batch(queries[:4])
        classifier.classify_batch(queries[:2])
        after = classifier.stats
        assert after.batches == before.batches + 2
        assert after.frames == before.frames + 6
        assert after.kind == before.kind
        assert after.mean_batch_size > 0

    def test_close_is_idempotent_and_final(self, classifier, queries):
        classifier.close()
        classifier.close()
        assert classifier.closed
        with pytest.raises(RuntimeError, match="closed"):
            classifier.classify_batch(queries[:1])


class TestClassifierArgument:
    """Callers take a Classifier (anything with ``classify_batch``); a
    bare function is a ``TypeError`` at the call."""

    def test_perception_rejects_bare_callable(self, canonical_recognizer):
        with pytest.raises(TypeError, match="must be a Classifier"):
            RecognizerPerception(
                recognizer=canonical_recognizer,
                classifier=canonical_recognizer.database.classify_batch,
            )

    def test_recognize_batch_rejects_bare_callable(self, canonical_recognizer, sign_frame):
        frame = sign_frame(MarshallingSign.YES)
        with pytest.raises(TypeError, match="must be a Classifier"):
            canonical_recognizer.recognize_batch(
                [frame], classifier=canonical_recognizer.database.classify_batch
            )

    def test_database_is_a_classifier(self, canonical_recognizer, sign_frame):
        frames = [sign_frame(sign) for sign in COMMUNICATIVE_SIGNS]
        database = canonical_recognizer.database
        expected = canonical_recognizer.recognize_batch(frames)
        got = canonical_recognizer.recognize_batch(frames, classifier=database)
        assert [(r.label, r.distance) for r in got] == [
            (r.label, r.distance) for r in expected
        ]
        perception = RecognizerPerception(
            recognizer=canonical_recognizer, classifier=database
        )
        assert perception.classifier is database


class TestStatsDetail:
    def test_inprocess_detail(self, database, queries):
        client = InProcessClassifier(database)
        client.classify_batch(queries)
        assert client.stats.detail["labels"] == len(database.labels)

    def test_service_detail_carries_tags(self, database, queries):
        with RecognitionService(database, workers=0) as service:
            client = ServiceClassifier(service, tag="tenant-7")
            client.classify_batch(queries[:3])
            detail = client.stats.detail
            assert detail["by_tag"] == {"tenant-7": 3}
            assert detail["completed"] == 3

    def test_gateway_detail_counts_retries(self, database, queries):
        with RecognitionGateway(
            [InProcessClassifier(database)], own_backends=True
        ) as gateway:
            with GatewayClassifier(*gateway.address, tenant="t") as client:
                client.classify_batch(queries[:2])
                detail = client.stats.detail
                assert detail == {"tenant": "t", "retried": 0}
