"""Service-backed perception and fleet scale-out parity.

``build_fleet(FleetSpec(..., workers=N))`` must replay the in-process fleet
*exactly* (mission outcomes, transcripts and perception counters) —
the service only changes where the matching work runs.
"""

import numpy as np
import pytest

from repro.mission.fleet import FleetSpec, build_fleet, mission_transcript
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.protocol.recognizer import RecognizerPerception
from repro.service import RecognitionService, ServiceClassifier

SMALL_ORCHARD = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=1,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)


def outcomes(report):
    return {
        name: (
            r.traps_read,
            tuple(r.skipped_traps),
            r.negotiations,
            r.negotiations_granted,
            r.negotiations_denied,
            r.negotiations_failed,
            r.safety_events,
            round(r.duration_s, 6),
        )
        for name, r in report.reports.items()
    }


class TestServiceBackedPerception:
    def test_recognize_batch_classifier_seam_parity(self, canonical_recognizer):
        """recognize_batch(classifier=ServiceClassifier(...)) is bit-identical."""
        recognizer = canonical_recognizer
        from repro.human.pose import pose_for_sign
        from repro.human.render import RenderSettings, render_frame
        from repro.human.signs import COMMUNICATIVE_SIGNS
        from repro.geometry.camera import observation_camera
        from repro.recognition.pipeline import observation_elevation_deg

        settings = RenderSettings(noise_sigma=0.0)
        frames = [
            render_frame(
                pose_for_sign(sign), observation_camera(5.0, 3.0, 10.0), settings
            )
            for sign in COMMUNICATIVE_SIGNS
        ]
        elevation = observation_elevation_deg(5.0, 3.0)
        expected = recognizer.recognize_batch(frames, elevation_deg=elevation)
        with RecognitionService(recognizer.database, workers=2) as service:
            got = recognizer.recognize_batch(
                frames,
                elevation_deg=elevation,
                classifier=ServiceClassifier(service),
            )
        assert [(r.label, r.distance, r.margin) for r in got] == [
            (r.label, r.distance, r.margin) for r in expected
        ]

    def test_perception_service_mode_matches_in_process(
        self, standing_human_world, canonical_recognizer
    ):
        """observe() answers identically with and without the service."""
        world, human = standing_human_world()
        from repro.geometry.vec import Vec3

        plain = RecognizerPerception(recognizer=canonical_recognizer)
        with RecognitionService(
            canonical_recognizer.database, workers=2
        ) as service:
            backed = RecognizerPerception(
                recognizer=canonical_recognizer,
                classifier=ServiceClassifier(service),
            )
            assert backed.service is service
            positions = [
                Vec3(human.position.x + 2.5, human.position.y, 4.0),
                Vec3(human.position.x + 3.0, human.position.y + 0.5, 5.0),
                Vec3(human.position.x + 40.0, human.position.y, 5.0),  # gated
            ]
            for position in positions:
                assert backed.observe(position, human) == plain.observe(
                    position, human
                )


class TestFleetScaleOut:
    def test_workers_requires_recognizer_perception(self):
        with pytest.raises(ValueError, match="recognizer"):
            build_fleet(FleetSpec(count=1, perception="oracle", workers=2))
        with pytest.raises(ValueError, match="non-negative"):
            build_fleet(FleetSpec(count=1, workers=-1))

    def test_fleet_service_outcome_and_transcript_parity(self):
        in_process = build_fleet(
            FleetSpec(
                count=2,
                base_seed=11,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
            )
        )
        base_report = in_process.run(1800.0)
        scaled = build_fleet(
            FleetSpec(
                count=2,
                base_seed=11,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
                workers=2,
            )
        )
        assert scaled.service is not None
        assert scaled.service.running
        service_report = scaled.run(1800.0)
        assert outcomes(service_report) == outcomes(base_report)
        for base_mission, svc_mission in zip(in_process.missions, scaled.missions):
            assert mission_transcript(svc_mission.world) == mission_transcript(
                base_mission.world
            )
        # run() closes the owned service; stats stay readable.
        assert not scaled.service.running
        stats = service_report.service_stats
        assert stats is not None
        assert stats.completed > 0
        assert stats.failed == 0
        assert base_report.service_stats is None

    def test_close_is_safe_without_service(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
            )
        )
        fleet.close()  # no service: no-op


class TestFleetBackendSelection:
    """``build_fleet(backend=...)`` validation and gateway parity."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_fleet(FleetSpec(count=1, backend="quantum"))

    def test_service_backend_needs_workers(self):
        with pytest.raises(ValueError, match="workers >= 1"):
            build_fleet(FleetSpec(count=1, backend="service", workers=0))

    def test_inprocess_backend_rejects_workers(self):
        with pytest.raises(ValueError, match="shard workers"):
            build_fleet(FleetSpec(count=1, backend="inprocess", workers=2))

    def test_gateway_backend_requires_recognizer_perception(self):
        with pytest.raises(ValueError, match="recognizer"):
            build_fleet(FleetSpec(count=1, perception="oracle", backend="gateway"))

    def test_auto_backend_follows_workers(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
            )
        )
        assert fleet.service is None and fleet.gateway is None
        fleet.close()

    def test_gateway_backend_outcome_and_transcript_parity(self):
        base = build_fleet(
            FleetSpec(
                count=1,
                base_seed=11,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
            )
        )
        base_report = base.run(1800.0)
        gated = build_fleet(
            FleetSpec(
                count=1,
                base_seed=11,
                config=SMALL_ORCHARD,
                negotiation=NEGOTIATION,
                backend="gateway",
            )
        )
        assert gated.gateway is not None
        assert gated.gateway.running
        gateway_report = gated.run(1800.0)
        assert outcomes(gateway_report) == outcomes(base_report)
        for base_mission, gw_mission in zip(base.missions, gated.missions):
            assert mission_transcript(gw_mission.world) == mission_transcript(
                base_mission.world
            )
        # run() closes the owned client and gateway; stats stay readable.
        assert not gated.gateway.running
        stats = gateway_report.gateway_stats
        assert stats is not None
        assert stats.completed > 0
        assert stats.shed_total == 0
        assert dict(stats.errors) == {}
        assert "fleet" in stats.per_tenant
        assert base_report.gateway_stats is None


class TestServiceOnCanonicalDatabase:
    def test_canonical_database_shards_across_processes(self, canonical_recognizer):
        database = canonical_recognizer.database
        rng = np.random.default_rng(3)
        references = [database.entry(label).series for label in database.labels]
        n = len(references[0])
        queries = [ref + 0.03 * rng.standard_normal(n) for ref in references] + [
            np.cumsum(rng.standard_normal(n)) for _ in range(3)
        ]
        expected = database.classify_batch(queries)
        # 4 workers requested, 3 labels enrolled: capped at 3 shards.
        with RecognitionService(database, workers=4) as service:
            assert service.classify_batch(queries) == expected
            assert len(service.shard_labels) == 3
