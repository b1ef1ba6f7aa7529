"""Tests for the batched, envelope-gated RecognizerPerception."""

import math

import pytest

from repro.geometry import Vec3
from repro.human import MarshallingSign
from repro.protocol import (
    OraclePerception,
    RecognitionEnvelope,
    RecognizerPerception,
)
from repro.simulation.scenarios import DUSK, NOON
from repro.testing import ScalarReferencePerception

CANONICAL = Vec3(0, 3, 5)


@pytest.fixture
def perception(canonical_recognizer) -> RecognizerPerception:
    # Fresh caches per test around the shared (read-only) recogniser.
    return RecognizerPerception(recognizer=canonical_recognizer)


class TestEnvelopeGate:
    def test_defaults_tighter_than_oracle(self):
        envelope = RecognitionEnvelope()
        oracle = OraclePerception()
        assert envelope.max_azimuth_deg < oracle.max_azimuth_deg
        assert envelope.min_altitude_m == oracle.min_altitude_m
        assert envelope.max_range_m == oracle.max_range_m

    @pytest.mark.parametrize(
        "position",
        [
            Vec3(0, 3, 1.0),  # below altitude floor
            Vec3(0, 30, 5),  # beyond range
            Vec3(3 * math.sin(math.radians(40)), 3 * math.cos(math.radians(40)), 5.0),
            Vec3(3 * math.sin(math.radians(85)), 3 * math.cos(math.radians(85)), 5.0),
        ],
    )
    def test_gated_geometry_reads_none_without_rendering(
        self, perception, standing_human_world, position
    ):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        assert perception.observe(position, human) is None
        stats = perception.stats
        assert stats.gated == 1
        assert stats.frames_classified == 0

    def test_degenerate_camera_reads_none(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        torso = human.position3() + Vec3(0, 0, 1.1)
        assert perception.observe(torso, human) is None


class TestRecognitionParity:
    def test_matches_oracle_on_all_signs_at_canonical_view(
        self, perception, standing_human_world
    ):
        world, human = standing_human_world()
        oracle = OraclePerception()
        signs = [
            MarshallingSign.ATTENTION,
            MarshallingSign.YES,
            MarshallingSign.NO,
            MarshallingSign.IDLE,
        ]
        for sign in signs:
            human.show_sign(sign, world)
            assert perception.observe(CANONICAL, human) == oracle.observe(
                CANONICAL, human
            )

    def test_scalar_reference_parity(
        self, canonical_recognizer, standing_human_world
    ):
        world, human = standing_human_world()
        batched = RecognizerPerception(recognizer=canonical_recognizer)
        scalar = ScalarReferencePerception(
            RecognizerPerception(recognizer=canonical_recognizer)
        )
        for sign in (MarshallingSign.ATTENTION, MarshallingSign.YES, MarshallingSign.IDLE):
            human.show_sign(sign, world)
            for position in (CANONICAL, Vec3(0.4, 3.1, 4.9)):
                assert batched.observe(position, human) == scalar.observe(
                    position, human
                )


class TestMemoisation:
    def test_repeated_observation_classifies_once(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        results = [perception.observe(CANONICAL, human) for _ in range(5)]
        assert results == [MarshallingSign.YES] * 5
        stats = perception.stats
        assert stats.frames_classified == 1
        assert stats.cache_hits == 4

    def test_sub_quantum_jitter_hits_the_cache(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.NO)
        assert perception.observe(CANONICAL, human) is MarshallingSign.NO
        jittered = Vec3(0.004, 3.004, 5.004)  # < half the 0.05 m quantum
        assert perception.observe(jittered, human) is MarshallingSign.NO
        assert perception.stats.frames_classified == 1

    def test_pose_change_invalidates(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        perception.observe(CANONICAL, human)
        human.show_sign(MarshallingSign.NO, world)
        assert perception.observe(CANONICAL, human) is MarshallingSign.NO
        assert perception.stats.frames_classified == 2

    def test_cache_is_bounded(self, canonical_recognizer, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        small = RecognizerPerception(
            recognizer=canonical_recognizer, max_cache_entries=2
        )
        for dx in (0.0, 0.3, 0.6, 0.9):
            small.observe(Vec3(dx, 3, 5), human)
        assert len(small._core.cache) == 2


class TestBatchSeams:
    """The fleet stages' seams: lookup → render → preprocess → match."""

    @staticmethod
    def resolve(perception, queries):
        """Run *queries* through the four seams; return the misses."""
        misses = perception.pending_misses(queries)
        if misses:
            frames = perception.render_batch(misses)
            perception.match_batch(misses, perception.preprocess_batch(misses, frames))
        return misses

    def test_misses_answer_in_one_batch_call(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        positions = [Vec3(0.2 * k, 3, 5) for k in range(4)]
        queries = [perception.query(p, human) for p in positions]
        assert all(q is not None for q in queries)
        assert len(self.resolve(perception, queries)) == 4
        assert perception.stats.batch_calls == 1
        # Subsequent observations are pure cache lookups.
        for position in positions:
            assert perception.observe(position, human) is MarshallingSign.YES
        assert perception.stats.frames_classified == 4

    def test_pending_misses_dedupe_and_skip_cached(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.NO)
        query = perception.query(CANONICAL, human)
        assert self.resolve(perception, [query, query, None]) == [query]
        assert self.resolve(perception, [query]) == []


class TestLightingViews:
    def test_views_share_one_core(self, perception):
        dusk_view = perception.with_render_settings(DUSK.render_settings())
        assert dusk_view.core_key == perception.core_key
        assert dusk_view.recognizer is perception.recognizer

    def test_lighting_is_part_of_the_cache_key(self, perception, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        noon_view = perception.with_render_settings(NOON.render_settings())
        dusk_view = perception.with_render_settings(DUSK.render_settings())
        noon_view.observe(CANONICAL, human)
        dusk_view.observe(CANONICAL, human)
        assert perception.stats.frames_classified == 2  # no cross-lighting hit



class TestQueryParity:
    """The query path builds no vectors, skeleton or bones; what it
    decides and renders must equal the object-built path."""

    def test_render_is_render_frame_of_pose_and_camera(self, perception, standing_human_world):
        from repro.human import render_frame

        for sign in MarshallingSign:
            world, human = standing_human_world(sign=sign)
            for drone in (CANONICAL, Vec3(0.7, 2.9, 4.2), Vec3(-0.9, 3.3, 2.6)):
                query = perception.query(drone, human)
                frame = query.render()
                expected = render_frame(query.pose(), query.camera(), query.settings)
                assert frame.pixels.tobytes() == expected.pixels.tobytes()
                assert frame.provenance == expected.provenance

    @pytest.mark.parametrize("permissive", [False, True], ids=["default", "permissive"])
    def test_gate_is_geometry_between_camera_and_human(
        self, perception, standing_human_world, permissive
    ):
        """``query`` decides exactly as the vector-built checks do.  Under
        an envelope that admits every geometry, the degenerate-pose checks
        alone reject the drone on the torso."""
        from repro.protocol.perception import ObservationGeometry
        from repro.protocol.recognizer import ObservationQuery, RecognitionEnvelope

        if permissive:
            perception.envelope = RecognitionEnvelope(
                min_altitude_m=0.0, max_azimuth_deg=180.0, max_range_m=1e9
            )

        def expected(drone, human):
            torso = human.position3() + Vec3(0.0, 0.0, 1.1)
            if drone.is_close(torso, tol=1e-6):
                return None
            query = ObservationQuery.build(drone, human, perception.render_settings)
            if query.camera_position.is_close(query.torso_target, tol=1e-6):
                return None
            geometry = ObservationGeometry.between(query.camera_position, human)
            return query if perception.envelope.allows(geometry) else None

        world, human = standing_human_world(sign=MarshallingSign.YES)
        decided = set()
        for azimuth in range(0, 60, 3):
            for altitude in (1.0, 1.1, 1.99, 2.0, 5.0, 11.9, 13.0):
                rad = math.radians(azimuth)
                for reach in (0.0, 0.02, 4.0, 12.0):
                    drone = Vec3(reach * math.sin(rad), reach * math.cos(rad), altitude)
                    query = perception.query(drone, human)
                    assert query == expected(drone, human)
                    decided.add(query is None)
        assert decided == {True, False}
