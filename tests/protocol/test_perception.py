"""Tests for the perception models."""

import pytest

from repro.geometry import Vec3
from repro.human import MarshallingSign
from repro.protocol import ObservationGeometry, OraclePerception


class TestObservationGeometry:
    def test_full_on(self, standing_human_world):
        world, human = standing_human_world(facing=0.0)
        geometry = ObservationGeometry.between(Vec3(0, 3, 5), human)
        assert geometry.altitude_m == 5.0
        assert geometry.horizontal_distance_m == pytest.approx(3.0)
        assert geometry.relative_azimuth_deg == pytest.approx(0.0)

    def test_side_on(self, standing_human_world):
        world, human = standing_human_world(facing=0.0)
        geometry = ObservationGeometry.between(Vec3(3, 0, 5), human)
        assert geometry.relative_azimuth_deg == pytest.approx(90.0)

    def test_behind(self, standing_human_world):
        world, human = standing_human_world(facing=0.0)
        geometry = ObservationGeometry.between(Vec3(0, -3, 5), human)
        assert geometry.relative_azimuth_deg == pytest.approx(180.0)


class TestOraclePerception:
    def test_reads_sign_inside_envelope(self, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.YES)
        oracle = OraclePerception()
        assert oracle.observe(Vec3(0, 3, 5), human) is MarshallingSign.YES

    def test_idle_reads_none(self, standing_human_world):
        world, human = standing_human_world(sign=MarshallingSign.IDLE)
        assert OraclePerception().observe(Vec3(0, 3, 5), human) is None

    def test_too_low_reads_none(self, standing_human_world):
        world, human = standing_human_world()
        assert OraclePerception().observe(Vec3(0, 3, 1.0), human) is None

    def test_dead_angle_reads_none(self, standing_human_world):
        world, human = standing_human_world(facing=0.0)
        # Drone at 80 deg relative azimuth: outside the 65 deg envelope.
        import math

        az = math.radians(80.0)
        position = Vec3(3 * math.sin(az), 3 * math.cos(az), 5.0)
        assert OraclePerception().observe(position, human) is None

    def test_out_of_range_reads_none(self, standing_human_world):
        world, human = standing_human_world()
        assert OraclePerception().observe(Vec3(0, 30, 5), human) is None
