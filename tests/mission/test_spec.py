"""FleetSpec: validation and the one builder calling convention.

``build_fleet`` and ``build_surveillance_fleet`` take a single
``FleetSpec`` and nothing else: the pre-spec keyword forms raise
``TypeError``.
"""

import warnings
from dataclasses import fields

import pytest

from repro.geometry.vec import Vec2
from repro.mission import (
    DEFAULT_DRONE_HOME,
    FleetSpec,
    OrchardConfig,
    build_fleet,
)
from repro.mission.surveillance import build_surveillance_fleet
from repro.protocol.perception import OraclePerception
from repro.simulation.scenarios import DEFAULT_LIGHTINGS, DEFAULT_WINDS

SMALL = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)


class TestValidation:
    def test_defaults(self):
        spec = FleetSpec(count=4)
        assert spec.base_seed == 0
        assert spec.drone_home == DEFAULT_DRONE_HOME
        assert spec.winds == tuple(DEFAULT_WINDS)
        assert spec.lightings == tuple(DEFAULT_LIGHTINGS)

    @pytest.mark.parametrize(
        ("fields", "match"),
        [
            (dict(count=0), "at least one mission"),
            (dict(count=1, intruders=-1), "non-negative"),
            (dict(count=1, burst_spacing_s=-0.1), "non-negative"),
            (dict(count=1, laps=0), "at least one lap"),
            (dict(count=1, burst_start_s=-1), "non-negative"),
            (dict(count=1, perception="sonar"), "unknown perception"),
            (dict(count=1, perception=OraclePerception()), "unknown perception kind"),
        ],
    )
    def test_rejects_bad_fields(self, fields, match):
        with pytest.raises(ValueError, match=match):
            FleetSpec(**fields)

    def test_condition_pools_normalise_to_tuples(self):
        spec = FleetSpec(count=1, winds=list(DEFAULT_WINDS), lightings=list(DEFAULT_LIGHTINGS))
        assert spec == FleetSpec(count=1)
        assert isinstance(spec.winds, tuple)
        assert isinstance(spec.lightings, tuple)

    def test_frozen(self):
        spec = FleetSpec(count=1)
        with pytest.raises(AttributeError):
            spec.count = 2

    def test_recorder_excluded_from_equality(self):
        assert FleetSpec(count=1, recorder=object()) == FleetSpec(count=1)

    def test_workers_is_not_a_field(self):
        # Missions run in-process; there is no worker pool to size.
        assert "workers" not in {f.name for f in fields(FleetSpec)}
        with pytest.raises(TypeError, match="workers"):
            FleetSpec(count=1, workers=2)


class TestCallingConvention:
    """A FleetSpec is the only argument; the pre-spec forms are gone."""

    def test_spec_call_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        fleet.close()

    def test_bare_count_rejected(self):
        with pytest.raises(TypeError, match="takes a FleetSpec"):
            build_fleet(4)

    def test_count_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_fleet(count=4)

    def test_surveillance_legacy_form_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_surveillance_fleet(4, laps=2)


class TestCallingConventionErrors:
    def test_spec_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_fleet(FleetSpec(count=1), base_seed=3)

    def test_missing_count_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_fleet(base_seed=3)

    def test_unknown_legacy_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_fleet(1, shard_count=4)

    def test_surveillance_rejects_trap_only_keyword(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_surveillance_fleet(1, backend="service")


class TestSpecFieldRouting:
    def test_drone_home_honoured_by_both_builders(self):
        home = Vec2(-2.0, -1.0)
        trap = build_fleet(
            FleetSpec(count=1, config=SMALL, perception="oracle", drone_home=home)
        )
        guard = build_surveillance_fleet(FleetSpec(count=1, drone_home=home))
        try:
            assert trap.missions[0].drone.state.position.horizontal() == home
            assert guard.missions[0].drone.state.position.horizontal() == home
        finally:
            trap.close()
            guard.close()

    def test_surveillance_honours_perception(self):
        fleet = build_surveillance_fleet(FleetSpec(count=2, perception="oracle"))
        try:
            for mission in fleet.missions:
                assert isinstance(mission.perception, OraclePerception)
                assert mission.executor.perception is mission.perception
        finally:
            fleet.close()
