"""FleetSpec: validation and the one builder calling convention.

``build_fleet`` takes a single ``FleetSpec`` and nothing else: the
pre-spec keyword forms raise ``TypeError``.
"""

import warnings
from dataclasses import fields, replace

import pytest

from repro.geometry.vec import Vec2
from repro.mission import (
    DEFAULT_DRONE_HOME,
    FleetSpec,
    OrchardConfig,
    build_fleet,
)
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

    @pytest.mark.parametrize(
        "name",
        # Missions run in-process, so there is no worker pool to size;
        # the guard-fleet workload shape went with the retired guards.
        ["workers", "intruders", "burst_start_s", "burst_spacing_s", "laps"],
    )
    def test_retired_knob_is_not_a_field(self, name):
        assert name not in {f.name for f in fields(FleetSpec)}
        with pytest.raises(TypeError, match=name):
            FleetSpec(count=1, **{name: 2})


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


class TestSpecFieldRouting:
    def test_drone_home_honoured(self):
        home = Vec2(-2.0, -1.0)
        fleet = build_fleet(
            FleetSpec(count=1, config=SMALL, perception="oracle", drone_home=home)
        )
        try:
            assert fleet.missions[0].drone.state.position.horizontal() == home
        finally:
            fleet.close()

    def test_without_winds_each_orchard_keeps_the_config_but_its_seed(self):
        """With ``winds=()`` mission ``i`` flies ``replace(config,
        seed=base_seed + i)``: every other field, wind mean included,
        is the config's own."""
        config = OrchardConfig(
            rows=2, trees_per_row=3, traps_per_row=1, workers=1, visitors=0,
            supervisor_present=False, blocking_fraction=0.25, wind_mean_mps=0.5, seed=99,
        )
        fleet = build_fleet(
            FleetSpec(
                count=3, base_seed=9, config=config, perception="oracle",
                winds=(), lightings=(),
            )
        )
        try:
            assert [m.orchard.config for m in fleet.missions] == [
                replace(config, seed=9 + i) for i in range(3)
            ]
        finally:
            fleet.close()

    def test_oracle_perception_reaches_every_executor(self):
        fleet = build_fleet(FleetSpec(count=2, config=SMALL, perception="oracle"))
        try:
            for mission in fleet.missions:
                assert isinstance(mission.perception, OraclePerception)
                assert mission.executor.perception is mission.perception
        finally:
            fleet.close()
