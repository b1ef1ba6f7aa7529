"""Recipes: the replayable description a recording's header carries.

``make_recipe`` encodes :func:`~repro.mission.fleet.build_fleet`
arguments (configs as dicts, conditions by name) and ``run_recipe``
decodes and flies them.  ``fleet`` is the one builder and its keys are
the one key set: the retired guard-fleet builder and its knobs are
refused on both sides, before anything is written or flown.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.protocol.perception import OraclePerception
from repro.recorder import FlightRecorder, make_recipe, run_recipe
from repro.recorder.replay import _decode_kwargs
from repro.simulation.scenarios import CALM, LIGHTINGS, NOON, WINDS, Lighting, WindCondition

SMALL = OrchardConfig(
    rows=1,
    trees_per_row=2,
    traps_per_row=1,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)

#: The guard-fleet recipe knobs, with a value each would have taken.
RETIRED_KNOBS = {
    "challenge_config": NegotiationConfig(),
    "intruders": 2,
    "burst_start_s": 1.0,
    "burst_spacing_s": 2.0,
    "laps": 3,
}


def test_recipe_encodes_configs_by_value_and_conditions_by_name():
    negotiation = NegotiationConfig(observe_interval_s=0.1)
    recipe = make_recipe(
        "fleet",
        count=2,
        base_seed=7,
        config=SMALL,
        perception="oracle",
        winds=(CALM,),
        lightings=(NOON,),
        negotiation_config=negotiation,
    )
    kwargs = recipe["kwargs"]
    assert recipe["builder"] == "fleet"
    assert OrchardConfig(**kwargs["config"]) == SMALL
    assert NegotiationConfig(**kwargs["negotiation_config"]) == negotiation
    assert kwargs["winds"] == [CALM.name]
    assert kwargs["lightings"] == [NOON.name]
    assert (kwargs["count"], kwargs["base_seed"], kwargs["perception"]) == (2, 7, "oracle")
    assert json.loads(json.dumps(recipe)) == recipe


def test_make_recipe_refuses_the_retired_builder():
    with pytest.raises(ValueError, match="unknown recipe builder: 'surveillance'"):
        make_recipe("surveillance", count=1)


def test_run_recipe_refuses_the_retired_builder_before_writing():
    recorder = FlightRecorder()
    with pytest.raises(ValueError, match="unknown recipe builder: 'surveillance'"):
        run_recipe({"builder": "surveillance", "kwargs": {"count": 1}}, recorder)
    assert not recorder.lines


@pytest.mark.parametrize("name", sorted(RETIRED_KNOBS))
def test_retired_knob_is_not_recordable(name):
    with pytest.raises(ValueError, match=f"'{name}' is not a recordable fleet recipe argument"):
        make_recipe("fleet", count=1, **{name: RETIRED_KNOBS[name]})


def test_run_recipe_refuses_a_retired_knob_before_writing():
    recorder = FlightRecorder()
    recipe = {"builder": "fleet", "kwargs": {"count": 1, "intruders": 2}}
    with pytest.raises(ValueError, match="'intruders' is not a fleet recipe argument"):
        run_recipe(recipe, recorder)
    assert not recorder.lines


def test_run_recipe_needs_a_count():
    recorder = FlightRecorder()
    with pytest.raises(ValueError, match="must include 'count'"):
        run_recipe(make_recipe("fleet", base_seed=3), recorder)
    assert not recorder.lines


def test_run_recipe_refuses_an_unknown_condition_name():
    recipe = make_recipe("fleet", count=1, config=SMALL, perception="oracle")
    recipe["kwargs"]["winds"] = ["monsoon"]
    with pytest.raises(ValueError, match="unknown winds condition in recipe"):
        run_recipe(recipe, FlightRecorder())


def test_a_perception_object_is_not_recordable():
    with pytest.raises(ValueError, match="recipe value for 'perception' is not recordable"):
        make_recipe("fleet", count=1, perception=OraclePerception())


#: Wind and lighting conditions under registry names: the registry
#: entries themselves and custom values that reuse their names.
RECIPE_WINDS = st.one_of(
    st.sampled_from(list(WINDS.values())),
    st.builds(WindCondition, name=st.sampled_from(sorted(WINDS)), speed_mps=st.floats(0.0, 30.0)),
)
RECIPE_LIGHTINGS = st.one_of(
    st.sampled_from(list(LIGHTINGS.values())),
    st.builds(
        Lighting,
        name=st.sampled_from(sorted(LIGHTINGS)),
        background_intensity=st.floats(0.3, 1.0),
        figure_intensity=st.floats(0.0, 0.25),
        noise_sigma=st.floats(0.0, 0.1),
    ),
)


@given(winds=st.lists(RECIPE_WINDS, max_size=3), lightings=st.lists(RECIPE_LIGHTINGS, max_size=3))
def test_recipe_conditions_round_trip_or_are_refused(winds, lightings):
    """make_recipe → JSON → decoded kwargs gives back the conditions,
    and a condition that only reuses a registry name is refused: its
    name alone would replay the registry entry."""
    kwargs = {"count": 2, "winds": tuple(winds), "lightings": tuple(lightings)}
    registered = all(WINDS[w.name] == w for w in winds) and all(
        LIGHTINGS[lighting.name] == lighting for lighting in lightings
    )
    if not registered:
        with pytest.raises(ValueError, match="is not a registry"):
            make_recipe("fleet", **kwargs)
        return
    recipe = json.loads(json.dumps(make_recipe("fleet", **kwargs)))
    assert _decode_kwargs(recipe["kwargs"]) == kwargs
