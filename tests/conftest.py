"""Shared fixtures for the whole test suite.

The expensive artefacts nearly every suite re-built for itself — the
canonically-enrolled recognisers, rendered sign frames at the paper's
observation geometry, deterministic personas and a signalling human's
world — live here once.  Suites alias them under their
historical local names (``recognizer = canonical_recognizer``) so test
bodies stay unchanged.

Mutating tests (custom-sign enrolment, threshold tweaks) must build
their own instances; the shared recognisers are read-only by contract.
"""

import pytest

from repro.geometry import Vec2, observation_camera
from repro.human import (
    MOVE_UPWARD,
    WAVE_OFF,
    HumanAgent,
    MarshallingSign,
    Persona,
    RenderSettings,
    TrainingLevel,
    pose_for_sign,
    render_frame,
)
from repro.recognition import DynamicSignRecognizer, SaxSignRecognizer
from repro.simulation import World


@pytest.fixture(scope="session")
def canonical_recognizer() -> SaxSignRecognizer:
    """The enrolled static recogniser (read-only; one per session)."""
    rec = SaxSignRecognizer()
    rec.enroll_canonical_views()
    return rec


@pytest.fixture(scope="session")
def enrolled_dynamic_recognizer() -> DynamicSignRecognizer:
    """The enrolled dynamic recogniser (read-only; one per session)."""
    rec = DynamicSignRecognizer()
    rec.enroll(WAVE_OFF)
    rec.enroll(MOVE_UPWARD)
    return rec


@pytest.fixture(scope="session")
def sign_frame():
    """Cached renderer: ``sign_frame(sign, azimuth_deg=0.0)`` at the
    paper's canonical 5 m / 3 m observation geometry.

    Repeated requests return the *same* ``Image`` object (rendering is
    deterministic), so identity-based batch memoisation behaves exactly
    as it does on real repeated frames.
    """
    cache: dict[tuple, object] = {}

    def render(sign: MarshallingSign, azimuth_deg: float = 0.0, noise_sigma: float = 0.02):
        key = (sign, azimuth_deg, noise_sigma)
        if key not in cache:
            camera = observation_camera(5.0, 3.0, azimuth_deg)
            cache[key] = render_frame(
                pose_for_sign(sign), camera, RenderSettings(noise_sigma=noise_sigma)
            )
        return cache[key]

    return render


# -- personas --------------------------------------------------------------------------

def _deterministic_persona(name: str, grants: float) -> Persona:
    return Persona(
        name=name,
        training=TrainingLevel.TRAINED,
        notice_probability=1.0,
        response_probability=1.0,
        correct_sign_probability=1.0,
        mean_delay_s=1.0,
        delay_jitter_s=0.0,
        max_lean_deg=0.0,
        grants_space_probability=grants,
    )


@pytest.fixture(scope="session")
def granter_persona() -> Persona:
    """Fully deterministic persona that always notices and grants."""
    return _deterministic_persona("granter", grants=1.0)


@pytest.fixture(scope="session")
def denier_persona() -> Persona:
    """Fully deterministic persona that always notices and denies."""
    return _deterministic_persona("denier", grants=0.0)


# -- scenario worlds -------------------------------------------------------------------

@pytest.fixture
def standing_human_world():
    """Factory: a world with one signalling human at the origin.

    ``standing_human_world(sign=..., facing=...)`` returns
    ``(world, human)`` — the setup the perception tests repeat.
    """

    def build(sign: MarshallingSign = MarshallingSign.NO, facing: float = 0.0, persona=None):
        from repro.human.persona import SUPERVISOR

        world = World()
        human = HumanAgent(
            "human",
            persona=persona if persona is not None else SUPERVISOR,
            position=Vec2(0, 0),
            facing_deg=facing,
        )
        world.add_entity(human)
        human.show_sign(sign, world)
        return world, human

    return build
