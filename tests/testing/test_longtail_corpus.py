"""Replay the committed long-tail regression corpus bit-deterministically."""

import json
from pathlib import Path

import pytest

from repro.simulation.scenarios import NIGHT, scenario_from_dict
from repro.testing.fuzz import execute_window, replay_case

CORPUS_DIR = Path(__file__).resolve().parent.parent / "data" / "longtail"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_corpus_is_populated():
    """The golden corpus holds at least five minimised cases."""
    assert len(CORPUS) >= 5


def test_corpus_covers_required_categories():
    """Occlusion, dual-signer, dropped-frame, night and walk-while-sign
    long-tail categories are each pinned by at least one case."""
    covered = set()
    for path in CORPUS:
        scenario = scenario_from_dict(load(path)["scenario"])
        if scenario.occlusion is not None:
            covered.add("occlusion")
        if scenario.conflict is not None:
            covered.add("dual_signer")
        if scenario.drops is not None:
            covered.add("dropped_frame")
        if scenario.drift is not None:
            covered.add("walk_while_sign")
        if scenario.lighting is NIGHT:
            covered.add("night")
    assert covered >= {
        "occlusion", "dual_signer", "dropped_frame", "night", "walk_while_sign"
    }


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_case_replays_green(path, fuzz_recognizers):
    """Each committed case replays with zero drift: same signature,
    same verdict, no invariant violations."""
    assert replay_case(load(path), fuzz_recognizers) == []


@pytest.mark.parametrize("path", CORPUS[:2], ids=lambda p: p.stem)
def test_replay_is_bit_deterministic(path, fuzz_recognizers):
    """Two replays of the same case produce byte-identical windows."""
    scenario = scenario_from_dict(load(path)["scenario"])
    first = execute_window(scenario, fuzz_recognizers)
    second = execute_window(scenario, fuzz_recognizers)
    assert first.signature == second.signature
    assert first.labels == second.labels
