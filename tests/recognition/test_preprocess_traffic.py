"""The repository's recognition traffic takes the provenance window.

Every frame a recogniser fleet or the distinct-request benchmark
workload renders carries its render provenance, so
:func:`~repro.recognition.preprocess.preprocess_frames` closes it on
the window around the painted box, never on the whole frame.  A change
that drops provenance on the way (a copy, a crop, a wrapper) keeps
every result byte-identical but sends each frame through the
whole-frame window; these pins make that fail loudly.
"""

import sys
from pathlib import Path

import pytest

from repro.mission.fleet import build_fleet
from repro.mission.orchard import OrchardConfig
from repro.mission.spec import FleetSpec
from repro.protocol.negotiation import NegotiationConfig
from repro.protocol.recognizer import RecognizerPerception
from repro.recognition import preprocess
from repro.simulation.scenarios import CALM, NOON

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def windows(monkeypatch):
    """Count the frames closed on a provenance window and on the whole
    frame."""
    seen = {"window": 0, "whole": 0}
    close_window = preprocess._close_window

    def counting(window, mask, radius):
        seen["whole" if window.plate is None else "window"] += 1
        return close_window(window, mask, radius)

    monkeypatch.setattr(preprocess, "_close_window", counting)
    return seen


@pytest.fixture
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_recognizer_trap_fleet_windows_every_frame(windows):
    spec = FleetSpec(
        count=2,
        config=OrchardConfig(
            rows=1, trees_per_row=3, traps_per_row=1, workers=1, visitors=0,
            supervisor_present=False, blocking_fraction=1.0,
        ),
        perception="recognizer",
        winds=(CALM,),
        lightings=(NOON,),
        negotiation=NegotiationConfig(observe_interval_s=0.1),
    )
    with build_fleet(spec) as fleet:
        windows.update(window=0, whole=0)  # enrolment views are windowed too
        report = fleet.run()
    frames = report.perception_stats.frames_classified
    assert frames > 0
    assert windows == {"window": frames, "whole": 0}


def test_distinct_requests_window_every_frame(windows, workloads):
    perception = RecognizerPerception()
    views = workloads.lighting_views(perception)
    requests = workloads.DistinctRequests(1, perception).take(24)
    windows.update(window=0, whole=0)  # enrolment views are windowed too
    verdicts = workloads.serve(perception, views, requests, workloads.Pass())
    assert len(verdicts) >= 24
    assert windows == {"window": len(verdicts), "whole": 0}
