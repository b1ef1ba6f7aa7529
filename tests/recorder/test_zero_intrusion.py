"""Zero-intrusion fuzz: recording a run must not change the run.

For each fuzzed seed the same fleet is built twice — once bare, once
with a :class:`~repro.recorder.FlightRecorder` attached — and the two
runs must agree on every observable the rest of the suite treats as
ground truth: the full per-mission world-log transcripts
(:func:`~repro.mission.fleet.mission_transcript`), the
:class:`~repro.mission.fleet.FleetReport` counters, the escalation
stream and the perception statistics.  Any recorder tap that promotes
an LRU entry, consumes a log, or perturbs scheduling shows up here as
a transcript diff.

Seeds cover both perceptions of the trap-reading fleet plus the
surveillance fleet (bus-driven escalations), at smoke sizes.
"""

import random

import pytest

from repro.mission.fleet import FleetSpec, build_fleet, mission_transcript
from repro.mission.orchard import OrchardConfig
from repro.mission.surveillance import build_surveillance_fleet
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder import FlightRecorder
from repro.simulation.scenarios import CALM, NOON

SMOKE_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=2,
    traps_per_row=1,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)
SMOKE_SURVEILLANCE = OrchardConfig(
    rows=2,
    trees_per_row=2,
    traps_per_row=0,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=0.0,
)
SMOKE_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)

# >= 10 fuzzed runs total: 6 oracle + 2 recognizer trap-reading seeds
# and 2 surveillance seeds, drawn reproducibly.
ORACLE_SEEDS = sorted(random.Random(0xF11487).sample(range(10_000), 6))
RECOGNIZER_SEEDS = (7, 4242)
SURVEILLANCE_SEEDS = (5, 901)


def _report_summary(report) -> dict:
    """Deterministic FleetReport observables (no wall-clock, no paths)."""
    stats = report.perception_stats
    return {
        "ticks": report.ticks,
        "sim_duration_s": report.sim_duration_s,
        "missions": {
            name: {
                "traps_read": r.traps_read,
                "negotiations": r.negotiations,
                "safety_events": r.safety_events,
                "duration_s": r.duration_s,
            }
            for name, r in report.reports.items()
        },
        "escalations": [
            (event.time_s, event.source, event.kind)
            for event in report.escalation_events
        ],
        "perception": (
            (
                stats.observations,
                stats.gated,
                stats.cache_hits,
                stats.frames_classified,
                stats.batch_calls,
            )
            if stats is not None
            else None
        ),
    }


def _escalation_stream(fleet) -> list:
    return [
        (mission.name, event.time_s, event.source, sorted(event.detail.items()))
        for mission in fleet.missions
        for event in mission.world.log
        if event.kind == "escalation"
    ]


def _outcome(fleet) -> tuple:
    report = fleet.run()
    transcripts = {
        mission.name: mission_transcript(mission.world) for mission in fleet.missions
    }
    return transcripts, _report_summary(report), _escalation_stream(fleet)


def _build_fleet(seed: int, perception: str, recorder: FlightRecorder | None):
    return build_fleet(
        FleetSpec(
            count=1,
            base_seed=seed,
            config=SMOKE_CONFIG,
            perception=perception,
            negotiation=SMOKE_NEGOTIATION,
            winds=(CALM,),
            lightings=(NOON,),
            recorder=recorder,
        )
    )


def _build_surveillance(seed: int, recorder: FlightRecorder | None):
    return build_surveillance_fleet(
        FleetSpec(
            count=1,
            base_seed=seed,
            config=SMOKE_SURVEILLANCE,
            intruders=2,
            negotiation=SMOKE_NEGOTIATION,
            winds=(CALM,),
            lightings=(NOON,),
            recorder=recorder,
        )
    )


def _assert_intrusion_free(bare, recorded, recorder):
    transcripts_bare, summary_bare, escalations_bare = bare
    transcripts_rec, summary_rec, escalations_rec = recorded
    assert transcripts_rec == transcripts_bare
    assert summary_rec == summary_bare
    assert escalations_rec == escalations_bare
    assert recorder.finalized
    assert recorder.deterministic_lines(), "recorder captured nothing"


@pytest.mark.parametrize(
    "seed,perception",
    [(seed, "oracle") for seed in ORACLE_SEEDS]
    + [(seed, "recognizer") for seed in RECOGNIZER_SEEDS],
)
def test_fleet_run_is_unchanged_by_recording(seed, perception):
    bare = _outcome(_build_fleet(seed, perception, None))
    recorder = FlightRecorder()
    recorded = _outcome(_build_fleet(seed, perception, recorder))
    _assert_intrusion_free(bare, recorded, recorder)


@pytest.mark.parametrize("seed", SURVEILLANCE_SEEDS)
def test_surveillance_run_is_unchanged_by_recording(seed):
    bare = _outcome(_build_surveillance(seed, None))
    recorder = FlightRecorder()
    recorded = _outcome(_build_surveillance(seed, recorder))
    _assert_intrusion_free(bare, recorded, recorder)
