"""T-MISSION — the end-to-end orchard mission.

The paper's use case in one number row: traps visited, negotiations
needed, mission time, safety events.  Shape claims: the mission
completes, most traps are read, negotiated access resolves the human
blockers, and no safety violations occur in nominal conditions.
"""

from repro.mission import FleetSpec, OrchardConfig, build_fleet


def fly_mission(seed: int, wind_mean_mps: float = 1.0):
    """Fly one oracle mission on orchard *seed* as a one-mission fleet."""
    fleet = build_fleet(
        FleetSpec(
            count=1,
            base_seed=seed,
            config=OrchardConfig(wind_mean_mps=wind_mean_mps),
            perception="oracle",
            winds=(),
            lightings=(),
        )
    )
    report = fleet.run().reports["mission_00"]
    return fleet.missions[0], report


def test_full_mission(benchmark):
    mission, report = benchmark.pedantic(fly_mission, args=(1,), rounds=1, iterations=1)
    total_traps = len(mission.orchard.traps)
    assert report.traps_read >= total_traps * 0.6
    assert report.traps_read + len(report.skipped_traps) <= total_traps
    assert report.safety_events == 0
    assert report.negotiations >= 1  # seed 1 places blockers
    benchmark.extra_info.update(
        {
            "traps_total": total_traps,
            "traps_read": report.traps_read,
            "skipped": len(report.skipped_traps),
            "negotiations": report.negotiations,
            "granted": report.negotiations_granted,
            "denied": report.negotiations_denied,
            "failed": report.negotiations_failed,
            "duration_s": round(report.duration_s, 1),
            "spray_recommendations": report.spray_recommendations,
        }
    )


def test_mission_under_wind(benchmark):
    """The same mission with a stiffer breeze still completes safely."""

    mission, report = benchmark.pedantic(fly_mission, args=(2, 3.0), rounds=1, iterations=1)
    assert report.traps_read >= 1
    benchmark.extra_info["duration_s"] = round(report.duration_s, 1)


if __name__ == "__main__":
    for seed in (1, 2, 3):
        mission, report = fly_mission(seed)
        print(
            f"T-MISSION seed {seed}: read {report.traps_read}/"
            f"{len(mission.orchard.traps)} traps, "
            f"negotiations {report.negotiations} "
            f"(granted {report.negotiations_granted}, denied "
            f"{report.negotiations_denied}, failed {report.negotiations_failed}), "
            f"duration {report.duration_s:.0f} s, "
            f"safety events {report.safety_events}, "
            f"spray recs {report.spray_recommendations}"
        )
