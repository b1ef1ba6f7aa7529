"""Quickstart: run the paper's use case end to end.

Builds a synthetic cherry orchard with fly traps and humans, launches
the drone on a trap-reading mission, and prints the mission report —
including every negotiation the drone had to run when a person was
blocking a trap (paper Section I / Figure 3).  Closes with the safety
channel itself: a batch of sign observations read in one
`recognize_batch` call.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

from repro.geometry import observation_camera
from repro.human import COMMUNICATIVE_SIGNS, RenderSettings, pose_for_sign, render_frame
from repro.mission import FleetSpec, OrchardConfig, build_fleet, render_map
from repro.recognition import SaxSignRecognizer, observation_elevation_deg


def main() -> None:
    # One mission is a one-mission fleet; winds=() keeps the config's
    # own wind and lightings=() the oracle's default view.
    fleet = build_fleet(
        FleetSpec(
            count=1,
            base_seed=7,
            config=OrchardConfig(
                rows=3,
                trees_per_row=6,
                traps_per_row=2,
                workers=2,
                visitors=1,
                blocking_fraction=0.6,
            ),
            perception="oracle",
            winds=(),
            lightings=(),
        )
    )
    mission = fleet.missions[0]
    orchard, drone, world = mission.orchard, mission.drone, mission.world
    print(f"orchard: {len(orchard.traps)} fly traps, "
          f"{len(orchard.humans)} people, "
          f"{len(world.obstacles)} trees")
    print(render_map(orchard, drone))
    print("running mission ...")
    report = fleet.run().reports[mission.name]
    print()
    print("after the mission (read traps now shown as *):")
    print(render_map(orchard, drone))

    print()
    print("=== mission report ===")
    print(f"traps read:            {report.traps_read}/{len(orchard.traps)}")
    print(f"skipped traps:         {report.skipped_traps or 'none'}")
    print(f"spray recommendations: {report.spray_recommendations}")
    print(f"negotiations:          {report.negotiations} "
          f"(granted {report.negotiations_granted}, "
          f"denied {report.negotiations_denied}, "
          f"failed {report.negotiations_failed})")
    print(f"mission time:          {report.duration_s:.0f} s simulated")
    print(f"safety events:         {report.safety_events}")
    print(f"battery remaining:     {drone.battery.state_of_charge:.0%}")

    print()
    print("=== negotiation transcript (protocol events) ===")
    for event in world.log:
        if event.kind in ("protocol_state", "sign_observed", "sign_shown",
                          "negotiation_started"):
            print(f"  {event}")

    print()
    print("=== batched sign reading (the safety channel itself) ===")
    recognizer = SaxSignRecognizer()
    recognizer.enroll_canonical_views()
    altitude, distance = 5.0, 3.0
    observations = [
        (sign, azimuth)
        for sign in COMMUNICATIVE_SIGNS
        for azimuth in (0.0, 30.0, 65.0)
    ]
    frames = [
        render_frame(pose_for_sign(sign), observation_camera(altitude, distance, azimuth),
                     RenderSettings(noise_sigma=0.02))
        for sign, azimuth in observations
    ]
    # One call: the frame stack flows through the vectorised vision
    # stages and the broadcast SAX matcher together.
    results = recognizer.recognize_batch(
        frames, elevation_deg=observation_elevation_deg(altitude, distance)
    )
    for (sign, azimuth), result in zip(observations, results):
        read = result.sign.value if result.sign else f"rejected ({result.reject_reason})"
        flag = "ok" if result.sign is sign else "??"
        print(f"  {flag} {sign.value:10s} @ {azimuth:4.0f} deg -> {read}")
    budget = results[0].budget
    print(f"  amortised cost: {budget.per_frame_s * 1e3:.2f} ms/frame over "
          f"{budget.frame_count} frames "
          f"({'within' if budget.within_budget else 'OVER'} the 30 fps budget)")


if __name__ == "__main__":
    main()
