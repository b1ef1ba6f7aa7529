"""The recogniser's runtime path needs numpy alone.

A fresh interpreter flies a one-mission recogniser fleet until its
perception has classified a frame (the batched front end, which labels
silhouettes with ``largest_component_fast``), then runs the scalar
``preprocess_frame`` reference on a rendered frame, and reports every
``scipy`` module it imported.  SciPy stays a test-only dependency: some
tests use it as an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import json, sys
from repro.geometry import observation_camera
from repro.human import COMMUNICATIVE_SIGNS, RenderSettings, pose_for_sign, render_frame
from repro.mission import OrchardConfig
from repro.mission.fleet import FleetSpec, build_fleet
from repro.protocol import NegotiationConfig
from repro.recognition.preprocess import preprocess_frame

config = OrchardConfig(
    rows=1, trees_per_row=4, traps_per_row=2, workers=2, visitors=0,
    supervisor_present=False, blocking_fraction=1.0, seed=0,
)
spec = FleetSpec(count=1, config=config, negotiation=NegotiationConfig(observe_interval_s=0.1))
fleet = build_fleet(spec)
fleet.start()
perception = fleet.missions[0].perception
while perception.stats.frames_classified == 0 and fleet.tick():
    pass
camera = observation_camera(5.0, 3.0, 0.0)
frame = render_frame(pose_for_sign(COMMUNICATIVE_SIGNS[0]), camera, RenderSettings(noise_sigma=0.02))
scalar = preprocess_frame(frame)
print(json.dumps({
    "frames_classified": perception.stats.frames_classified,
    "scalar_series": scalar.series is not None,
    "scipy_modules": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""


def test_fleet_and_scalar_preprocess_import_no_scipy():
    src = Path(repro.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    report = json.loads(probe.stdout.splitlines()[-1])
    assert report["frames_classified"] >= 1
    assert report["scalar_series"]
    assert report["scipy_modules"] == []
