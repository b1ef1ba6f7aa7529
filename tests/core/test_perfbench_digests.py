"""The benchmark's own correctness check runs in tier-1.

``perfbench/reference.json`` keeps the transcript digest of every
mission in the fleet workload's pool, and every benchmark run checks
the missions it flies against them.  This flies the two cheapest pool
fleets through the benchmark's own ``fly()`` (``perfbench/`` is only
imported, never changed), so a change that alters any transcript the
benchmark checks fails here rather than only in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_cheapest_pool_fleets_fly_to_their_reference_digests(workloads):
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    cheapest = sorted(reference, key=lambda seed: reference[seed]["mission_ticks"])[:2]
    flown = workloads.Pass()
    for base_seed in cheapest:
        workloads.fly(
            int(base_seed), reference[base_seed]["digests"], flown, workloads.run_deadline()
        )
    assert flown.failures == []
    assert flown.completed == flown.attempted == 2 * workloads.FLEET_SIZE
