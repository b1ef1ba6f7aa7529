"""Seeded long-tail fuzz run: sample, check, shrink, serialise.

The ``make fuzz`` entry point.  Draws scenarios from the seeded
long-tail generator, checks every safety invariant through the real
recognition stack (plus orchard trap fleet cases), shrinks any
failure to a minimal reproduction and writes it as canonical JSON under
``--out``.  Exit status 1 when any invariant was violated — the nightly
job uploads the minimised cases as artifacts and fails loudly.

Reproducibility contract: the same ``--seed`` produces the same
scenarios, the same verdicts and byte-identical minimised case files.

``--mine N`` switches to corpus mining: instead of hunting invariant
violations, shrink the first *N* scenario indices whose perturbations
flip the recognition verdict relative to their clean base into ``edge``
regression cases (the corpus committed under ``tests/data/longtail/``
and replayed by tier-1).  Mining always exits 0.

Usage::

    PYTHONPATH=src python scripts/run_fuzz.py --seed 0 --iterations 25
    PYTHONPATH=src python scripts/run_fuzz.py --seed 7 --mine 40 --out tests/data/longtail
"""

import argparse
import sys
from pathlib import Path

from repro.testing.fuzz import FuzzHarness, case_bytes, case_filename


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the fuzz CLI arguments."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0, help="fuzz seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, default=25, help="scenario windows to check"
    )
    parser.add_argument(
        "--fleet-cases", type=int, default=1, help="orchard trap fleet cases to check"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("fuzz-artifacts"),
        help="directory for minimised case JSON files",
    )
    parser.add_argument(
        "--mine",
        type=int,
        default=0,
        metavar="N",
        help="mine edge regression cases from the first N indices instead",
    )
    return parser.parse_args(argv)


def write_case(out_dir: Path, case) -> Path:
    """Write one minimised case to its content-addressed filename."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / case_filename(case)
    path.write_bytes(case_bytes(case))
    return path


def main(argv=None) -> int:
    """Run the fuzz (or mining) session; return the process exit code."""
    args = parse_args(argv)
    harness = FuzzHarness(
        seed=args.seed, iterations=args.iterations, fleet_cases=args.fleet_cases
    )
    if args.mine:
        mined = 0
        for index in range(args.mine):
            case = harness.mine_edge_case(index)
            if case is None:
                continue
            path = write_case(args.out, case)
            mined += 1
            print(f"mined {path} (complexity {case.scenario.complexity()}): {case.detail}")
        print(f"fuzz-mine: seed={args.seed} indices={args.mine} edge cases={mined}")
        return 0
    report = harness.run()
    for case in report.cases:
        path = write_case(args.out, case)
        print(f"VIOLATION {case.invariant}: {case.detail}")
        print(f"  minimised to {path} ({case.scenario.name})")
    for violation in report.fleet_violations:
        print(f"FLEET VIOLATION {violation.invariant}: {violation.detail}")
    status = "OK" if report.ok else "FAILED"
    print(
        f"fuzz: seed={report.seed} scenarios={report.scenarios_checked} "
        f"fleet_cases={report.fleet_cases} violations="
        f"{len(report.cases) + len(report.fleet_violations)} -> {status}"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
