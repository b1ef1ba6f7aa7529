"""Repository benchmark: two closed-loop workloads, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-negotiate --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the same inputs untraced, replays them with span
tracing on (``spans.py``) and reports the per-layer metrics, the tracing
overhead and the fleet wall time no named layer accounts for.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, with the host and every sample
count, is written under ``.perfbench/`` next to the traced spans.

``python3 perfbench/run.py --write-reference`` re-records the mission
transcript digests that the fleet workloads check (``reference.json``).
``LAYERS.md`` says why each workload exists and which end-to-end
metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("fleet-negotiate", "recognize-distinct")
#: The tail percentile reported.  Fleet ticks are bimodal — about 1% of
#: them render a frame — so p99 would sit on the boundary between the
#: modes and jump between them from seed to seed.
TAIL_PERCENTILE = 99.5
#: A traced fleet run fails when named layers account for less than
#: this share of its tick-loop wall time.
MIN_ATTRIBUTED_SHARE = 0.9


def percentile(samples: list[float], pct: float) -> float:
    """The *pct* percentile of *samples* (linear interpolation)."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_over_repeats(run, statistic) -> float:
    """The median of *statistic* over the run's repeats of its inputs."""
    return statistics.median(statistic(repeat) for repeat in run.repeats)


def end_to_end(run) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run."""
    return {
        "throughput_per_s": (median_over_repeats(run, lambda p: p.completed / p.wall_s), "1/s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def step_percentiles(run) -> dict[str, tuple[float, str]]:
    """Tick (or request) latency percentiles of an untraced run.

    Printed and recorded, but not part of the result line: from one
    run to the next on the 2-core host this was tuned on, they spread
    by 23–32% (quartile distance over median, ten seeds), more than the
    largest regression bound (25%) ``BENCHMARK.json`` may set.
    """
    return {
        "step_ms_p50": (median_over_repeats(run, lambda p: statistics.median(p.steps_s)) * 1e3, "ms"),
        "step_ms_p99.5": (
            median_over_repeats(run, lambda p: percentile(p.steps_s, TAIL_PERCENTILE)) * 1e3,
            "ms",
        ),
    }


def describe(workload: str, run, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines naming each metric as users know it."""
    fleet = workload != "recognize-distinct"
    unit, step = ("missions", "tick") if fleet else ("frames", "request")
    attempted = sum(p.attempted for p in run.passes)
    failed = sum(len(p.failures) for p in run.passes)
    first = run.repeats[0]
    steps = f"n={len(first.steps_s)} per repeat"
    lines = [
        f"{workload}: {len(run.repeats)} repeats of {first.completed} {unit} and "
        f"{len(first.steps_s)} {step}s, {run.measured_s:.2f} s measured",
        f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} {unit} failed)",
    ]
    if trace:
        width = max(len(name) for name in metrics)
        lines += [f"  {name:<{width}} {value:.6g} {unit_}" for name, (value, unit_) in metrics.items()]
        return lines
    rate = metrics["throughput_per_s"][0]
    lines += [
        f"  missions_per_min {60 * rate:.3f} 1/min" if fleet else f"  frames_per_s {rate:.3f} 1/s",
        f"  {step}_ms_p50 {metrics['step_ms_p50'][0]:.4f} ms ({steps})",
        f"  {step}_ms_p99.5 {metrics['step_ms_p99.5'][0]:.4f} ms ({steps})",
        f"  setup_s {metrics['setup_s'][0]:.4f} s (median of n={len(run.setup_s)})",
        f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true", help="re-record reference.json and exit"
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    # Deprecated call forms are slated for removal; the benchmark must
    # never depend on one.
    warnings.simplefilter("error", DeprecationWarning)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    if args.write_reference:
        workloads.write_reference()
        return 0
    trace = bool(args.trace)
    if args.workload == "recognize-distinct":
        run = workloads.run_recognize(args.seed, args.seconds, trace)
    else:
        run = workloads.run_fleet(args.seed, args.seconds, trace)
    failures = [failure for p in run.passes for failure in p.failures]
    correct = not failures
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        metrics = workloads.layer_metrics(run)
        share = metrics["bench.attributed_share"][0]
        if args.workload != "recognize-distinct" and share < MIN_ATTRIBUTED_SHARE:
            correct = False
            print(f"only {share:.1%} of fleet wall time is attributed to named layers")
        run.tracer.write(OUTPUT_DIR / f"spans-{stem}.npz")
        shown = metrics
    else:
        metrics = end_to_end(run)
        shown = {**metrics, **step_percentiles(run)}
    host = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()))
    print("\n".join(describe(args.workload, run, shown, trace)))
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in run.passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    detail = {
        **result,
        "shown": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host,
        "samples": {
            "repeats": len(run.repeats),
            "steps_per_repeat": [len(repeat.steps_s) for repeat in run.repeats],
            "setups": len(run.setup_s),
        },
        "failures": failures,
    }
    (OUTPUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
