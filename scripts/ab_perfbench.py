#!/usr/bin/env python
"""Decide a performance claim: alternating perfbench pairs, base against change.

Usage::

    python scripts/ab_perfbench.py --base HEAD~1 --workload fleet-negotiate \\
        --pairs 10 --seconds 20

The *change* is the tree this script lives in; the *base* is revision
``--base``, checked out into a temporary local ``git worktree`` that is
removed at exit.  Pair *i* (1-based) runs ``perfbench/run.py --seed i
--trace 0`` once on each tree; odd pairs run the base first, even pairs
the change, so a drift of the host over the session falls on both
sides.  Every run is a fresh ``perfbench/run.py`` process started from
this small one, so the ``peak_rss_mb`` it reports does not carry the
peak of a large launching process (Linux's ``ru_maxrss`` survives
``exec``).

No verdict is given unless every run reads ``correct: true`` with no
failed unit.  Then, for each end-to-end metric in ``BENCHMARK.json``,
the script prints the base median and interquartile range, the change
median, the median of the per-pair ratios oriented so that above 1
means the change is better, the pairs the change won, and the exact
two-sided sign-test p over the pairs that were not ties.  ``clears_iqr``
says whether the medians differ, in the better direction, by more than
the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of *values*
    (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p for *wins* against *losses* (ties
    already dropped): the chance of a split at least this uneven when
    either side wins each pair with probability 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Paired statistics of one metric; ``base[i]`` and ``change[i]``
    come from pair *i*.  ``better`` is ``"higher"`` or ``"lower"``."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    ratios = [
        (c / b if better == "higher" else b / c) for b, c in zip(base, change)
    ]
    wins = sum(ratio > 1.0 for ratio in ratios)
    losses = sum(ratio < 1.0 for ratio in ratios)
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    gain = change_median - base_median if better == "higher" else base_median - change_median
    return {
        "pairs": len(base),
        "base_median": base_median,
        "base_iqr": q3 - q1,
        "change_median": change_median,
        "median_ratio": statistics.median(ratios),
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "wins": wins,
        "losses": losses,
        "sign_p": sign_test_p(wins, losses),
        "clears_iqr": gain > q3 - q1,
    }


def refusals(runs: list[dict]) -> list[str]:
    """Why no verdict may be given on *runs*: every run must be
    ``correct`` with no failed unit."""
    problems = []
    for run in runs:
        result = run["result"]
        if result is None:
            problems.append(f"{run['label']}: no result line")
        elif not result.get("correct") or result.get("failed", 1) > 0:
            problems.append(
                f"{run['label']}: correct={result.get('correct')} "
                f"failed={result.get('failed')}"
            )
    return problems


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced perfbench run in *tree*; its result line, or ``None``."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    checkout = Path(tempfile.mkdtemp(prefix="ab-perfbench-")) / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(checkout), args.base],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    runs: list[dict] = []
    try:
        for pair in range(1, args.pairs + 1):
            order = [("base", checkout), ("change", ROOT)]
            if pair % 2 == 0:
                order.reverse()
            for side, tree in order:
                result = run_perfbench(tree, args.workload, pair, args.seconds)
                runs.append(
                    {"pair": pair, "side": side, "label": f"pair {pair} {side}", "result": result}
                )
                shown = {} if result is None else result["metrics"]
                print(
                    f"pair {pair} {side:6s} "
                    + " ".join(f"{m['name']}={shown.get(m['name'], {}).get('value')}" for m in metrics),
                    flush=True,
                )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(checkout)],
            cwd=ROOT,
            capture_output=True,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        checkout.parent.rmdir()

    problems = refusals(runs)
    if problems:
        print("no verdict:", *problems, sep="\n  ")
    else:
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side]
                for side in ("base", "change")
            }
            stats = compare(values["base"], values["change"], metric["better"])
            print(
                f"{name}: base median {stats['base_median']:.4g} (IQR {stats['base_iqr']:.4g}), "
                f"change median {stats['change_median']:.4g}, "
                f"median ratio {stats['median_ratio']:.3f} "
                f"({stats['min_ratio']:.3f}-{stats['max_ratio']:.3f}), "
                f"wins {stats['wins']}/{stats['pairs']}, sign p {stats['sign_p']:.4f}, "
                f"clears IQR {stats['clears_iqr']}"
            )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
