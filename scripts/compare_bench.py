#!/usr/bin/env python
"""CI bench-trend gate: diff fresh ``BENCH_*.json`` against baselines.

Compares every committed baseline artifact with a freshly produced one
(typically a ``BENCH_SMOKE=1`` run on the PR critical path, or a full
nightly run) and

* **fails** when a baseline artifact has no fresh counterpart (the
  bench rotted or crashed — a crashed bench writes no artifact);
* **fails on parity/outcome regressions**: any boolean that is ``true``
  in the baseline under a parity-ish key (one containing ``parity``,
  ``equal`` or ``identical``, e.g. ``outcome_parity``,
  ``outcomes_equal``) must still be present and ``true`` in the fresh
  artifact;
* **fails on enforced-SLO violations**: any fresh-artifact section
  that declares ``"gate_enforced": true`` (e.g. the latency-SLO
  section of ``bench_gateway.py``) must have every other boolean in
  that section ``true`` — smoke runs write ``gate_enforced: false``
  and are exempt;
* **fails on lost pipeline stages**: every dataflow node named in a
  baseline artifact's ``nodes.nodes`` section (the per-stage metrics
  ``bench_fleet.py`` rolls up from the fleet pipeline graph) must still
  appear in the fresh artifact — a stage disappearing means the graph
  lost instrumentation coverage;
* posts a **speedup-trend table** (every ``speedup`` leaf, baseline vs
  fresh) and a **per-node stage-timing table** (busy seconds and mean
  tick latency per pipeline node) to ``$GITHUB_STEP_SUMMARY`` —
  informational only: smoke runs use reduced sizes, so absolute
  timings differ from the committed full-run baselines by design.

Usage::

    python scripts/compare_bench.py --baseline-dir bench-baselines \\
        --fresh-dir . [--summary "$GITHUB_STEP_SUMMARY"]

(CI copies the committed artifacts aside *before* running the smoke
benchmarks, which overwrite them in place.)  Exits non-zero listing
each regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

PARITY_KEY_MARKERS = ("parity", "equal", "identical")


def is_parity_key(key: str) -> bool:
    """True for keys that assert correctness rather than speed."""
    lowered = key.lower()
    return any(marker in lowered for marker in PARITY_KEY_MARKERS)


def walk_leaves(node, path=()):
    """Yield ``(dotted_path_tuple, value)`` for every non-dict leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk_leaves(value, path + (str(key),))
    else:
        yield path, node


def parity_leaves(artifact: dict) -> dict[str, bool]:
    """All boolean parity-ish leaves of *artifact*, keyed by dotted path."""
    return {
        ".".join(path): value
        for path, value in walk_leaves(artifact)
        if isinstance(value, bool) and path and is_parity_key(path[-1])
    }


def speedup_leaves(artifact: dict) -> dict[str, float]:
    """All numeric ``speedup`` leaves of *artifact*, keyed by dotted path."""
    return {
        ".".join(path): float(value)
        for path, value in walk_leaves(artifact)
        if path and path[-1] == "speedup" and isinstance(value, (int, float))
    }


def slo_violations(artifact: dict, path=()) -> list[str]:
    """SLO sections the *fresh* artifact failed to honour.

    A section (any nested dict) that declares ``"gate_enforced": true``
    promises every other boolean in it — ``p99_within_slo``,
    ``no_shedding``, … — is an enforced gate for this run.  Smoke runs
    write ``gate_enforced: false`` and are exempt; the booleans stay
    informational there.
    """
    violations = []
    if not isinstance(artifact, dict):
        return violations
    if artifact.get("gate_enforced") is True:
        for key, value in artifact.items():
            if key != "gate_enforced" and value is False:
                violations.append(
                    ".".join(path + (key,)) if path else key
                )
    for key, value in artifact.items():
        violations.extend(slo_violations(value, path + (str(key),)))
    return violations


def node_metrics(artifact: dict) -> dict[str, dict]:
    """The per-node stage metrics of *artifact* (empty when absent)."""
    nodes = artifact.get("nodes")
    if not isinstance(nodes, dict):
        return {}
    inner = nodes.get("nodes")
    return inner if isinstance(inner, dict) else {}


def compare_artifact(name: str, baseline: dict, fresh: dict) -> list[str]:
    """Regressions (as human-readable strings) between two artifacts."""
    regressions = []
    fresh_parity = parity_leaves(fresh)
    for path, value in parity_leaves(baseline).items():
        if not value:
            continue  # baseline never asserted it; nothing to regress
        if path not in fresh_parity:
            regressions.append(
                f"{name}: parity field '{path}' is true in the baseline but "
                f"missing from the fresh artifact"
            )
        elif fresh_parity[path] is not True:
            regressions.append(
                f"{name}: parity regression — '{path}' was true in the "
                f"baseline, got {fresh_parity[path]!r}"
            )
    fresh_nodes = node_metrics(fresh)
    for node_name in node_metrics(baseline):
        if node_name not in fresh_nodes:
            regressions.append(
                f"{name}: pipeline node '{node_name}' has baseline metrics "
                f"but is missing from the fresh artifact (stage coverage lost)"
            )
    for violation in slo_violations(fresh):
        regressions.append(
            f"{name}: SLO violation — '{violation}' is false in a section "
            f"the fresh run enforces (gate_enforced: true)"
        )
    return regressions


def trend_table(results: list[tuple[str, dict, dict]]) -> str:
    """Markdown speedup-trend table over all compared artifacts."""
    rows = []
    for name, baseline, fresh in results:
        base_speedups = speedup_leaves(baseline)
        fresh_speedups = speedup_leaves(fresh)
        for path, value in sorted(base_speedups.items()):
            fresh_value = fresh_speedups.get(path)
            shown = "—" if fresh_value is None else f"{fresh_value:.2f}x"
            rows.append(f"| {name} | {path} | {value:.2f}x | {shown} |")
        for path, fresh_value in sorted(fresh_speedups.items()):
            if path not in base_speedups:
                rows.append(f"| {name} | {path} | — | {fresh_value:.2f}x |")
    if not rows:
        return "No speedup fields found.\n"
    header = (
        "| artifact | metric | baseline (full run) | fresh |\n"
        "|---|---|---|---|\n"
    )
    note = (
        "\nFresh smoke runs use reduced sizes — the trend column is "
        "informational; parity fields are the gate.\n"
    )
    return header + "\n".join(rows) + "\n" + note


def node_table(results: list[tuple[str, dict, dict]]) -> str:
    """Markdown per-node stage-timing table (empty when no artifact
    carries pipeline node metrics)."""
    rows = []
    for name, baseline, fresh in results:
        base_nodes = node_metrics(baseline)
        fresh_nodes = node_metrics(fresh)
        for node_name in {**base_nodes, **fresh_nodes}:
            base = base_nodes.get(node_name)
            new = fresh_nodes.get(node_name)

            def cell(entry):
                if entry is None:
                    return "—"
                return (
                    f"{entry.get('busy_s', 0.0):.3f}s "
                    f"({entry.get('mean_tick_ms', 0.0):.2f} ms/tick)"
                )

            rows.append(f"| {name} | {node_name} | {cell(base)} | {cell(new)} |")
    if not rows:
        return ""
    header = (
        "\n### Pipeline node timings\n\n"
        "| artifact | node | baseline (full run) | fresh |\n"
        "|---|---|---|---|\n"
    )
    return header + "\n".join(rows) + "\n"


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=(
            Path(os.environ["GITHUB_STEP_SUMMARY"])
            if os.environ.get("GITHUB_STEP_SUMMARY")
            else None
        ),
        help="markdown file to append the trend table to "
        "(defaults to $GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"compare_bench: no BENCH_*.json baselines in {args.baseline_dir}")
        return 1

    regressions: list[str] = []
    compared: list[tuple[str, dict, dict]] = []
    for baseline_path in baselines:
        name = baseline_path.name
        fresh_path = args.fresh_dir / name
        if not fresh_path.exists():
            regressions.append(
                f"{name}: fresh artifact missing from {args.fresh_dir} "
                f"(bench crashed or was not run)"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        regressions.extend(compare_artifact(name, baseline, fresh))
        compared.append((name, baseline, fresh))

    table = trend_table(compared)
    summary = "## Bench trend\n\n" + table + node_table(compared)
    if regressions:
        summary += "\n### Regressions\n\n" + "".join(
            f"- ❌ {item}\n" for item in regressions
        )
    else:
        summary += (
            f"\nAll parity fields held across {len(compared)} artifact(s). ✅\n"
        )
    if args.summary is not None:
        with args.summary.open("a") as handle:
            handle.write(summary + "\n")
    print(summary)

    if regressions:
        print(f"compare_bench: {len(regressions)} regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
