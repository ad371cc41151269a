#!/usr/bin/env python3
"""Compare two result files of perf/run.py, workload by workload.

    python3 perf/compare.py A.json B.json

One row per end-to-end metric: both values, B as a multiple of A (the
base), the bound BENCHMARK.json fixes, and a verdict — ``ok``, ``worse``
(B is worse than A by more than the bound) or ``unresolved`` (the host
times cannot be compared: ``host.wall_over_cpu`` above 1.1 on either side
says neighbours disturbed the run, or ``sim_ms_per_pass`` differs, so the
two sides did different simulated work).  Exits 1 if any row is
``worse``, 2 if the files were not made with the same inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: above this the run was short of CPU for part of its wall time
DISTURBED_WALL_OVER_CPU = 1.1
SAME_INPUTS = ("seed", "seconds", "quick")


def verdict(metric: dict, a: float, b: float) -> str:
    slack = metric["bound"] * abs(a)
    if metric["better"] == "lower":
        return "worse" if b > a + slack else "ok"
    return "worse" if b < a - slack else "ok"


def compare_workload(a: dict, b: dict, metrics: list) -> list:
    """Rows ``(metric, a, b, bound, verdict)`` for one workload."""
    disturbed = any(
        side["per_layer"]["host.wall_over_cpu"] > DISTURBED_WALL_OVER_CPU
        for side in (a, b)
    )
    same_work = (a["end_to_end"]["sim_ms_per_pass"]
                 == b["end_to_end"]["sim_ms_per_pass"])
    rows = []
    for metric in metrics:
        key = metric["name"]
        left, right = a["end_to_end"][key], b["end_to_end"][key]
        result = verdict(metric, left, right)
        if key != "sim_ms_per_pass" and (disturbed or not same_work):
            result = "unresolved"
        rows.append((key, left, right, metric["bound"], result))
    failed = [side["failed"] / side["attempted"] for side in (a, b)]
    rows.append(("failed_frac", *failed, 0.0,
                 "worse" if failed[1] > failed[0] else "ok"))
    return rows


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    for key in SAME_INPUTS:
        if a["header"][key] != b["header"][key]:
            print(f"perf/compare.py: {key} differs "
                  f"({a['header'][key]} vs {b['header'][key]}); the two "
                  f"files do not measure the same inputs")
            return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"A = {paths[0]}  (commit {a['header']['commit'][:12]})")
    print(f"B = {paths[1]}  (commit {b['header']['commit'][:12]})")
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"== {name} (seed {a['header']['seed']}) ==")
        print(f"  {'metric':<20} {'A':>14} {'B':>14} {'B / A':>12} "
              f"{'bound':>7}  verdict")
        for key, left, right, bound, result in compare_workload(
            a["workloads"][name], b["workloads"][name], metrics
        ):
            ratio = f"{right / left:.4f} x A" if left else "-"
            print(f"  {key:<20} {left:>14.6g} {right:>14.6g} {ratio:>12} "
                  f"{bound:>7.1%}  {result}")
            worse += result == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
