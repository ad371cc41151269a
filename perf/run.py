#!/usr/bin/env python3
"""The benchmark: host time and simulated time of four workloads.

    python3 perf/run.py                      # all four workloads
    python3 perf/run.py --trace              # ... plus the per-layer table
    python3 perf/run.py --workload tpch_het_sf8 --seed 3 --seconds 15 --trace 0

Every workload runs in a fresh subprocess with a scrubbed environment,
through the public API only; every result is checked against a
reference; every metric is printed by name with its unit and written to
``--out``.  With ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that BENCHMARK.json declares.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

#: settings of the program that would change what is measured
SCRUBBED = (
    "REPRO_FUSION", "REPRO_MORSEL", "REPRO_COMPRESSION", "REPRO_TRACE",
    "REPRO_CHAOS_SEED", "REPRO_BENCH_JSON",
)
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11,
                        help="drives literal variants and staging data")
    parser.add_argument("--seconds", type=float,
                        help="host seconds each measured loop runs "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: SF 0.1, two passes, one set-up")
    parser.add_argument("--out", type=Path, default=PERF / "out/result.json")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the workload's subprocess ------------------------------------------------

def child(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: host.import_s
    import_s = time.perf_counter() - started

    from yardstick import calibrate, measure, spans, workloads

    workload = workloads.make(args.workload, args.seed, args.quick)
    warm = measure.LoadGenerator()
    calibrator = calibrate.Calibrator()
    units = [calibrator.unit() for _ in range(measure.CALIBRATION_WINDOW)]
    started = time.perf_counter()
    workload.set_up(warm)
    setup_s = time.perf_counter() - started
    units += [calibrator.unit() for _ in range(measure.CALIBRATION_WINDOW)]
    setup_s *= measure.reference_speed(units)
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    fixed = workload.spec.fixed_passes
    exact = None
    if args.quick:
        fixed = exact = workloads.QUICK_PASSES
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = measure.run_phase(
        workload, measure.LoadGenerator(calibrator), seconds, 0, fixed, exact
    )
    gen = phase.gen
    out = {
        "inputs_digest": workload.inputs_digest(),
        "skipped_statements": len(workload.skipped),
        "passes": phase.passes,
        "samples": gen.attempted,
        "attempted": gen.attempted,
        "failed": gen.failed,
        "warm_failed": warm.failed,
        "errors": warm.errors + gen.errors,
        "end_to_end": measure.end_to_end(phase, fixed, setup_s),
        "per_layer": measure.untraced_layers(phase, import_s),
    }
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        traced = measure.run_phase(
            workload, measure.LoadGenerator(calibrator, recorder), seconds,
            phase.passes, 1, exact,
        )
        reduced = recorder.reduce()
        out["per_layer"].update(
            measure.traced_layers(traced, reduced, phase)
        )
        out["traced"] = {
            "passes": traced.passes,
            "attempted": traced.gen.attempted,
            "failed": traced.gen.failed,
            "raw_op_ms": traced.gen.raw_busy * 1e3 / traced.gen.attempted,
            "spans": len(recorder.start),
            "calls": reduced[1],
            "spans_written": recorder.write_chrome_trace(args.trace_file),
            "file": str(args.trace_file),
        }
        out["failed"] += traced.gen.failed
        out["attempted"] += traced.gen.attempted
        out["errors"] += traced.gen.errors
    workload.close()
    print(json.dumps(out))


# -- the parent: one subprocess per set-up and per workload -------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    # set and dict order of strings must not differ between two runs
    env["PYTHONHASHSEED"] = "0"
    inherited = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )
    return env


def run_child(mode: str, name: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(PERF / "run.py"), "--child", mode,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-file", str(args.out.parent / f"trace_{name}.json"),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"perf/run.py: {mode} of {name} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> dict:
    from yardstick.workloads import SPECS

    repeats = 1 if args.trace or args.quick else SPECS[name].setup_repeats
    setups = [
        run_child("setup", name, args)["setup_s"] for _ in range(repeats - 1)
    ]
    out = run_child("measure", name, args)
    setups.append(out["end_to_end"]["setup_s"])
    out["end_to_end"]["setup_s"] = statistics.median(setups)
    out["setup_samples_s"] = setups
    out["correct"] = out["failed"] == 0 and out["warm_failed"] == 0
    return out


def header(args: argparse.Namespace) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def print_workload(name: str, out: dict, declared: dict) -> None:
    traced = out.get("traced")
    passes = f"{out['passes']} passes" + (
        f" + {traced['passes']} traced" if traced else ""
    )
    print(f"== {name}: {passes}, {out['attempted']} ops, "
          f"{out['failed']} failed, failed_frac "
          f"{out['failed'] / out['attempted']:.4f}, "
          f"{out['skipped_statements']} empty-result texts left out ==")
    for error in out["errors"]:
        print(f"   ! {error}")
    for group in ("end_to_end", "per_layer"):
        for metric, value in out[group].items():
            unit = declared[group][metric]["unit"]
            note = ""
            if metric.startswith("op_wall_ms_p"):
                note = f"   (n={out['samples']})"
            elif metric == "setup_s":
                note = f"   (median of {len(out['setup_samples_s'])})"
            print(f"  {metric:<46} {value:>14.6g} {unit}{note}")
    if traced:
        print(f"  traced: {traced['attempted']} ops, {traced['spans']} spans, "
              f"first {traced['spans_written']} in {traced['file']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        child(args)
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro").is_dir():
        sys.exit(f"perf/run.py: nothing to measure, {SRC / 'repro'} is missing")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    declared = {
        group: {metric["name"]: metric for metric in bench[group]}
        for group in ("end_to_end", "per_layer")
    }
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        if args.workload not in names:
            sys.exit(f"perf/run.py: unknown workload {args.workload!r}; "
                     f"BENCHMARK.json lists {names}")
        names = [args.workload]

    args.out.parent.mkdir(parents=True, exist_ok=True)
    report = {"header": header(args), "workloads": {}}
    for name in names:
        out = report["workloads"][name] = run_workload(name, args)
        for group, known in declared.items():
            unknown = set(out[group]) - set(known)
            if unknown:
                sys.exit(f"perf/run.py: {name} emits metrics BENCHMARK.json "
                         f"does not declare: {sorted(unknown)}")
        print_workload(name, out, declared)
    args.out.write_text(json.dumps(report, indent=1))
    print(f"wrote {args.out}")

    correct = all(out["correct"] for out in report["workloads"].values())
    if args.workload:
        out = report["workloads"][args.workload]
        group = "per_layer" if args.trace else "end_to_end"
        missing = set(declared[group]) - set(out[group])
        if missing:
            sys.exit(f"perf/run.py: {args.workload} lacks declared "
                     f"{group} metrics: {sorted(missing)}")
        print(json.dumps({
            "correct": correct,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {
                metric: {"value": out[group][metric], "unit": spec["unit"]}
                for metric, spec in declared[group].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
