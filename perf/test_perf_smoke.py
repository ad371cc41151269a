"""Smoke test of the benchmark itself (``perf/run.py --quick``).

Checks the contract later PRs are measured with: every metric
BENCHMARK.json declares is emitted, results are verified, simulated time
repeats exactly for one seed, the seed changes the inputs, every timing
wrapper fires where the workload's "why" says it should and stays silent
where it should be bypassed, and the layers' self times add up.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

from yardstick import oracle, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 11
HET = ("serve_het_sf1", "tpch_het_sf8")
SHARD = ("tpch_shard4_sf1", "ddl_compile_churn")
WARM = HET + ("tpch_shard4_sf1",)

#: span -> workloads whose measured loop must reach it
FIRES = {
    "api": HET + SHARD,
    "serve.plancache": HET + SHARD,
    "serve.scheduler": ("serve_het_sf1",),
    "serve.scheduler.step": ("serve_het_sf1",),
    "sql.parameterise": HET + SHARD,
    # fixed texts are served from the bound-plan LRU after the warm pass
    "sql.bind": ("serve_het_sf1", "ddl_compile_churn"),
    "monetdb.interpreter": HET + SHARD,
    "monetdb.interpreter.step": HET + SHARD,
    "monetdb.backends": HET + SHARD,
    "compress.ops": HET + SHARD,
    "fuse.pipe": WARM,
    "morsel.run": HET + SHARD,
    "ocelot.operators": HET + SHARD,
    "ocelot.launch": HET + SHARD,
    "ocelot.memory": HET + SHARD,
    "kernels.vec": HET + SHARD,
    "kernels.work_fn": HET + SHARD,
    "cl.enqueue": HET + SHARD,
    "cl.finish": HET + SHARD,
    "obs": HET + SHARD,
    "sched.dispatch": HET,
    "shard.fan": SHARD,
    "shard.collect": SHARD,
    # only DDL reaches these: the three warm workloads compile nothing
    "shard.partition": ("ddl_compile_churn",),
    "engines.plan": ("ddl_compile_churn",),
    "compress.pass": ("ddl_compile_churn",),
    "fuse.pass": ("ddl_compile_churn",),
    "ocelot.rewriter": ("ddl_compile_churn",),
    "morsel.pass": ("ddl_compile_churn",),
    "sql.compile": ("ddl_compile_churn",),
    "monetdb.storage": ("ddl_compile_churn",),
    "compress.encode": ("ddl_compile_churn",),
}
#: span prefix -> workloads that must bypass it entirely
SILENT = {"shard.": HET, "sched.": SHARD, "sql.compile": WARM}


def _start(tmp: Path, tag: str, *extra: str) -> "tuple":
    out = tmp / f"{tag}.json"
    process = subprocess.Popen(
        [sys.executable, str(PERF / "run.py"), "--quick", "--seed",
         str(SEED), "--out", str(out), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return process, out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One traced and one untraced quick run of all four workloads with
    the same seed, side by side."""
    tmp = tmp_path_factory.mktemp("perf")
    started = [_start(tmp, "traced", "--trace"), _start(tmp, "plain")]
    reports = []
    for process, out in started:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout[-2000:] + stderr[-2000:]
        reports.append(json.loads(out.read_text()))
    return reports


def test_every_declared_metric_is_emitted_and_well_named(runs):
    traced, plain = runs
    names = re.compile(r"[A-Za-z0-9_.-]+")
    for group in ("end_to_end", "per_layer"):
        declared = {metric["name"] for metric in BENCH[group]}
        assert all(names.fullmatch(name) for name in declared)
        for name, out in traced["workloads"].items():
            assert set(out[group]) == declared, (name, group)
    for out in plain["workloads"].values():
        assert set(out["end_to_end"]) == {
            metric["name"] for metric in BENCH["end_to_end"]
        }
    assert list(traced["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    assert BENCH["paths"] == ["perf"]


def test_results_are_verified_and_none_fails(runs):
    for report in runs:
        for name, out in report["workloads"].items():
            assert out["attempted"] > 0, name
            assert out["failed"] == 0 and out["correct"], (name, out["errors"])
            for value in out["end_to_end"].values():
                assert value > 0, (name, out["end_to_end"])


def test_oracle_catches_a_corrupted_result(monkeypatch):
    import numpy as np

    columns = {"k": np.arange(4), "v": np.array([1.0, 2.0, np.nan, 4.0])}
    oracle.self_test(columns)
    assert oracle.same_columns(columns, columns)
    wrong = {**columns, "v": np.array([1.0, 2.0, np.nan, 4.01])}
    assert not oracle.same_columns(wrong, columns)
    # an oracle that accepted everything would fail the self-test that
    # every set-up runs
    monkeypatch.setattr(oracle, "same_columns", lambda got, expected: True)
    with pytest.raises(RuntimeError, match="corrupted"):
        oracle.self_test(columns)


def test_simulated_time_repeats_and_the_seed_changes_the_inputs(runs):
    traced, plain = runs
    for name, out in traced["workloads"].items():
        other = plain["workloads"][name]
        assert (out["end_to_end"]["sim_ms_per_pass"]
                == other["end_to_end"]["sim_ms_per_pass"]), name
        assert out["inputs_digest"] == other["inputs_digest"]
        same = workloads.make(name, SEED, quick=True).inputs_digest()
        different = workloads.make(name, SEED + 1, quick=True).inputs_digest()
        assert same == out["inputs_digest"] != different, name


def test_wrappers_fire_where_exercised_and_stay_silent_where_bypassed(runs):
    traced = runs[0]["workloads"]
    for span, names in FIRES.items():
        for name in names:
            assert traced[name]["traced"]["calls"][span] > 0, (span, name)
    for prefix, names in SILENT.items():
        for name in names:
            calls = traced[name]["traced"]["calls"]
            fired = {span: count for span, count in calls.items()
                     if span.startswith(prefix) and count}
            assert not fired, (name, fired)


def test_layer_self_times_reconcile_with_traced_op_time(runs):
    for name, out in runs[0]["workloads"].items():
        layers = out["per_layer"]
        self_ms = sum(value for metric, value in layers.items()
                      if metric.endswith(".self_ms_per_op"))
        # spans are raw host time, so they reconcile with the raw op time
        attributed = (self_ms / out["traced"]["raw_op_ms"]
                      + layers["host.unattributed_frac"])
        assert attributed == pytest.approx(1.0, abs=0.02), name


def test_compare_reads_two_runs_of_one_seed(runs, tmp_path):
    paths = []
    for tag, report in zip("AB", runs):
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(report))
    done = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), *map(str, paths)],
        capture_output=True, text=True,
    )
    # quick runs are too short for steady host times, so ``worse`` rows
    # (exit 1) are allowed; the deterministic rows must agree
    assert done.returncode in (0, 1), done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    sim = [row for row in rows if row and row[0] == "sim_ms_per_pass"]
    failed = [row for row in rows if row and row[0] == "failed_frac"]
    assert len(sim) == len(failed) == len(BENCH["workloads"])
    assert all(row[-1] == "ok" for row in sim + failed)
