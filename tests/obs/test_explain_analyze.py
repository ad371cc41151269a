"""EXPLAIN ANALYZE: the per-operator profile, its reconciliation with
the query's wall time, and the observed-at-runtime encodings that the
static ``explain()`` catalog view cannot see (the PR-9 bugfix)."""

import os

import pytest

from repro import tpch

Q1 = tpch.WORKLOAD["Q1"]
Q6 = tpch.WORKLOAD["Q6"]


def _storage_forced_plain() -> bool:
    return os.environ.get("REPRO_COMPRESSION", "").strip().lower() in (
        "off", "0", "false", "no"
    )


class TestAnalyzeExecution:
    def test_analyze_forces_a_trace(self, tpch_db):
        con = tpch_db.connect("HET")
        plain = con.execute(Q6)
        assert plain.trace is None
        analyzed = con.execute(Q6, analyze=True)
        assert analyzed.trace is not None
        assert analyzed.trace.wall_s == pytest.approx(analyzed.elapsed)

    def test_q1_profile_on_het(self, tpch_db, assert_results_equal):
        con = tpch_db.connect("HET")
        baseline = con.execute(Q1)
        result = con.execute(Q1, analyze=True)
        assert_results_equal(baseline, result)
        profile = result.trace.profile()
        operators = profile["operators"]
        assert operators, "no instruction spans recorded"
        # per-operator times reconcile with the wall time
        total_s = sum(row["seconds"] for row in operators.values())
        assert 0 < total_s <= profile["wall_s"] * (1 + 1e-9)
        # rows/bytes/launches populated, devices observed
        assert any(row["rows"] > 0 for row in operators.values())
        assert any(row["bytes"] > 0 for row in operators.values())
        assert all(row["launches"] >= row["calls"] >= 1
                   for row in operators.values())
        devices = {d for row in operators.values() for d in row["devices"]}
        assert devices & {"CPU", "GPU"}

    def test_render_profile_shape(self, tpch_db):
        from repro.obs import render_profile

        con = tpch_db.connect("HET")
        result = con.execute(Q1, analyze=True)
        text = render_profile(result.trace)
        lines = text.splitlines()
        assert lines[0].startswith("# EXPLAIN ANALYZE engine=HET wall=")
        assert lines[1].split()[:3] == ["operator", "calls", "time_ms"]
        assert any(line.startswith("# operators ") and "ms wall" in line
                   for line in lines)

    def test_chrome_export_of_a_real_query(self, tpch_db, tmp_path):
        import json

        con = tpch_db.connect("SHARD:2xCPU")
        result = con.execute(Q6, analyze=True)
        path = tmp_path / "q6.json"
        doc = result.trace.export_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        lanes = {e["args"]["name"] for e in loaded["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"shard0", "shard1"} <= lanes
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestExplainAnalyzeText:
    def test_plan_text_plus_profile(self, tpch_db):
        con = tpch_db.connect("MS")
        text = con.explain(Q6, analyze=True)
        assert "function user.query" in text
        assert "# EXPLAIN ANALYZE engine=MS" in text
        assert "# plan cache:" in text

    def test_plain_explain_is_unchanged(self, tpch_db):
        con = tpch_db.connect("MS")
        text = con.explain(Q6)
        assert "EXPLAIN ANALYZE" not in text

    @pytest.mark.skipif(
        _storage_forced_plain(),
        reason="REPRO_COMPRESSION=off forces plain storage",
    )
    def test_observed_encodings_report_per_shard_truth(self, tpch_db):
        """The bugfix: plain ``explain()`` renders the *driver*
        catalog's encodings; the analyze path reports what each shard
        actually read, which is the runtime truth on partitioned
        tables (every shard catalog re-encodes its own partition)."""
        from repro.obs.profile import observed_encodings

        con = tpch_db.connect("SHARD:2xMS")
        result = con.execute(Q6, analyze=True)
        observed = observed_encodings(result.trace)
        assert observed, "no bind spans carried encodings"
        partitioned = [codes for codes in observed.values()
                       if codes.startswith("shard0:")]
        assert partitioned, "no partitioned column observed"
        assert all("shard1:" in codes for codes in partitioned)
        text = con.explain(Q6, analyze=True)
        assert "# encodings (observed):" in text

    def test_plan_cache_hit_miss_note(self, tpch_db):
        con = tpch_db.connect("MS")
        first = con.execute(Q6, analyze=True)
        again = con.execute(Q6, analyze=True)
        [lookup] = [e for e in first.trace.events
                    if e["name"] == "plan_cache.lookup"]
        assert lookup["args"]["hit"] is False
        [lookup] = [e for e in again.trace.events
                    if e["name"] == "plan_cache.lookup"]
        assert lookup["args"]["hit"] is True

    def test_interconnect_note_on_shard(self, tpch_db):
        from repro.obs import render_profile

        con = tpch_db.connect("SHARD:2xMS")
        result = con.execute(Q1, analyze=True)
        text = render_profile(result.trace)
        assert "# interconnect:" in text
        # the events agree with the per-query traffic counters
        nominal = sum(e["args"]["bytes"] for e in result.trace.events
                      if e["cat"] == "interconnect")
        snap = con.metrics.snapshot()
        assert nominal == sum(
            snap[f"interconnect.query.bytes_{kind}"]
            for kind in ("broadcast", "shuffled", "gathered")
        )
