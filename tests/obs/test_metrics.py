"""The unified metrics registry: one dotted namespace over the plan
cache, interconnect, compression, memory-manager, breaker and
scheduler counters — a live facade over the legacy stat objects — plus
the slow-query log."""

import pytest

QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"


class TestSnapshot:
    def test_plan_cache_namespace_tracks_legacy_stats(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        con.execute(QUERY)
        snap = con.metrics.snapshot()
        stats = con.plan_cache.stats
        assert snap["plan_cache.hits"] == stats.hits >= 1
        assert snap["plan_cache.misses"] == stats.misses >= 1
        assert snap["plan_cache.invalidations"] == stats.invalidations

    def test_sections_absent_without_the_subsystem(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        snap = con.metrics.snapshot()
        assert not any(k.startswith("interconnect.") for k in snap)
        assert not any(k.startswith("mm.") for k in snap)

    def test_mm_namespace_on_ocelot(self, points_db):
        con = points_db.connect("CPU")
        con.execute(QUERY)
        snap = con.metrics.snapshot()
        assert snap["mm.intermediates_allocated"] >= 1
        assert snap["mm.intermediate_bytes_peak"] > 0
        manager = con.backend.engine.memory
        assert snap["mm.intermediates_allocated"] == (
            manager.stats.intermediates_allocated
        )

    def test_mm_sums_over_het_pool(self, points_db):
        con = points_db.connect("HET")
        con.execute(QUERY)
        managers = [engine.memory for engine in con.backend.pool.engines]
        assert len(managers) == 2
        snap = con.metrics.snapshot()
        assert snap["mm.intermediates_allocated"] == sum(
            m.stats.intermediates_allocated for m in managers
        )

    def test_interconnect_namespace_tracks_backend_traffic(self, points_db):
        con = points_db.connect("SHARD:2xMS")
        con.execute(QUERY)
        snap = con.metrics.snapshot()
        traffic = con.backend.traffic
        assert snap["interconnect.bytes_gathered"] == (
            traffic.total.bytes_gathered
        )
        assert snap["interconnect.bytes_total"] == traffic.total.bytes_total
        assert snap["interconnect.query.bytes_gathered"] == (
            traffic.query.bytes_gathered
        )
        assert snap["interconnect.bytes_total"] > 0

    def test_compress_namespace_tracks_catalog_stats(self, tpch_db):
        con = tpch_db.connect("MS")
        snap = con.metrics.snapshot()
        compression = tpch_db.catalog.compression
        assert snap["compress.columns_encoded"] == (
            compression.columns_encoded
        )
        assert snap["compress.bytes_physical"] == compression.bytes_physical

    def test_breaker_namespace(self, points_db):
        con = points_db.connect("SHARD:2xMS")
        con.execute(QUERY)
        con.backend.health.breaker(0)          # materialise one breaker
        snap = con.metrics.snapshot()
        assert snap["breaker.0.state"] == "closed"
        assert snap["breaker.0.trips"] == 0

    def test_scheduler_namespace(self, points_db):
        con = points_db.connect("MS")
        con.submit(QUERY)
        con.drain()
        snap = con.metrics.snapshot()
        assert snap["scheduler.turns"] >= 1
        assert snap["scheduler.parked"] == 0
        assert snap["scheduler.in_flight"] == 0


class TestDiff:
    def test_diff_drops_zero_deltas(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        before = con.metrics.snapshot()
        changed = con.metrics.diff(before)
        assert changed == {}

    def test_diff_shows_deltas(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        before = con.metrics.snapshot()
        con.execute(QUERY)
        changed = con.metrics.diff(before)
        assert changed["obs.queries"] == 1
        assert changed["plan_cache.hits"] == 1
        assert "plan_cache.misses" not in changed


class TestSlowQueryLog:
    def test_off_by_default(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        assert con.metrics.queries == 1
        assert con.metrics.slow_queries == []

    def test_threshold_logs_slow_queries(self, points_db):
        con = points_db.connect("MS:obs_slow_ms=0.000001")
        con.execute(QUERY, name="slowpoke")
        [entry] = con.metrics.slow_queries
        assert entry["name"] == "slowpoke"
        assert entry["engine"] == "MS:obs_slow_ms=0.000001"
        assert entry["elapsed_ms"] > 0
        snap = con.metrics.snapshot()
        assert snap["obs.slow_queries"] == 1

    def test_threshold_filters_fast_queries(self, points_db):
        con = points_db.connect("MS:obs_slow_ms=60000")
        con.execute(QUERY)
        assert con.metrics.queries == 1
        assert con.metrics.slow_queries == []

    def test_scheduler_path_records_too(self, points_db):
        con = points_db.connect("HET:obs_slow_ms=0.000001")
        con.submit(QUERY)
        con.submit(QUERY)
        con.drain()
        assert con.metrics.queries == 2
        assert len(con.metrics.slow_queries) == 2

    def test_bad_threshold_is_rejected(self, points_db):
        from repro.engines import EngineSpecError

        with pytest.raises(EngineSpecError):
            points_db.connect("MS:obs_slow_ms=banana")
