"""The four workloads: what each sets up, and the public API calls one
pass of it issues through the load generator.

Only the public API is used — ``repro.tpch_database``,
``Database.connect/create_table/drop_table/declare_shard_key``,
``Connection.execute/submit/explain/metrics`` and ``QueryFuture.result``.
The TPC-H instance is the generator's default (``seed=7``) at every
``--seed``: the workload seed drives the statement texts and the staging
data, and the program sees only those.
"""

from __future__ import annotations

import functools
import re
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .oracle import same_columns, self_test

#: statements kept in flight by the ``serve`` style
IN_FLIGHT = 4

#: the ``serve`` style moves every ``DATE 'YYYY-`` literal by this many
#: years, one shift per template per pass; three consecutive passes use
#: each shift once, so every whole cycle executes the same set of texts
YEAR_SHIFTS = (-1, 0, 1)


@dataclass(frozen=True)
class Spec:
    """One workload; BENCHMARK.json and perf/README.md say why it is in
    the benchmark."""

    name: str
    sf: float
    engine: str
    #: ``serve`` (submit/result, four in flight), ``sync`` (execute) or
    #: ``churn`` (create_table / explain x14 / query / drop_table)
    style: str
    #: passes every run measures; ``sim_ms_per_pass`` and ``peak_rss_mb``
    #: are taken over exactly these, so they do not depend on how many
    #: more passes the time box allows
    fixed_passes: int
    #: set-ups per untraced run (one per fresh process; median reported)
    setup_repeats: int
    shard_keys: tuple = ()


SPECS = {
    spec.name: spec for spec in (
        Spec("serve_het_sf1", 1.0, "HET:admission=4", "serve", 3, 3),
        Spec("tpch_het_sf8", 8.0, "HET", "sync", 3, 2),
        Spec("tpch_shard4_sf1", 1.0, "SHARD:4xCPU", "sync", 3, 3,
             shard_keys=(("lineitem", "l_orderkey"),
                         ("orders", "o_orderkey"))),
        Spec("ddl_compile_churn", 0.1, "SHARD:2xCPU", "churn", 30, 3),
    )
}

#: ``--quick``: the smoke test's size (two passes, SF 0.1, small staging)
QUICK_SF = 0.1
QUICK_PASSES = 2


def _shift_years(sql: str, years: int) -> str:
    return re.sub(
        r"DATE '(\d{4})-",
        lambda match: "DATE '%04d-" % (int(match.group(1)) + years),
        sql,
    )


class TpchWorkload:
    """The 14 TPC-H queries per pass.  For the ``serve`` style the seed
    picks each template's literal variant (as TPC-H's qgen substitutes
    parameters).  The ``sync`` style runs the fixed texts in the fixed
    cycle Q1 … Q21, Q1 …, and the seed picks where the run enters it: a
    statement's host time depends on its predecessor (what it left in
    the device caches) and on its literals, and either kind of variety
    inside one op type puts the pooled p90 of a synchronous pass — which
    sits just below Q21, alone four times slower than the rest — on a
    jump between types."""

    def __init__(self, spec: Spec, seed: int, quick: bool):
        self.spec = spec
        self.seed = seed
        self.sf = QUICK_SF if quick else spec.sf

    # -- inputs -------------------------------------------------------------

    def pass_statements(self, index: int) -> "list[tuple[str, str]]":
        """``(query id, SQL text)`` of pass ``index``, a function of the
        seed alone."""
        from repro.tpch import WORKLOAD

        if self.spec.style == "sync":
            cycle = list(WORKLOAD.items())
            start = int(np.random.default_rng(self.seed).integers(len(cycle)))
            return cycle[start:] + cycle[:start]
        cycle, slot = divmod(index, len(YEAR_SHIFTS))
        rng = np.random.default_rng([self.seed, cycle])
        return [
            (qid, _shift_years(sql, int(rng.permutation(YEAR_SHIFTS)[slot])))
            for qid, sql in WORKLOAD.items()
        ]

    def inputs_digest(self) -> int:
        """Checksum of the texts of the passes every run measures."""
        digest = 0
        for index in range(self.spec.fixed_passes):
            for _qid, text in self.pass_statements(index):
                digest = zlib.crc32(text.encode(), digest)
        return digest

    # -- set-up -------------------------------------------------------------

    def set_up(self, warm_gen) -> None:
        import repro
        from repro.tpch import WORKLOAD

        self.db = repro.tpch_database(sf=self.sf)
        for table, column in self.spec.shard_keys:
            self.db.declare_shard_key(table, column)
        reference = self.db.connect("MS")
        # one cycle of passes holds every distinct text of the workload
        self.expected: dict[str, dict] = {}
        for index in range(len(YEAR_SHIFTS)):
            for qid, text in self.pass_statements(index):
                if text not in self.expected:
                    self.expected[text] = reference.execute(
                        text, name=qid
                    ).columns
        # a statement whose reference answer has no rows is left out: at
        # the parent commit HET returns one garbage row for an empty
        # grouped result (Q7/Q8/Q21 at SF <= 0.5; none at SF 1 and 8), and
        # a workload must hold no op that fails (see perf/README.md)
        self.skipped = sorted(
            text for text, columns in self.expected.items()
            if not len(next(iter(columns.values())))
        )
        for text in self.skipped:
            del self.expected[text]
        self_test(next(iter(self.expected.values())))
        self.con = self.db.connect(self.spec.engine)
        self._issue(list(WORKLOAD.items()), warm_gen)

    def close(self) -> None:
        self.db.close()

    # -- one pass -----------------------------------------------------------

    def run_pass(self, index: int, gen) -> None:
        self._issue(self.pass_statements(index), gen)

    def _issue(self, statements, gen) -> None:
        statements = [pair for pair in statements if pair[1] in self.expected]
        if self.spec.style == "serve":
            self._serve(statements, gen)
            return
        for qid, text in statements:
            gen.op(qid, self.con.execute, text, name=qid,
                   check=self._checker(text))

    def _checker(self, text: str):
        expected = self.expected[text]
        return lambda result: same_columns(result.columns, expected)

    def _serve(self, statements, gen) -> None:
        """Keep ``IN_FLIGHT`` statements submitted; one op is one
        statement, from its ``submit()`` to the return of its
        ``result()``, on the generator's busy clock."""
        window: deque = deque()
        for qid, text in statements:
            if len(window) == IN_FLIGHT:
                gen.finish(*window.popleft())
            pending = gen.begin(qid, self.con.submit, text, name=qid)
            window.append((pending, self._checker(text)))
        while window:
            gen.finish(*window.popleft())


#: rows of the staging table the churn workload creates and drops
STAGING_ROWS = 200_000
QUICK_STAGING_ROWS = 20_000
#: distinct staging data sets, made in set-up and used round-robin
STAGING_POOL = 4

STAGING_QUERY = (
    "SELECT s_key, sum(s_val) AS total, count(*) AS n FROM staging "
    "WHERE s_flag = 1 GROUP BY s_key ORDER BY s_key"
)


def _staging_columns(seed: int, member: int, rows: int) -> dict:
    """Low-cardinality int, sorted date, sorted flag, float — one column
    per codec decision ``create_table`` has to make."""
    rng = np.random.default_rng([seed, member])
    return {
        "s_key": rng.integers(0, 16, rows).astype(np.int32),
        "s_date": np.sort(rng.integers(19920101, 19981231, rows))
        .astype(np.int32),
        "s_flag": np.sort(rng.integers(0, 3, rows)).astype(np.int32),
        "s_val": rng.uniform(0.0, 1000.0, rows).astype(np.float32),
    }


def _staging_answer(columns: dict) -> dict:
    """The staging query's result, computed with numpy in float64."""
    keep = columns["s_flag"] == 1
    keys, inverse = np.unique(columns["s_key"][keep], return_inverse=True)
    values = columns["s_val"][keep].astype(np.float64)
    return {
        "s_key": keys,
        "total": np.bincount(inverse, weights=values, minlength=keys.size),
        "n": np.bincount(inverse, minlength=keys.size),
    }


class ChurnWorkload:
    """create_table → explain x14 (cold) → one query → drop_table."""

    def __init__(self, spec: Spec, seed: int, quick: bool):
        self.spec = spec
        self.seed = seed
        self.rows = QUICK_STAGING_ROWS if quick else STAGING_ROWS
        self.skipped: list = []

    @functools.cached_property
    def pool(self) -> "list[dict]":
        return [
            _staging_columns(self.seed, member, self.rows)
            for member in range(STAGING_POOL)
        ]

    def inputs_digest(self) -> int:
        """Checksum of the staging data sets."""
        digest = 0
        for columns in self.pool:
            for values in columns.values():
                digest = zlib.crc32(values.tobytes(), digest)
        return digest

    def set_up(self, _warm_gen) -> None:
        import repro
        from repro.tpch import WORKLOAD

        self.queries = WORKLOAD
        self.db = repro.tpch_database(sf=self.spec.sf)
        self.con = self.db.connect(self.spec.engine)
        self.answers = [_staging_answer(columns) for columns in self.pool]
        self_test(self.answers[0])
        # the warm iteration's plans are the reference for every later
        # cold compile of the same text: compilation is deterministic
        self.plans: dict[str, str] = {}
        self.db.create_table("staging", self.pool[0])
        for qid, sql in self.queries.items():
            self.plans[qid] = self.con.explain(sql, name=qid)
        self.con.execute(STAGING_QUERY, name="staging")
        self.db.drop_table("staging")

    def close(self) -> None:
        self.db.close()

    def run_pass(self, index: int, gen) -> None:
        member = index % STAGING_POOL
        answer = self.answers[member]
        gen.op("create_table", self.db.create_table, "staging",
               self.pool[member])
        for qid, sql in self.queries.items():
            plan = self.plans[qid]
            gen.op("explain", self.con.explain, sql, name=qid,
                   check=lambda text, plan=plan: text == plan)
        gen.op("staging_query", self.con.execute, STAGING_QUERY,
               name="staging",
               check=lambda result: same_columns(result.columns, answer))
        gen.op("drop_table", self.db.drop_table, "staging")


def make(name: str, seed: int, quick: bool):
    spec = SPECS[name]
    cls = ChurnWorkload if spec.style == "churn" else TpchWorkload
    return cls(spec, seed, quick)
