"""The operator table is the one declaration — and plans obey it.

``repro.monetdb.ops.OPS`` says, per operator function, its MonetDB
module, what its results hold, whether it has a device or a compressed
form and how its partials fold.  The implementations stay per backend;
the first half of this file holds their keys equal to the table's rows.
The second half is the first slice of ROADMAP item 1's plan verifier,
as a test: over the 588 ``(query, family, knob)`` cells the plan golden
compiles, every instruction — ``morsel.run`` members and the expression
trees of fused pipes included — names a row (or one of the few
structural instructions) with the row's argument and result counts, is
defined before use and assigned once, and no scalar result feeds an
operand that must be a BAT.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.compress.ops import register_compress_ops
from repro.fuse.expr import FConst, FIn, FOp, FSelect
from repro.monetdb import Catalog, MALBuilder
from repro.monetdb.backends import MonetDBSequential
from repro.monetdb.mal import Var
from repro.monetdb.ops import (
    COMPRESS_MODULE,
    DEVICE_MODULE,
    OPS,
    SCALAR,
    bat_results,
    lookup,
    operator_table_markdown,
)
from repro.ocelot.operators import HOST_CODE
from repro.ocelot.rewriter import rewrite_for_ocelot
from repro.tpch import WORKLOAD
from test_plan_golden import ENV_VARS, FAMILIES, SPECS

#: the instructions around the operators (``sql.resultSet`` is the
#: program's ``result_columns``, never an instruction)
STRUCTURAL = {"sql.bind", "ocelot.sync", "fuse.pipe", "ocelot.pipe",
              "morsel.run", "calc.add", "calc.sub", "calc.mul", "calc.div"}


# -- the implementations name exactly the rows --------------------------------

def forms(row) -> set:
    out = {row.op}
    if row.device:
        out.add(f"{DEVICE_MODULE}.{row.function}")
    if row.compressed:
        out.add(f"{COMPRESS_MODULE}.{row.function}")
    return out


ALL_FORMS = set().union(*(forms(row) for row in OPS.values()))


def test_host_code_is_the_device_rows():
    device = {row.function for row in OPS.values() if row.device}
    assert set(HOST_CODE) == device | {"pipe", "sync"}


def test_monetdb_registers_every_row_and_every_compressed_form():
    registered = set(MonetDBSequential(Catalog()).supported_ops())
    monetdb = {row.op for row in OPS.values()}
    compressed = {f"{COMPRESS_MODULE}.{row.function}"
                  for row in OPS.values() if row.compressed}
    assert registered - STRUCTURAL == monetdb | compressed
    assert registered & STRUCTURAL == STRUCTURAL - {
        "ocelot.sync", "ocelot.pipe", "morsel.run"}


def test_register_compress_ops_is_the_compressed_rows():
    class Recorder:
        def __init__(self):
            self.ops = set()

        def register(self, op, fn):
            self.ops.add(op)

    recorder = Recorder()
    register_compress_ops(recorder)
    assert recorder.ops == {f"{COMPRESS_MODULE}.{row.function}"
                            for row in OPS.values() if row.compressed}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_backend_registry_is_within_the_table(family):
    with repro.Database() as db:
        registered = set(db.connect(family).backend.supported_ops())
    # SHARD registers nothing of its own: every operator fans out
    assert registered <= ALL_FORMS | STRUCTURAL, \
        registered - ALL_FORMS - STRUCTURAL


def test_rows_are_consistent():
    for row in OPS.values():
        assert len(row.results) in (1, 2) and row.nargs >= 1
        assert all(index < row.nargs for index in row.hashed)
        for result in row.results:
            assert result.kind in ("values", "positions", "scalar")
            assert (result.of is not None) == (result.kind == "positions")
        if row.agg:
            assert bool(row.fold) != bool(row.parts), row
            assert row.fold in ("", "sum", "min", "max")
            assert all(OPS[part].cls == row.cls and OPS[part].fold
                       for part in row.parts)
        else:
            assert not (row.fold or row.parts)
    assert lookup("calc", "add") is None        # host arithmetic, no row
    assert lookup(DEVICE_MODULE, "firstn") is None
    assert lookup(COMPRESS_MODULE, "subsum") is None


def test_the_rewriter_reroutes_exactly_the_device_rows():
    for row in OPS.values():
        builder = MALBuilder("q")
        out = builder.emit(row.module, row.function,
                           tuple(builder.fresh() for _ in range(row.nargs)),
                           n_results=len(row.results))
        first = out if isinstance(out, Var) else out[0]
        (rewritten, *syncs) = rewrite_for_ocelot(
            builder.returns([("r", first)])).instructions
        assert rewritten.module == (DEVICE_MODULE if row.device
                                    else row.module)
        # a BAT result of a rerouted operator is synced for the result set
        assert bool(syncs) == (row.device and row.results[0] is not SCALAR)


def test_architecture_md_prints_the_table():
    text = (Path(__file__).resolve().parents[2]
            / "ARCHITECTURE.md").read_text()
    assert operator_table_markdown() in text
    assert operator_table_markdown().count("\n") == len(OPS) + 1


# -- plans are well-formed against the table ----------------------------------

#: per operator class, the operands that must be BATs (``nil`` allowed
#: where the operator takes an optional candidate list)
def bat_operands(row) -> range:
    if row.cls == "ewise":
        return range(0)             # either operand may be a scalar
    if row.cls in ("select", "gather", "join", "nljoin", "membership",
                   "oidcombine"):
        return range(2)
    if row.cls == "grouped_agg":
        return range(row.nargs - 1)         # (…, gids), then ngroups
    if row.cls == "group":
        return range(1 if row.nargs == 1 else 2)
    return range(1)


class Checker:
    """One program's walk: definitions, kinds, counts."""

    def __init__(self, label):
        self.label = label
        self.bat: dict = {}         # variable name -> holds a BAT?
        self.errors: list = []

    def error(self, instruction, text):
        self.errors.append(f"{self.label}: {instruction.format()}  <- {text}")

    def define(self, instruction, flags):
        if len(flags) != len(instruction.results):
            self.error(instruction, "result count")
        for var, is_bat in zip(instruction.results, flags):
            if var.name in self.bat:
                self.error(instruction, f"{var.name} assigned twice")
            self.bat[var.name] = is_bat

    def use(self, instruction, args, must_be_bat=()):
        for index, arg in enumerate(args):
            if not isinstance(arg, Var):
                continue
            if arg.name not in self.bat:
                self.error(instruction, f"{arg.name} used before assignment")
            elif index in must_be_bat and not self.bat[arg.name]:
                self.error(instruction, f"scalar {arg.name} as a BAT operand")

    def operator(self, instruction):
        row = lookup(instruction.module, instruction.function)
        if row is None:
            self.error(instruction, "names no table row")
            return
        extra = 1 if instruction.module == COMPRESS_MODULE else 0
        if len(instruction.args) != row.nargs + extra:
            self.error(instruction, f"takes {row.nargs + extra} arguments")
        self.use(instruction, instruction.args, bat_operands(row))
        self.define(instruction, bat_results(instruction))

    def pipe(self, instruction):
        spec, inputs = instruction.args[0], instruction.args[1:]
        if tuple(spec.inputs) != tuple(inputs):
            self.error(instruction, "spec inputs differ from arguments")
        self.use(instruction, inputs, range(len(inputs)))

        def walk(node):
            if isinstance(node, FIn):
                if not 0 <= node.index < len(inputs):
                    self.error(instruction, f"no input {node.index}")
            elif isinstance(node, FOp):
                row = OPS.get(node.op)
                if row is None or row.cls != "ewise" \
                        or len(node.args) != row.nargs:
                    self.error(instruction, f"{node.op} is no ewise row")
                for child in node.args:
                    walk(child)
            elif isinstance(node, FSelect):
                walk(node.child)
            elif not isinstance(node, FConst):
                self.error(instruction, f"unknown node {node!r}")

        for output in spec.outputs:
            walk(output.expr)
        if [o.name for o in spec.outputs] != [
                v.name for v in instruction.results]:
            self.error(instruction, "outputs differ from results")
        self.define(instruction, (True,) * len(instruction.results))

    def region(self, instruction):
        spec, inputs = instruction.args[0], instruction.args[1:]
        if tuple(spec.inputs) != tuple(inputs):
            self.error(instruction, "region inputs differ from arguments")
        self.use(instruction, inputs)
        inner = Checker(self.label)
        inner.bat = {var.name: self.bat.get(var.name, True)
                     for var in inputs}
        for member in spec.members:
            inner.instruction(member)
        self.errors += inner.errors
        for out, var in zip(spec.outputs, instruction.results):
            if out.name != var.name or out.name not in inner.bat:
                self.error(instruction, f"output {out.name} is no member's")
        self.define(instruction, tuple(
            inner.bat.get(out.name, True) for out in spec.outputs))

    def instruction(self, instruction):
        if instruction.function == "pipe":
            self.pipe(instruction)
        elif instruction.op == "morsel.run":
            self.region(instruction)
        elif instruction.op in STRUCTURAL:
            self.use(instruction, instruction.args)
            self.define(instruction, bat_results(instruction))
        else:
            self.operator(instruction)

    def program(self, program):
        for instruction in program.instructions:
            self.instruction(instruction)
        for _name, var in program.result_columns:
            if var.name not in self.bat:
                self.errors.append(
                    f"{self.label}: result {var.name} is never assigned")


@pytest.fixture(scope="module")
def db():
    with pytest.MonkeyPatch.context() as patch:
        for var in ENV_VARS:
            patch.delenv(var, raising=False)
        yield repro.tpch_database(sf=0.01)


@pytest.mark.parametrize("spec", SPECS)
def test_every_plan_is_well_formed_against_the_table(db, spec):
    con = db.connect(spec)
    errors = []
    for name, sql in WORKLOAD.items():
        _entry, program = db.plan_cache.prepare(
            sql, con.config, db.schema, name=name)
        checker = Checker(f"{spec} {name}")
        checker.program(program)
        errors += checker.errors
    assert not errors, "\n".join(errors[:20])


def test_the_checker_sees_a_malformed_plan():
    """…so that the test above passing means something."""
    builder = MALBuilder("bad")
    col = builder.bind("t", "a")
    total = builder.emit("aggr", "sum", (col,))
    builder.emit("algebra", "projection", (total, col))      # scalar oids
    builder.emit("algebra", "select", (col, None, 1))        # 3 arguments
    builder.emit("algebra", "nosuch", (col,))
    builder.emit("aggr", "count", (Var("X_99"),))            # undefined
    checker = Checker("bad")
    checker.program(builder.returns([]))
    assert [re.sub(r".*<- ", "", text) for text in checker.errors] == [
        "scalar X_2 as a BAT operand", "takes 7 arguments",
        "names no table row", "X_99 used before assignment",
    ]
