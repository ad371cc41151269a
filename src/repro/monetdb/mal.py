"""MAL — the MonetDB Assembly Language (plan representation).

Queries compile to flat sequences of instructions over single-assignment
variables::

    X_1 := sql.bind("lineitem", "l_quantity");
    X_2 := algebra.select(X_1, nil, 1, 24, true, true, false);
    X_3 := algebra.projection(X_2, X_1);
    X_4 := aggr.sum(X_3);

Ocelot advertises its operators through the same calling interface (the
"MAL binding", paper §3.2), which is what makes them drop-in replacements:
the query rewriter only has to swap the module name of an instruction and
insert ``ocelot.sync`` calls at ownership boundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Var:
    """A MAL single-assignment variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a persistent column, resolved via ``sql.bind``."""

    table: str
    column: str

    def __repr__(self) -> str:
        return f"{self.table}.{self.column}"


#: MAL ``nil``.
NIL = None


def _format_arg(arg: object) -> str:
    if arg is None:
        return "nil"
    if isinstance(arg, Var):
        return arg.name
    if isinstance(arg, ColumnRef):
        return f'"{arg.table}"."{arg.column}"'
    if isinstance(arg, str):
        return f'"{arg}"'
    if isinstance(arg, bool):
        return "true" if arg else "false"
    return repr(arg)


@dataclass(frozen=True)
class MALInstruction:
    """``results := module.function(args...)``"""

    results: tuple[Var, ...]
    module: str
    function: str
    args: tuple[object, ...]

    @property
    def op(self) -> str:
        return f"{self.module}.{self.function}"

    def var_args(self) -> list[Var]:
        return [a for a in self.args if isinstance(a, Var)]

    def format(self) -> str:
        lhs = ", ".join(v.name for v in self.results)
        rhs = f"{self.op}({', '.join(_format_arg(a) for a in self.args)})"
        return f"{lhs} := {rhs};" if self.results else f"{rhs};"


@dataclass
class MALProgram:
    """A compiled query plan plus its result-set specification."""

    name: str
    instructions: list[MALInstruction] = field(default_factory=list)
    #: ordered (column name, variable) pairs forming the result set.
    result_columns: list[tuple[str, Var]] = field(default_factory=list)
    #: base tables the SQL lowerer resolved in FROM — everything of the
    #: schema the compile consulted; set on ``compile_sql``'s output
    #: only (rewrite passes build fresh programs and do not carry it)
    tables: tuple[str, ...] = ()

    def format(self) -> str:
        lines = [f"function user.{self.name}();"]
        lines += [f"    {ins.format()}" for ins in self.instructions]
        result = ", ".join(
            f"{name}={var.name}" for name, var in self.result_columns
        )
        lines.append(f"    sql.resultSet({result});")
        lines.append("end user." + self.name + ";")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)


class MALBuilder:
    """Fluent construction of MAL programs with fresh variable names."""

    def __init__(self, name: str):
        self.program = MALProgram(name=name)
        self._counter = itertools.count(1)

    def fresh(self) -> Var:
        return Var(f"X_{next(self._counter)}")

    def emit(
        self,
        module: str,
        function: str,
        args: Sequence[object],
        n_results: int = 1,
    ):
        """Append an instruction; returns its result Var (or tuple)."""
        results = tuple(self.fresh() for _ in range(n_results))
        self.program.instructions.append(
            MALInstruction(results, module, function, tuple(args))
        )
        if n_results == 0:
            return None
        if n_results == 1:
            return results[0]
        return results

    def bind(self, table: str, column: str) -> Var:
        return self.emit("sql", "bind", (ColumnRef(table, column),))

    def returns(self, columns: Iterable[tuple[str, Var]]) -> MALProgram:
        self.program.result_columns = list(columns)
        return self.program
