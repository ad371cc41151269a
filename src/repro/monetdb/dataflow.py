"""Dataflow helpers shared by the plan rewrite passes.

The compress, fuse and morsel passes (:mod:`repro.compress.passes`,
:mod:`repro.fuse.passes`, :mod:`repro.morsel.passes`) all read the same
facts off a :class:`~repro.monetdb.mal.MALProgram` — how often a
variable is consumed, which variables hold BATs, which members of a
sealed region share a row space — and all end by emitting the program
with some instructions replaced.  Those pieces live here once; *what*
may join a region, and when a region seals, stays with each pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional

from .mal import MALInstruction, MALProgram, Var
from .ops import bat_results


def is_literal(arg) -> bool:
    return not isinstance(arg, Var)


def var_uses(instructions: Iterable[MALInstruction]) -> Counter:
    """How many times each variable is consumed as an argument."""
    uses: Counter = Counter()
    for instruction in instructions:
        for arg in instruction.args:
            if isinstance(arg, Var):
                uses[arg.name] += 1
    return uses


def bat_var_names(instructions: Iterable[MALInstruction]) -> set[str]:
    """Names of the variables that hold BATs
    (:func:`repro.monetdb.ops.bat_results`).

    SSA: producers precede consumers, so the full set is exactly what
    incremental availability would have been at each use."""
    names: set[str] = set()
    for instruction in instructions:
        for var, is_bat in zip(instruction.results, bat_results(instruction)):
            if is_bat:
                names.add(var.name)
    return names


def connected_components(region: list[int], instructions) -> list[list[int]]:
    """Split one sealed region into variable-connected components."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent.setdefault(root, root) != root:
            root = parent[root]
        parent[name] = root
        return root

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for index in region:
        instruction = instructions[index]
        names = [instruction.results[0].name] + [
            a.name for a in instruction.var_args()
        ]
        for other in names[1:]:
            union(names[0], other)
    grouped: dict[str, list[int]] = {}
    for index in region:
        root = find(instructions[index].results[0].name)
        grouped.setdefault(root, []).append(index)
    return list(grouped.values())


def splice(program: MALProgram, replacements: dict[int, MALInstruction],
           dropped: "set[int] | frozenset" = frozenset()) -> MALProgram:
    """``program`` with instruction ``i`` replaced by ``replacements[i]``
    and the instructions at ``dropped`` removed; every other instruction
    keeps its place.  Returns ``program`` itself when nothing changes."""
    if not replacements:
        return program
    out = MALProgram(
        name=program.name,
        result_columns=list(program.result_columns),
    )
    for index, instruction in enumerate(program.instructions):
        replacement = replacements.get(index)
        if replacement is not None:
            out.instructions.append(replacement)
        elif index not in dropped:
            out.instructions.append(instruction)
    return out


def collapse(program: MALProgram, components: Iterable[list[int]],
             build: Callable[[list[int]], Optional[MALInstruction]],
             min_region: int) -> MALProgram:
    """Collapse each large-enough component to the one instruction
    ``build`` makes of it, at its *last* member's position; components
    ``build`` declines (``None``) are left exactly in place."""
    replacements: dict[int, MALInstruction] = {}
    dropped: set[int] = set()
    for component in components:
        if len(component) < min_region:
            continue
        built = build(component)
        if built is None:
            continue
        dropped.update(component)
        replacements[component[-1]] = built
    return splice(program, replacements, dropped)
