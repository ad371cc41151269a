"""Dataflow helpers shared by the plan rewrite passes.

The compress, fuse and morsel passes (:mod:`repro.compress.passes`,
:mod:`repro.fuse.passes`, :mod:`repro.morsel.passes`) all end by
emitting the program with some instructions replaced (:func:`splice`).
The fuse and morsel passes share one region finder,
:func:`collapse_regions`, which owns when a region seals, how it splits
and what escapes it; a pass says only *what joins a region* (its region
object's ``admit``) and *what a component becomes* (its builder).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional

from .mal import MALInstruction, MALProgram, Var
from .ops import bat_results


def is_literal(arg) -> bool:
    return not isinstance(arg, Var)


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


def _components(region: list[int], instructions) -> list[list[int]]:
    """Split one sealed region into variable-connected components."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent.setdefault(root, root) != root:
            root = parent[root]
        parent[name] = root
        return root

    for index in region:
        instruction = instructions[index]
        first = find(instruction.results[0].name)
        for arg in instruction.var_args():
            parent[find(arg.name)] = first
    grouped: dict[str, list[int]] = {}
    for index in region:
        root = find(instructions[index].results[0].name)
        grouped.setdefault(root, []).append(index)
    return list(grouped.values())


def collapse_regions(program: MALProgram, new_region: Callable,
                     build: Callable[..., Optional[MALInstruction]],
                     min_region: int) -> MALProgram:
    """Collapse the regions ``new_region`` admits, one instruction each.

    A region object has ``defs`` (the names its members define) and
    ``admit(index, instruction)``, which records a member and returns
    True, or returns False and changes nothing.  One sweep grows an open
    region (a fresh ``new_region()``) with every instruction it admits.
    An instruction it refuses seals it when the instruction reads one of
    its ``defs`` (they must materialise before that reader) or could
    start a region of its own (tried on a fresh ``new_region()``, which
    becomes the open region: a new pipeline); anything else — a bind or
    a join placed between two members — leaves it open.  Each sealed region
    splits into variable-connected components; a component with at least
    ``min_region`` members and an escaping definition goes to
    ``build(region, members, inputs, escaping)``:

    * ``members`` — its member instructions, in plan order;
    * ``inputs`` — the :class:`Var` s it reads but does not define, in
      first-use order;
    * ``escaping`` — ``(member, var)`` for each definition read outside
      the component or returned as a result column, in plan order.

    The built instruction replaces the component at its *last* member's
    position — safe because operands precede their members and the seal
    rule puts every outside reader after the seal point.  Components
    that are too small, have nothing escaping, or ``build`` declines
    (``None``) are left exactly in place.
    """
    instructions = program.instructions
    result_vars = {var.name for _, var in program.result_columns}
    reads = Counter(
        arg.name for instruction in instructions
        for arg in instruction.var_args()
    )

    sealed: list[tuple[object, list[int]]] = []
    region, indices = new_region(), []
    for index, instruction in enumerate(instructions):
        if region.admit(index, instruction):
            indices.append(index)
        elif indices:
            fresh = new_region()
            started = fresh.admit(index, instruction)
            if started or any(arg.name in region.defs
                              for arg in instruction.var_args()):
                sealed.append((region, indices))
                region, indices = fresh, [index] if started else []
    sealed.append((region, indices))

    replacements: dict[int, MALInstruction] = {}
    dropped: set[int] = set()
    for region, indices in sealed:
        for component in _components(indices, instructions):
            if len(component) < min_region:
                continue
            members = [instructions[i] for i in component]
            internal = Counter(
                arg.name for member in members for arg in member.var_args()
            )
            escaping = [
                (member, var) for member in members for var in member.results
                if reads[var.name] > internal[var.name]
                or var.name in result_vars
            ]
            if not escaping:
                continue
            defined = {var for member in members for var in member.results}
            inputs = list(dict.fromkeys(
                arg for member in members for arg in member.var_args()
                if arg not in defined
            ))
            built = build(region, members, inputs, escaping)
            if built is None:
                continue
            dropped.update(component)
            replacements[component[-1]] = built
    return splice(program, replacements, dropped)
