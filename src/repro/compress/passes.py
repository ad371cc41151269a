"""The compression rewrite pass.

Mirrors ``fuse``/``morsel``: a plan-level pass
(:func:`compress_program`) rewrites operators that consume a **base
column directly** (the result of ``sql.bind``) into their
compression-aware ``compress.*`` forms.  Gated by the ``compression``
engine knob (:data:`repro.engines.KNOBS`), whose environment override
is the *storage-time* mode too: ``auto`` (the default) lets
:func:`~repro.compress.codecs.choose_encoding` pick per column, the
codec names restrict it to one family, ``off`` disables both storage
encoding and the pass.

Only bind-direct consumers are rewritten: that is where the encoded
representation lives (intermediates are plain BATs), and it keeps the
pass trivially safe — every ``compress.*`` operator re-checks its
input at runtime and delegates to the ordinary operator when the
column turned out plain (or encoded with a codec the operator cannot
exploit), so the same compiled plan is correct for *any* storage
state.  The effective mode is part of the serve layer's plan-cache key,
so compiled-with and compiled-without plans never mix.
"""

from __future__ import annotations

from ..monetdb import ops
from ..monetdb.dataflow import splice
from ..monetdb.mal import MALInstruction, MALProgram, Var

#: admissible settings of the ``compression`` knob
MODES = ("off", "auto", "dict", "rle", "for")


def compress_program(program: MALProgram, mode: str) -> MALProgram:
    """Rewrite bind-direct operators into ``compress.*`` forms.

    Idempotent; a no-op under ``mode == "off"``.  Each rewritten
    instruction gains a trailing ``mode`` literal so the runtime
    operator knows which codecs it may exploit.
    """
    if mode == "off":
        return program
    instructions = program.instructions
    if any(i.module == "compress" for i in instructions):
        return program     # already rewritten: the pass is a no-op

    bind_results = {
        i.results[0].name
        for i in instructions
        if i.op == "sql.bind" and i.results
    }

    def _is_bind(arg) -> bool:
        return isinstance(arg, Var) and arg.name in bind_results

    replacements = {}
    for index, instruction in enumerate(instructions):
        replacement = _rewrite(instruction, _is_bind, mode)
        if replacement is not None:
            replacements[index] = replacement
    return splice(program, replacements)


def _compressed(instruction: MALInstruction, mode: str) -> MALInstruction:
    return MALInstruction(
        instruction.results, "compress", instruction.function,
        instruction.args + (mode,),
    )


def _rewrite(instruction: MALInstruction, is_bind, mode: str):
    """The ``compress.*`` replacement for one instruction, or None: the
    MonetDB form of an operator that has a compressed one
    (:data:`repro.monetdb.ops.OPS`), reading a base column directly."""
    row = ops.lookup(instruction.module, instruction.function)
    args = instruction.args
    if row is not None and row.compressed \
            and instruction.module == row.module \
            and args and is_bind(args[0]):
        return _compressed(instruction, mode)
    return None
