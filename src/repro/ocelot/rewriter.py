"""The Ocelot query rewriter (paper §3.1, §3.4).

Adjusts MonetDB query plans for Ocelot by rerouting operator calls to the
corresponding Ocelot implementations (swapping the instruction's module)
and inserting explicit ``ocelot.sync`` instructions at ownership
boundaries: before a MonetDB-executed operator consumes an Ocelot-owned
BAT, and before result columns are returned.

Operators without an Ocelot implementation (e.g. ``algebra.firstn``)
stay on MonetDB — the paper's mixed execution mode.

The heterogeneous ("HET") configuration runs the same rewritten plans:
MonetDB-boundary syncs stay static (inserted here), while *device
crossing* syncs cannot be known at plan time — placement is cost-based
and data-gravity-driven — so the scheduler inserts them dynamically
(:meth:`repro.sched.pool.DevicePool.ensure_on` joins the two queues'
makespans whenever an operand changes devices).

Which operators have an Ocelot form, and which of their results are
BATs, is read off the operator table (:mod:`repro.monetdb.ops`).
"""

from __future__ import annotations

from ..monetdb import ops
from ..monetdb.mal import MALInstruction, MALProgram, Var


def _ocelot_module(instruction: MALInstruction) -> "str | None":
    """The module ``instruction`` runs under on an Ocelot engine, else
    ``None``: a MonetDB form with a device form and a fused region (one
    generated kernel) are rerouted; a compressed-execution form stays —
    it delegates to the ``ocelot.*`` operators itself, so its BAT
    results may come back device-owned (if not, their sync is a no-op)."""
    if instruction.op == "fuse.pipe":
        return ops.DEVICE_MODULE
    row = ops.lookup(instruction.module, instruction.function)
    if row is None:
        return None
    if instruction.module == ops.COMPRESS_MODULE:
        return ops.COMPRESS_MODULE
    if instruction.module == row.module and row.device:
        return ops.DEVICE_MODULE
    return None


def rewrite_for_ocelot(program: MALProgram) -> MALProgram:
    """Reroute supported operators to Ocelot and insert syncs."""
    out = MALProgram(name=program.name)
    ocelot_owned: set[str] = set()
    rename: dict[str, Var] = {}

    def resolve(arg):
        if isinstance(arg, Var):
            return rename.get(arg.name, arg)
        return arg

    def sync_var(var: Var) -> Var:
        synced = Var(var.name + "_s")
        out.instructions.append(
            MALInstruction((synced,), "ocelot", "sync", (var,))
        )
        rename[var.name] = synced
        ocelot_owned.discard(var.name)
        return synced

    for instruction in program.instructions:
        args = tuple(resolve(a) for a in instruction.args)
        module = _ocelot_module(instruction)
        if module is not None:
            out.instructions.append(MALInstruction(
                instruction.results, module, instruction.function, args
            ))
            for var, is_bat in zip(instruction.results,
                                   ops.bat_results(instruction)):
                if is_bat:
                    # scalar results are host values already
                    ocelot_owned.add(var.name)
            continue
        # Stays on MonetDB: ownership must be handed back first.
        synced_args = tuple(
            sync_var(a)
            if isinstance(a, Var) and a.name in ocelot_owned
            else a
            for a in args
        )
        out.instructions.append(
            MALInstruction(
                instruction.results,
                instruction.module,
                instruction.function,
                synced_args,
            )
        )

    for name, var in program.result_columns:
        resolved = resolve(var)
        if isinstance(resolved, Var) and resolved.name in ocelot_owned:
            resolved = sync_var(resolved)
        out.result_columns.append((name, resolved))
    return out


def count_syncs(program: MALProgram) -> int:
    """Number of sync points a rewritten plan contains (test helper)."""
    return sum(1 for i in program.instructions if i.op == "ocelot.sync")
