"""Morsel-at-a-time execution of one pipelined region.

:class:`MorselRun` drives a ``morsel.run`` instruction (built by
:func:`repro.morsel.passes.morselize_program`) for one backend.  The
interpreter's :class:`~repro.monetdb.interpreter.ProgramRun` holds the
program counter on the instruction and calls :meth:`step` until the run
reports completion, so each scheduler turn advances exactly one morsel —
the serve layer's pipelined schedulers interleave *morsels* of different
queries, not whole instructions.

Two execution modes:

``sliced``
    The driving oid space ``[0, n)`` is cut into ``[lo, lo+size)``
    ranges.  Each step slices every input column (``Backend.slice_base``),
    runs all member instructions against the slices inside
    ``Backend.morsel_scope()`` (the HET scheduler pins the whole morsel
    to the least-loaded device there — the morsel is the work-stealing
    unit), accumulates the morsel's contribution to every escaping
    output, and immediately releases the morsel-local intermediates via
    ``Backend.release_intermediates``.  Peak intermediate footprint is
    one morsel per live column instead of one full column per operator.

``whole``
    One member instruction per step against the full inputs — bitwise
    the old instruction-at-a-time semantics (same operators, same
    order, same errors), but still with last-use release of region
    intermediates.  Chosen by the run itself, from its inputs: when the
    table fits in a single morsel, or when a sliced input is not a
    plain BAT (the sharded backend's distributed values, whose rows
    already live morsel-like on N nodes).

Row-order preservation of every member operator makes the sliced mode
exact: selections emit ascending slice-local positions (offset by ``lo``
on escape), gathers and element-wise kernels keep row order, so the
concatenated chunks equal the whole-column result.  Aggregates fold
per-morsel partials; how each output kind merges is
:mod:`repro.monetdb.partials`.  Morsels whose aggregate input is empty
are skipped, keeping one empty witness so a fully-empty region still
produces the operator's own empty-input behaviour.
"""

from __future__ import annotations

import numpy as np

from ..monetdb import partials
from ..monetdb.bat import BAT, OID_DTYPE, make_bat, oid_bat
from ..monetdb.mal import Var
from .passes import MorselRegion


class MorselRun:
    """Stepwise executor for one :class:`MorselRegion`."""

    def __init__(self, backend, spec: MorselRegion, inputs):
        self.backend = backend
        self.spec = spec
        self.inputs = list(inputs)
        self._slots = {
            var.name: value for var, value in zip(spec.inputs, inputs)
        }
        flags = spec.sliced or (True,) * len(spec.inputs)
        self._sliced_names = {
            var.name for var, f in zip(spec.inputs, flags) if f
        }
        to_cut = [self._slots[name] for name in self._sliced_names]
        counts = {v.count for v in to_cut if isinstance(v, BAT)}
        self._n = next(iter(counts)) if counts else 0
        size = int(spec.size)
        self.whole = bool(
            size <= 0 or len(counts) != 1 or self._n <= size
            or not all(isinstance(v, BAT) for v in to_cut)
        )
        if not self.whole:
            # sliced inputs may be device-resident (an aligned group-id
            # column, an escaped positions list): sync them host-side
            # once so every [lo, hi) cut is a cheap view
            for name in self._sliced_names:
                partials.synced(self.backend, self._slots[name])
        self.outputs = None
        self._out_specs = {out.name: out for out in spec.outputs}
        # group chains: members grouped per morsel with the backend's
        # own operators; the morsels' local groups are merged by key
        # tuple at finalize (see _morsel_group_ids / _chain_gids)
        self._gchains: dict[str, dict] = {}
        self._ng_chains: dict[str, dict] = {}
        for member in spec.members:
            if len(member.results) != 2:
                continue
            if member.function == "group" and len(member.args) == 1:
                base = {"keys": (member.args[0],)}
            elif (member.function == "subgroup"
                    and len(member.args) == 3
                    and isinstance(member.args[1], Var)
                    and member.args[1].name in self._gchains):
                parent = self._gchains[member.args[1].name]
                base = {"keys": parent["keys"] + (member.args[0],)}
            else:
                continue
            base.update(
                gids=member.results[0].name, ng=member.results[1].name,
                cols=[], count=0, gdtype=None,
            )
            self._gchains[member.results[0].name] = base
            self._ng_chains[member.results[1].name] = base
        self._out_member = {
            var.name: member
            for member in spec.members
            for var in member.results
            if var.name in self._out_specs
        }
        self._lo = 0
        self._member_pos = 0
        self._env: dict = {}
        self._chunks: dict[str, list] = {}
        #: per aggregate output, per morsel: the partial of every
        #: component (``avg`` has two) — grouped ones behind the chain-
        #: wide ids of the morsel's local groups (``None``: shared ids)
        self._agg_parts: dict[str, list] = {}
        self._gagg_parts: dict[str, list] = {}
        self._agg_witness: dict[str, BAT] = {}
        self._last_use: dict[str, int] = {}
        for index, member in enumerate(spec.members):
            for arg in member.var_args():
                self._last_use[arg.name] = index

    # -- driving -------------------------------------------------------------

    def step(self) -> bool:
        """Advance one unit of work; ``True`` while more work remains.

        On the final step the escaping outputs are assembled into
        :attr:`outputs` (same order as ``spec.outputs``).
        """
        if self.outputs is not None:
            return False
        if self.whole:
            return self._step_whole()
        return self._step_morsel()

    def _step_whole(self) -> bool:
        member = self.spec.members[self._member_pos]
        self._execute(member, self._env, self._slots)
        self._release_dead(self._member_pos)
        self._member_pos += 1
        if self._member_pos < len(self.spec.members):
            return True
        self.outputs = tuple(
            self._env[out.name] for out in self.spec.outputs
        )
        return False

    def _step_morsel(self) -> bool:
        lo = self._lo
        hi = min(lo + self.spec.size, self._n)
        tracer = self.backend.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("morsel", cat="morsel",
                                lo=lo, hi=hi, rows=hi - lo)
        slices = {}
        for name, value in self._slots.items():
            slices[name] = (
                self.backend.slice_base(value, lo, hi)
                if name in self._sliced_names and isinstance(value, BAT)
                else value
            )
        try:
            local: dict = {}
            with self.backend.morsel_scope():
                for member in self.spec.members:
                    self._execute(member, local, slices)
                self._harvest(local, slices, lo)
            self._release_locals(local, slices)
        finally:
            if span is not None:
                tracer.end(span)
        self._lo = hi
        if hi < self._n:
            return True
        self._finalize()
        return False

    # -- member execution ----------------------------------------------------

    def _execute(self, member, env, slots) -> None:
        out = self._out_specs.get(
            member.results[0].name if member.results else ""
        )
        if (not self.whole and out is not None and out.kind == "scalar"):
            self._partial_agg(member, out, env, slots)
            return
        if (not self.whole and out is not None and out.kind == "gagg"):
            self._partial_gagg(member, out, env, slots)
            return
        fn = self.backend.resolve(member.op)
        args = [self._value(a, env, slots) for a in member.args]
        result = fn(*args)
        if len(member.results) == 1:
            env[member.results[0].name] = result
            return
        if not isinstance(result, tuple) or len(result) != len(member.results):
            raise TypeError(
                f"{member.op} returned {result!r} for "
                f"{len(member.results)} results"
            )
        for var, value in zip(member.results, result):
            env[var.name] = value

    def _value(self, arg, env, slots):
        if isinstance(arg, Var):
            if arg.name in env:
                return env[arg.name]
            return slots[arg.name]
        return arg

    def _partial_agg(self, member, out, env, slots) -> None:
        column = self._value(member.args[0], env, slots)
        parts = self._agg_parts.setdefault(out.name, [])
        if isinstance(column, BAT) and column.count == 0:
            # keep one empty witness so a region with no surviving rows
            # reproduces the operator's own empty-input behaviour
            if out.name not in self._agg_witness:
                self._agg_witness[out.name] = column
            return
        parts.append([
            self.backend.resolve(f"{out.module}.{name}")(*args)
            for name, args in partials.components(out.fn, (column,))
        ])

    def _chain_of(self, member) -> "dict | None":
        """The in-region group chain a grouped aggregate's ids come
        from, if they are per-morsel local ids."""
        gids_arg = member.args[-2]
        return (self._gchains.get(gids_arg.name)
                if isinstance(gids_arg, Var) else None)

    def _partial_gagg(self, member, out, env, slots) -> None:
        """Grouped aggregate: keep one morsel's per-group partial table
        — over in-region (per-morsel local) group ids together with its
        groups' chain-wide ids, which :meth:`_fold_gagg` scatters
        through at finalize."""
        chain = self._chain_of(member)
        ids = None
        if chain is not None:
            ids = self._morsel_group_ids(chain, env, slots)
            if ids.size == 0:
                return
        args = [self._value(a, env, slots) for a in member.args]
        tables = [
            self.backend.resolve(f"{out.module}.{name}")(*part_args)
            for name, part_args in partials.components(member.function, args)
        ]
        for k, table in enumerate(tables):
            env[f"{out.name}#{k}"] = table   # released with the morsel
        self._gagg_parts.setdefault(out.name, []).append(
            (ids, [partials.host_array(self.backend, table)
                   for table in tables])
        )

    # -- in-region grouping (local groups, merged by key at finalize) --------

    def _morsel_group_ids(self, chain, env, slots) -> np.ndarray:
        """Chain-wide ids of one morsel's local groups.

        Each local group's key tuple is appended to the chain's key
        tables and a group's id is its row there (:meth:`_chain_gids`
        merges equal tuples at finalize).  Memoised per morsel in
        ``env`` under ``<gids>#ids``."""
        cached = env.get(f"{chain['gids']}#ids")
        if cached is not None:
            return cached
        gbat = env[chain["gids"]]
        lgids = partials.host_array(self.backend, gbat).astype(np.int64)
        lng = int(env[chain["ng"]])
        if chain["gdtype"] is None and isinstance(gbat, BAT):
            chain["gdtype"] = gbat.dtype
        if lng:
            chain["cols"].append(partials.group_keys(lgids, [
                partials.host_array(self.backend,
                                    self._value(arg, env, slots))
                for arg in chain["keys"]
            ]))
        ids = np.arange(chain["count"], chain["count"] + lng,
                        dtype=np.int64)
        chain["count"] += lng
        env[f"{chain['gids']}#ids"] = ids
        return ids

    def _chain_gids(self, chain) -> "tuple[np.ndarray, int]":
        """``(final group id of every chain-wide id, group count)``,
        ranked once at finalize on the host: the merged ids ascend with
        the key tuple, which is the numbering the whole column's
        ``group`` / ``subgroup`` chain gives in every backend."""
        merged = chain.get("merged")
        if merged is None:
            merged = chain["merged"] = partials.merge_groups(chain["cols"])
        return merged

    # -- escaping outputs ----------------------------------------------------

    def _harvest(self, local, slices, lo) -> None:
        for out in self.spec.outputs:
            if out.kind in ("scalar", "gagg"):
                continue
            if out.kind == "gscalar":
                # collect the keys even when no aggregate consumed them
                self._morsel_group_ids(
                    self._ng_chains[out.name], local, slices
                )
                continue
            if out.kind == "ggids":
                chain = self._gchains[out.name]
                ids = self._morsel_group_ids(chain, local, slices)
                lgids = partials.host_array(
                    self.backend, local[out.name]
                ).astype(np.int64)
                self._chunks.setdefault(out.name, []).append(ids[lgids])
                continue
            # the sync turns a device bitmap into its oid list
            values = partials.host_array(self.backend, local[out.name])
            self._chunks.setdefault(out.name, []).append(
                partials.offset_positions(values, lo)
                if out.kind == "positions" else values
            )

    def _finalize(self) -> None:
        outputs = []
        for out in self.spec.outputs:
            chunks = self._chunks.get(out.name, [])
            if out.kind == "scalar":
                outputs.append(self._fold_scalar(out))
            elif out.kind == "gagg":
                outputs.append(self._fold_gagg(out))
            elif out.kind == "gscalar":
                outputs.append(
                    self._chain_gids(self._ng_chains[out.name])[1]
                )
            elif out.kind == "ggids":
                chain = self._gchains[out.name]
                gid_of, _ = self._chain_gids(chain)
                ids = partials.concat(chunks, np.int64)
                final = gid_of[ids] if gid_of.size else ids
                dtype = chain["gdtype"] or np.int64
                outputs.append(make_bat(
                    final.astype(dtype), tag=f"morsel_{out.name}"
                ))
            elif out.kind == "positions":
                outputs.append(oid_bat(
                    partials.concat(chunks, np.int64).astype(OID_DTYPE),
                    tag=f"morsel_{out.name}",
                ))
            else:
                outputs.append(make_bat(
                    np.concatenate(chunks), tag=f"morsel_{out.name}"
                ))
        for witness in self._agg_witness.values():
            self.backend.release_intermediates([witness])
        self.outputs = tuple(outputs)

    @staticmethod
    def _merge(fn, parts, fold):
        """Merge aggregate ``fn`` from per-morsel partials: every
        component folds across the morsels on its own."""
        folded = [
            fold(partials.fold_of(name), [part[k] for part in parts])
            for k, (name, _args) in enumerate(partials.components(fn, ()))
        ]
        return folded[0] if len(folded) == 1 else partials.finish_avg(*folded)

    def _fold_scalar(self, out):
        parts = self._agg_parts.get(out.name, [])
        if not parts:
            witness = self._agg_witness.get(out.name)
            if witness is None:
                raise RuntimeError(
                    f"morsel region produced no input for {out.name}"
                )
            return self.backend.resolve(
                f"{out.module}.{out.fn}"
            )(witness)
        return self._merge(out.fn, parts, partials.fold_scalars)

    def _fold_gagg(self, out) -> BAT:
        """Partials combine exactly — tables over shared ids fold
        element-wise, tables over in-region ids scatter through the
        chain's final ids (no group at all: sums and counts are int64,
        the rest float64)."""
        member = self._out_member[out.name]
        chain = self._chain_of(member)
        parts = self._gagg_parts.get(out.name, [])
        if chain is None:
            fold = partials.fold_tables
        else:
            gid_of, n = self._chain_gids(chain)
            slots = [gid_of[ids] for ids, _tables in parts]

            def fold(name, tables):
                return partials.scatter_tables(
                    name, n, zip(slots, tables),
                    np.int64 if name == "sum" else np.float64,
                )

        folded = self._merge(member.function,
                             [tables for _ids, tables in parts], fold)
        return make_bat(np.asarray(folded), tag=f"morsel_{out.name}")

    # -- liveness ------------------------------------------------------------

    def _release_dead(self, position: int) -> None:
        """Whole mode: release region defs past their last use."""
        dead = []
        for name, value in list(self._env.items()):
            if name in self._out_specs:
                continue
            if self._last_use.get(name, -1) > position:
                continue
            if any(value is slot for slot in self._slots.values()):
                continue
            dead.append(value)
            del self._env[name]
        if dead:
            self.backend.release_intermediates(dead)

    def _release_locals(self, local, slices) -> None:
        """Sliced mode: drop every morsel-local value once harvested."""
        dead = []
        witnesses = list(self._agg_witness.values())
        for value in local.values():
            if any(value is w for w in witnesses):
                continue
            if any(value is slot for slot in slices.values()):
                continue
            dead.append(value)
        if dead:
            self.backend.release_intermediates(dead)
