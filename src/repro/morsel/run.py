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
    intermediates.  Chosen when the table fits in a single morsel, when
    no input is a plain BAT (the sharded backend's distributed values),
    or when the backend requests it.

Row-order preservation of every member operator makes the sliced mode
exact: selections emit ascending slice-local positions (offset by ``lo``
on escape), gathers and element-wise kernels keep row order, so the
concatenated chunks equal the whole-column result.  Scalar aggregates
fold per-morsel partials (``avg`` via per-morsel sum/count pairs);
morsels whose aggregate input is empty are skipped, keeping one empty
witness so a fully-empty region still produces the operator's own
empty-input behaviour.
"""

from __future__ import annotations

import numpy as np

from ..monetdb.bat import BAT, OID_DTYPE, Role, make_bat, oid_bat
from ..monetdb.mal import Var
from .passes import MorselRegion


class MorselRun:
    """Stepwise executor for one :class:`MorselRegion`."""

    def __init__(self, backend, spec: MorselRegion, inputs,
                 whole: bool = False):
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
            whole or size <= 0 or len(counts) != 1 or self._n <= size
            or not all(isinstance(v, BAT) for v in to_cut)
        )
        if not self.whole:
            # sliced inputs may be device-resident (an aligned group-id
            # column, an escaped positions list): bring them host-side
            # once so every [lo, hi) cut is a cheap view
            for name in self._sliced_names:
                self._slots[name] = self._to_host(self._slots[name])
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
                base = {"members": (member,), "keys": (member.args[0],)}
            elif (member.function == "subgroup"
                    and len(member.args) == 3
                    and isinstance(member.args[1], Var)
                    and member.args[1].name in self._gchains):
                parent = self._gchains[member.args[1].name]
                base = {
                    "members": parent["members"] + (member,),
                    "keys": parent["keys"] + (member.args[0],),
                }
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
        self._agg_parts: dict[str, list] = {}
        self._gagg_parts: dict[str, list] = {}
        self._lgagg_parts: dict[str, list] = {}
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
        if out.fn == "avg":
            s = self.backend.resolve(f"{out.module}.sum")(column)
            c = self.backend.resolve(f"{out.module}.count")(column)
            parts.append((s, c))
        else:
            parts.append(
                self.backend.resolve(f"{out.module}.{out.fn}")(column)
            )

    def _partial_gagg(self, member, out, env, slots) -> None:
        """Grouped aggregate: fold one morsel's per-group partial table.

        Partials combine exactly — sum/count add, min/max meet at the
        dtype identity ``segmented_reduce`` fills empty groups with, and
        avg folds per-morsel sum+count pairs (the final divide matches
        the whole-column kernels' ``sums / max(counts, 1)``)."""
        gids_arg = member.args[-2]
        chain = (self._gchains.get(gids_arg.name)
                 if isinstance(gids_arg, Var) else None)
        if chain is not None:
            self._partial_lgagg(member, out, env, slots, chain)
            return
        args = [self._value(a, env, slots) for a in member.args]
        parts = self._gagg_parts.setdefault(out.name, [])
        if out.fn == "avg":
            values, gids, ngroups = args
            sums = self.backend.resolve(f"{out.module}.subsum")(
                values, gids, ngroups
            )
            counts = self.backend.resolve(f"{out.module}.subcount")(
                gids, ngroups
            )
            parts.append((self._value_array(sums),
                          self._value_array(counts)))
            env[f"{out.name}#sum"] = sums
            env[f"{out.name}#count"] = counts
            return
        partial = self.backend.resolve(member.op)(*args)
        parts.append(self._value_array(partial))
        env[out.name] = partial

    # -- in-region grouping (local groups, merged by key at finalize) --------

    def _morsel_group_ids(self, chain, env, slots) -> np.ndarray:
        """Chain-wide ids of one morsel's local groups.

        First occurrence per dense local id yields each local group's
        key tuple; the tuples are appended to the chain's key columns
        and a group's id is its row there (:meth:`_chain_gids` merges
        equal tuples at finalize).  Memoised per morsel in ``env``
        under ``<gids>#ids``."""
        cached = env.get(f"{chain['gids']}#ids")
        if cached is not None:
            return cached
        gbat = env[chain["gids"]]
        lgids = self._value_array(gbat).astype(np.int64)
        lng = int(env[chain["ng"]])
        if chain["gdtype"] is None and isinstance(gbat, BAT):
            chain["gdtype"] = gbat.dtype
        if lng:
            _, first = np.unique(lgids, return_index=True)
            chain["cols"].append([
                np.asarray(
                    self._value_array(self._value(arg, env, slots))
                )[first]
                for arg in chain["keys"]
            ])
        ids = np.arange(chain["count"], chain["count"] + lng,
                        dtype=np.int64)
        chain["count"] += lng
        env[f"{chain['gids']}#ids"] = ids
        return ids

    def _partial_lgagg(self, member, out, env, slots, chain) -> None:
        """Grouped aggregate over in-region (per-morsel local) group ids:
        keep the morsel's partial table together with its groups'
        chain-wide ids; :meth:`_fold_lgagg` scatters them at finalize."""
        ids = self._morsel_group_ids(chain, env, slots)
        if ids.size == 0:
            return
        parts = self._lgagg_parts.setdefault(out.name, [])
        args = [self._value(a, env, slots) for a in member.args]
        if out.fn == "avg":
            sums = self.backend.resolve(f"{out.module}.subsum")(*args)
            counts = self.backend.resolve(f"{out.module}.subcount")(
                *args[1:]
            )
            parts.append((ids, self._value_array(sums),
                          self._value_array(counts)))
            env[f"{out.name}#sum"] = sums
            env[f"{out.name}#count"] = counts
            return
        partial = self.backend.resolve(member.op)(*args)
        parts.append((ids, self._value_array(partial)))
        env[out.name] = partial

    @staticmethod
    def _merge_keys(cols) -> "tuple[np.ndarray, list]":
        """``(slot of every row, distinct key columns in slot order)``
        of equal-length key columns.

        Rows with equal key tuples (``==`` per column, so ``-0.0``
        meets ``0.0`` and a NaN meets nothing) share a slot, and slots
        are numbered in first-seen order — what a dictionary filled row
        by row would hand out, and the order the distinct keys are
        replayed in.  One stable lexsort brings equal tuples together,
        earliest row first; a run's slot is the rank of that row."""
        order = np.lexsort(cols[::-1])
        starts = np.zeros(order.size, dtype=bool)
        starts[0] = True
        for column in cols:
            ordered = column[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
        first = order[starts]               # earliest row of each run
        seen = np.argsort(first)            # runs in first-seen order
        slot_of_run = np.empty(first.size, dtype=np.int64)
        slot_of_run[seen] = np.arange(first.size)
        slots = np.empty(order.size, dtype=np.int64)
        slots[order] = slot_of_run[np.cumsum(starts) - 1]
        return slots, [column[first[seen]] for column in cols]

    def _chain_gids(self, chain) -> "tuple[np.ndarray, int]":
        """``(final group id of every chain-wide id, group count)``,
        computed once at finalize.

        Merges the morsels' key tuples, then replays the grouping chain
        over the distinct ones with the backend's own operators:
        dense-id numbering is a function of the distinct key set alone
        in every backend (ascending keys; ``subgroup`` ranks
        lexicographic ``(parent, inner)`` pairs), so this reproduces
        the whole-column numbering at distinct-key size."""
        merged = chain.get("merged")
        if merged is not None:
            return merged
        if not chain["cols"]:
            chain["merged"] = (np.empty(0, dtype=np.int64), 0)
            return chain["merged"]
        slots, table = self._merge_keys(
            [np.concatenate(column) for column in zip(*chain["cols"])]
        )
        n = int(table[0].size)
        scratch = []
        gids = ngroups = None
        for member, keys in zip(chain["members"], table):
            kbat = make_bat(keys, tag="morsel_gkeys")
            fn = self.backend.resolve(member.op)
            if member.function == "group":
                gids, ngroups = fn(kbat)
            else:
                gids, ngroups = fn(kbat, gids, ngroups)
            scratch.extend((kbat, gids))
        rank = self._value_array(gids).astype(np.int64)
        if int(ngroups) != n:
            raise RuntimeError(
                f"morsel group merge: {n} distinct keys but the replay "
                f"produced {int(ngroups)} groups"
            )
        self.backend.release_intermediates(scratch)
        chain["merged"] = (rank[slots], n)
        return chain["merged"]

    def _fold_lgagg(self, out, chain) -> BAT:
        gid_of, n = self._chain_gids(chain)
        parts = self._lgagg_parts.get(out.name, [])
        if out.fn == "avg":
            sums = np.zeros(n, dtype=np.float64)
            counts = np.zeros(n, dtype=np.int64)
            for ids, s, c in parts:
                np.add.at(sums, gid_of[ids], s.astype(np.float64))
                np.add.at(counts, gid_of[ids], c.astype(np.int64))
            acc = sums / np.maximum(counts, 1)
        elif out.fn in ("sum", "count"):
            dtype = parts[0][1].dtype if parts else np.dtype(np.int64)
            acc = np.zeros(n, dtype=dtype)
            for ids, p in parts:
                np.add.at(acc, gid_of[ids], p)
        else:
            dtype = parts[0][1].dtype if parts else np.dtype(np.float64)
            if out.fn == "min":
                identity = (np.inf if dtype.kind == "f"
                            else np.iinfo(dtype).max)
                acc = np.full(n, identity, dtype=dtype)
                for ids, p in parts:
                    np.minimum.at(acc, gid_of[ids], p)
            else:
                identity = (-np.inf if dtype.kind == "f"
                            else np.iinfo(dtype).min)
                acc = np.full(n, identity, dtype=dtype)
                for ids, p in parts:
                    np.maximum.at(acc, gid_of[ids], p)
        return make_bat(acc, tag=f"morsel_{out.name}")

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
                lgids = self._value_array(
                    local[out.name]
                ).astype(np.int64)
                self._chunks.setdefault(out.name, []).append(ids[lgids])
                continue
            value = local[out.name]
            if out.kind == "positions":
                oids = self._positions_array(value)
                self._chunks.setdefault(out.name, []).append(
                    oids.astype(np.int64) + lo
                )
            else:
                self._chunks.setdefault(out.name, []).append(
                    np.asarray(self._value_array(value))
                )

    def _finalize(self) -> None:
        outputs = []
        for out in self.spec.outputs:
            if out.kind == "scalar":
                outputs.append(self._fold(out))
            elif out.kind == "gagg":
                outputs.append(self._fold_gagg(out))
            elif out.kind == "gscalar":
                outputs.append(
                    self._chain_gids(self._ng_chains[out.name])[1]
                )
            elif out.kind == "ggids":
                chain = self._gchains[out.name]
                gid_of, _ = self._chain_gids(chain)
                chunks = self._chunks.get(out.name, [])
                ids = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int64))
                final = gid_of[ids] if gid_of.size else ids
                dtype = chain["gdtype"] or np.int64
                outputs.append(make_bat(
                    final.astype(dtype), tag=f"morsel_{out.name}"
                ))
            elif out.kind == "positions":
                chunks = self._chunks.get(out.name, [])
                oids = (np.concatenate(chunks) if chunks
                        else np.empty(0, dtype=np.int64))
                outputs.append(oid_bat(
                    oids.astype(OID_DTYPE), tag=f"morsel_{out.name}"
                ))
            else:
                chunks = self._chunks[out.name]
                outputs.append(make_bat(
                    np.concatenate(chunks), tag=f"morsel_{out.name}"
                ))
        for witness in self._agg_witness.values():
            self.backend.release_intermediates([witness])
        self.outputs = tuple(outputs)

    def _fold(self, out):
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
        if out.fn == "avg":
            total = parts[0][0]
            count = parts[0][1]
            for s, c in parts[1:]:
                total = total + s
                count = count + c
            return total / count
        if out.fn in ("sum", "count"):
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            return total
        if out.fn == "min":
            return min(parts)
        return max(parts)

    def _fold_gagg(self, out) -> BAT:
        member = self._out_member[out.name]
        gids_arg = member.args[-2]
        chain = (self._gchains.get(gids_arg.name)
                 if isinstance(gids_arg, Var) else None)
        if chain is not None:
            return self._fold_lgagg(out, chain)
        parts = self._gagg_parts[out.name]
        if out.fn == "avg":
            total = parts[0][0].astype(np.float64)
            counts = parts[0][1].astype(np.int64)
            for sums, c in parts[1:]:
                total = total + sums
                counts = counts + c
            folded = total / np.maximum(counts, 1)
        elif out.fn in ("sum", "count"):
            folded = parts[0]
            for p in parts[1:]:
                folded = folded + p
        elif out.fn == "min":
            folded = np.minimum.reduce(parts)
        else:
            folded = np.maximum.reduce(parts)
        return make_bat(np.asarray(folded), tag=f"morsel_{out.name}")

    # -- host materialisation ------------------------------------------------

    def _to_host(self, bat: BAT) -> BAT:
        if not bat.has_host_values and self.backend.supports("ocelot.sync"):
            synced = self.backend.resolve("ocelot.sync")(bat)
            if isinstance(synced, BAT):
                return synced
        return bat

    def _value_array(self, bat):
        if not isinstance(bat, BAT):
            return np.asarray(bat)
        bat = self._to_host(bat)
        values = np.asarray(bat.peek_values())
        if values.shape[0] != bat.count:
            values = values[: bat.count]
        return values

    def _positions_array(self, bat: BAT) -> np.ndarray:
        bat = self._to_host(bat)
        values = np.asarray(bat.peek_values())
        if bat.role is Role.BITMAP:
            nbits = getattr(bat, "nbits", None) or values.shape[0]
            return np.flatnonzero(values[:nbits]).astype(np.int64)
        if values.shape[0] != bat.count:
            values = values[: bat.count]
        return values.astype(np.int64)

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
