"""``repro.monetdb`` — the MonetDB column-store substrate (S3).

BATs, 128-byte-aligned storage with a callback-firing, schema-versioned
catalog, MAL plans, the operator-at-a-time interpreter (steppable per
instruction for the serve layer's interleaved sessions), the MS/MP
baseline backends, and the dataflow helpers the plan rewrite passes
share.  (Layer map: ARCHITECTURE.md §"repro.monetdb".)
"""

from .bat import (
    BAT,
    OID_DTYPE,
    Owner,
    OwnershipError,
    Role,
    bitmap_bat,
    make_bat,
    oid_bat,
)
from .backends import (
    MonetDBBackend,
    MonetDBParallel,
    MonetDBSequential,
    group_ids,
    hash_join_pairs,
    select_bounds_to_op,
)
from .calc import calc_result_dtype, elementwise
from .costmodel import DEFAULT_COST_MODEL, MonetDBCostModel, OpCost
from .interpreter import Backend, QueryResult, UnsupportedOperator, run_program
from .mal import NIL, ColumnRef, MALBuilder, MALInstruction, MALProgram, Var
from .storage import ALIGNMENT, Catalog, aligned_array, aligned_empty, is_aligned

__all__ = [
    "ALIGNMENT",
    "BAT",
    "Backend",
    "Catalog",
    "ColumnRef",
    "DEFAULT_COST_MODEL",
    "MALBuilder",
    "MALInstruction",
    "MALProgram",
    "MonetDBBackend",
    "MonetDBCostModel",
    "MonetDBParallel",
    "MonetDBSequential",
    "NIL",
    "OID_DTYPE",
    "OpCost",
    "Owner",
    "OwnershipError",
    "QueryResult",
    "Role",
    "UnsupportedOperator",
    "Var",
    "aligned_array",
    "aligned_empty",
    "bitmap_bat",
    "calc_result_dtype",
    "elementwise",
    "group_ids",
    "hash_join_pairs",
    "is_aligned",
    "make_bat",
    "oid_bat",
    "run_program",
    "select_bounds_to_op",
]
