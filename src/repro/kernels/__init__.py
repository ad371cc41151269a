"""``repro.kernels`` — the hardware-oblivious kernel library (substrate S2).

One set of kernels, written against the kernel programming model, serving
every device: the paper's core design premise.  ``KERNEL_LIBRARY`` is the
complete catalogue handed to :func:`repro.cl.build` for per-device
specialisation.  (Layer map: ARCHITECTURE.md §"repro.kernels".)
"""

from . import aggregation, bitmap, groupby, hashing, join, primitives, radix_sort
from .aggregation import AGG_OPS, accumulators_for, segmented_reduce
from .bitmap import POPCOUNT, count_bits, tail_mask
from .hashing import EMPTY, NUM_HASH_FUNCTIONS, PROBE_LIMIT, TableFull, hash_slot
from .primitives import fold_identity
from .radix_sort import encode_keys, key_kind_for, num_passes
from .selection import COMPARE_OPS, RANGE_OPS, bitmap_nbytes, predicate_mask

from . import selection

#: The full hardware-oblivious kernel catalogue.
KERNEL_LIBRARY = {
    **primitives.LIBRARY,
    **selection.LIBRARY,
    **bitmap.LIBRARY,
    **radix_sort.LIBRARY,
    **hashing.LIBRARY,
    **join.LIBRARY,
    **groupby.LIBRARY,
    **aggregation.LIBRARY,
}

__all__ = [
    "AGG_OPS",
    "COMPARE_OPS",
    "EMPTY",
    "KERNEL_LIBRARY",
    "NUM_HASH_FUNCTIONS",
    "POPCOUNT",
    "PROBE_LIMIT",
    "RANGE_OPS",
    "TableFull",
    "accumulators_for",
    "bitmap_nbytes",
    "count_bits",
    "encode_keys",
    "fold_identity",
    "hash_slot",
    "key_kind_for",
    "num_passes",
    "predicate_mask",
    "segmented_reduce",
    "tail_mask",
]
