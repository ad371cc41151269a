"""``repro.ocelot`` — the hardware-oblivious engine (the paper's S4).

Context management (:class:`OcelotEngine`), the Memory Manager, the
operator host code advertised through MAL bindings, and the query
rewriter that turns MonetDB plans into Ocelot plans.  (Layer map and
query lifecycle: ARCHITECTURE.md §"repro.ocelot".)
"""

from .autotune import (
    DeviceCharacteristics,
    TuningReport,
    autotune,
    choose_radix_bits,
    probe_device,
)
from .engine import OcelotBackend, OcelotEngine
from .memory import BufferKind, CacheEntry, MemoryManager, OcelotOOM
from .rewriter import count_syncs, rewrite_for_ocelot

__all__ = [
    "BufferKind",
    "CacheEntry",
    "DeviceCharacteristics",
    "MemoryManager",
    "OcelotBackend",
    "OcelotEngine",
    "OcelotOOM",
    "TuningReport",
    "autotune",
    "choose_radix_bits",
    "count_syncs",
    "probe_device",
    "rewrite_for_ocelot",
]
