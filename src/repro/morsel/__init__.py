"""Morsel-driven execution: stream oid-range batches through pipelined
operator regions instead of materialising full columns between operators
(Leis et al., SIGMOD'14, applied to this repo's MAL/Ocelot stack)."""

from .passes import (
    DEFAULT_MORSEL_SIZE,
    MIN_REGION,
    MorselOutput,
    MorselRegion,
    count_regions,
    morselize_program,
)
from .run import MorselRun

__all__ = [
    "DEFAULT_MORSEL_SIZE",
    "MIN_REGION",
    "MorselOutput",
    "MorselRegion",
    "MorselRun",
    "count_regions",
    "morselize_program",
]
