"""Query observability: spans, metrics, profiles (PR 9).

One namespace answers "where did this query's time go?":

* :mod:`repro.obs.tracer` — a zero-dependency, query-scoped
  :class:`Tracer`.  The interpreter, morsel runner, heterogeneous
  scheduler and shard backend open :class:`Span`\\ s around every MAL
  instruction, fused ``ocelot.pipe`` launch, morsel batch, device
  dispatch/transfer, shard fan-out/shuffle and interconnect charge, so
  one query yields one coherent parent/child tree.
  ``Tracer.export_chrome()`` writes the standard Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto), reproducing the paper's
  fig. 9 per-device timelines from a real run.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, a live facade
  folding the historically ad-hoc counters (plan cache, interconnect,
  compression, memory manager, breakers, scheduler) into one flat
  namespace with ``snapshot()``/``diff()`` plus a slow-query log.
* :mod:`repro.obs.profile` — renders a per-operator profile (time,
  launches, rows, bytes, placement, observed encodings) for
  ``EXPLAIN ANALYZE``.

Tracing is **off by default** and costs one pointer check per
interpreter step when off.  Enable it with the ``trace`` engine knob
(:data:`repro.engines.KNOBS`; e.g. ``"HET:trace=on"``).
``Connection.execute(..., analyze=True)`` forces tracing on for a
single statement regardless of the knob.
"""

from .metrics import MetricsRegistry
from .profile import render_profile
from .tracer import Span, Tracer, describe_value

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "describe_value",
    "render_profile",
]
