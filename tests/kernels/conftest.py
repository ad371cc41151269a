"""Shared fixtures: a built program + queue per device type, and the
launches of one warm TPC-H pass."""

from typing import NamedTuple

import numpy as np
import pytest

from repro import cl
from repro.kernels import KERNEL_LIBRARY


class KernelRig:
    """Context + queue + compiled program for direct kernel testing."""

    def __init__(self, device_kind: str):
        self.ctx = cl.Context(cl.get_device(device_kind))
        self.queue = cl.CommandQueue(self.ctx)
        radix = 8 if self.ctx.device.is_cpu else 4
        self.program = cl.build(self.ctx, KERNEL_LIBRARY,
                                {"RADIX_BITS": radix})

    def buf(self, array, tag=""):
        return self.ctx.create_buffer(np.ascontiguousarray(array), tag=tag)

    def empty(self, n, dtype, tag=""):
        return self.ctx.empty(max(int(n), 1), dtype, tag=tag)

    def zeros(self, n, dtype, tag=""):
        return self.ctx.zeros(max(int(n), 1), dtype, tag=tag)

    def run(self, kernel, *args):
        return self.queue.enqueue_kernel(self.program.kernel(kernel), args)


@pytest.fixture(params=["cpu", "gpu"], scope="module")
def rig(request):
    return KernelRig(request.param)


class Launch(NamedTuple):
    """One captured launch: its context, its arguments before and after
    the body ran, and whether the body took its fast path."""

    ctx: object
    before: tuple
    after: tuple
    fast: bool

    def assert_replays_as(self, body, work_fn):
        """``body`` on a copy of the arguments before, in a fresh context
        like the launch's, leaves every argument, counter and the
        ``work_fn`` estimate as the launch did."""
        from repro.cl.kernel import ExecContext

        ctx = ExecContext(self.ctx.device, self.ctx.defines,
                          self.ctx.global_size, self.ctx.local_size, {},
                          self.ctx.data_scale)
        args = _copied(self.before)
        body(ctx, *args)
        for got, want in zip(args, self.after):
            assert np.array_equal(got, want)
        assert ctx.counters == self.ctx.counters
        assert work_fn(ctx, *args) == work_fn(self.ctx, *self.after)


def _copied(args) -> tuple:
    return tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)


#: kernel -> (module, function whose non-``None`` answer is the fast path)
CAPTURED = {
    "ht_probe": ("hashing", "_narrow_low"),
    "radix_histogram": ("radix_sort", "_constant_digit"),
    "radix_reorder": ("radix_sort", "_constant_digit"),
    "radix_reorder_first": ("radix_sort", "_constant_digit"),
}


@pytest.fixture(scope="session")
def warm_het_launches():
    """``{kernel: [Launch, ...]}`` for the kernels of :data:`CAPTURED`
    over one warm pass of the TPC-H workload on HET at SF 0.1 (both
    devices, so both digit widths)."""
    import importlib

    from repro import tpch_database
    from repro.tpch import WORKLOAD

    db = tpch_database(sf=0.1)
    con = db.connect("HET")
    for qid, text in WORKLOAD.items():
        con.execute(text, name=qid)
    launches = {name: [] for name in CAPTURED}
    answers = []
    bodies = {name: KERNEL_LIBRARY[name].vec_fn for name in CAPTURED}

    def capture(name):
        body = bodies[name]

        def vec(ctx, *args):
            before = _copied(args)
            answers.clear()
            body(ctx, *args)
            launches[name].append(Launch(
                ctx, before, _copied(args),
                any(answer is not None for answer in answers)))
        return vec

    with pytest.MonkeyPatch.context() as patch:
        for module_name, rule in set(CAPTURED.values()):
            module = importlib.import_module("repro.kernels." + module_name)
            spied = getattr(module, rule)
            patch.setattr(module, rule, lambda *a, spied=spied: (
                answers.append(spied(*a)) or answers[-1]))
        try:
            for name in CAPTURED:
                object.__setattr__(KERNEL_LIBRARY[name], "vec_fn",
                                   capture(name))
            for qid, text in WORKLOAD.items():
                con.execute(text, name=qid)
        finally:
            for name, body in bodies.items():
                object.__setattr__(KERNEL_LIBRARY[name], "vec_fn", body)
            db.close()
    return launches
