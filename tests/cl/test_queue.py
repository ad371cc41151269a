"""Command queues: scheduling semantics, overlap, stats."""

import numpy as np
import pytest

from repro import cl
from repro.kernels import KERNEL_LIBRARY


@pytest.fixture
def gpu_ctx():
    return cl.Context(cl.NVIDIA_GTX460, data_scale=100.0)


@pytest.fixture
def queue(gpu_ctx):
    return cl.CommandQueue(gpu_ctx)


@pytest.fixture
def program(gpu_ctx):
    return cl.build(gpu_ctx, KERNEL_LIBRARY)


def launch(queue, program, name, *args):
    return queue.enqueue_kernel(program.kernel(name), args)


def test_kernel_waits_for_input_producers(gpu_ctx, queue, program):
    src = gpu_ctx.empty(1024, np.int32, tag="src")
    write = queue.enqueue_write(src, np.arange(1024, dtype=np.int32))
    out = gpu_ctx.empty(1024, np.int32, tag="out")
    kernel = launch(queue, program, "ewise_scalar", out, src, 1024, "add", 5)
    assert kernel.t_start >= write.t_end
    assert np.array_equal(out.array, np.arange(1024) + 5)


def test_transfer_overlaps_independent_kernel(gpu_ctx, queue, program):
    """Fig. 3: a transfer on the copy engine can run while an unrelated
    kernel occupies the compute engine."""
    a = gpu_ctx.create_buffer(np.arange(1 << 20, dtype=np.int32), tag="a")
    out = gpu_ctx.empty(1 << 20, np.int32, tag="o")
    kernel = launch(queue, program, "ewise_scalar", out, a, 1 << 20, "add",
                    1)
    b = gpu_ctx.empty(1 << 20, np.int32, tag="b")
    transfer = queue.enqueue_write(b, np.zeros(1 << 20, np.int32))
    # independent: transfer starts before the kernel finishes
    assert transfer.t_start < kernel.t_end
    assert transfer.engine != kernel.engine


def test_dependent_commands_serialise(gpu_ctx, queue, program):
    a = gpu_ctx.create_buffer(np.arange(256, dtype=np.int32))
    out = gpu_ctx.empty(256, np.int32)
    k1 = launch(queue, program, "ewise_scalar", out, a, 256, "add", 1)
    host, read = queue.enqueue_read(out)
    assert read.t_start >= k1.t_end
    assert np.array_equal(host, np.arange(256) + 1)


def test_finish_joins_all_timelines(gpu_ctx, queue, program):
    a = gpu_ctx.create_buffer(np.arange(256, dtype=np.int32))
    t = queue.finish()
    out = gpu_ctx.empty(256, np.int32)
    kernel = launch(queue, program, "ewise_scalar", out, a, 256, "add", 1)
    t2 = queue.finish()
    assert t2 >= kernel.t_end >= t
    # after finish, new commands cannot start earlier than the makespan
    late = launch(queue, program, "ewise_scalar", out, a, 256, "add", 2)
    assert late.t_start >= t2


def test_host_submit_gates_start(gpu_ctx):
    queue = cl.CommandQueue(gpu_ctx)
    buf = gpu_ctx.empty(16, np.int32)
    event = queue.enqueue_write(buf, np.zeros(16, np.int32))
    assert event.t_submit >= gpu_ctx.device.host_submit_time()
    assert event.t_start >= event.t_submit


def test_stats_accumulate(gpu_ctx, queue, program):
    a = gpu_ctx.empty(1024, np.int32)
    queue.enqueue_write(a, np.zeros(1024, np.int32))
    out = gpu_ctx.empty(1024, np.int32)
    launch(queue, program, "ewise_scalar", out, a, 1024, "add", 1)
    queue.enqueue_read(out)
    stats = queue.stats
    assert stats.kernels_launched == 1
    assert stats.transfers_to_device == 1
    assert stats.transfers_from_device == 1
    assert stats.bytes_to_device == 1024 * 4 * 100  # nominal
    assert stats.kernel_seconds > 0


def test_timeline_sorted(gpu_ctx, queue, program):
    a = gpu_ctx.create_buffer(np.arange(64, dtype=np.int32))
    out = gpu_ctx.empty(64, np.int32)
    for k in range(3):
        launch(queue, program, "ewise_scalar", out, a, 64, "add", k)
    events = queue.timeline()
    starts = [e.t_start for e in events]
    assert starts == sorted(starts)


def test_size_mismatch_write_rejected(gpu_ctx, queue):
    buf = gpu_ctx.empty(16, np.int32)
    with pytest.raises(cl.InvalidKernelArgs):
        queue.enqueue_write(buf, np.zeros(8, np.int32))


def test_kernel_arg_validation(gpu_ctx, queue, program):
    out = gpu_ctx.empty(16, np.uint8)
    with pytest.raises(cl.InvalidKernelArgs):
        # missing arguments
        launch(queue, program, "select_bitmap", out)
    with pytest.raises(cl.InvalidKernelArgs):
        # scalar passed where a buffer is expected
        launch(queue, program, "gather", out, 5, out, 4)


def _scratch_kernel(ctx, out, tmp, n):
    out[: int(n)] = 1


def _scratch_work(ctx, out, tmp, n):
    return cl.KernelWork(elements=int(n), bytes_written=4 * int(n))


#: a kernel with a ``__local`` parameter (the library has none)
SCRATCH = cl.KernelDef(
    name="scratch",
    params=cl.params("out:res local:tmp scalar:n"),
    vec_fn=_scratch_kernel,
    work_fn=_scratch_work,
)


class TestRejectedLaunches:
    """One case per ``InvalidKernelArgs`` branch of ``KernelDef.bind``,
    each with its message; a rejected launch runs nothing and schedules
    nothing: the host clock, the launch count, the buffers' contents and
    their event registries are as they were."""

    @pytest.fixture
    def rig(self, gpu_ctx, queue, program):
        program.add(SCRATCH)
        src = gpu_ctx.create_buffer(np.arange(8, dtype=np.int32), tag="src")
        idx = gpu_ctx.create_buffer(np.arange(4, dtype=np.uint32), tag="idx")
        out = gpu_ctx.empty(4, np.int32, tag="out")
        queue.enqueue_write(src, np.arange(8, dtype=np.int32))
        launch(queue, program, "gather", out, src, idx, 4)
        return program, out, src, idx

    def rejected(self, queue, program, name, args, buffers) -> str:
        before = (
            queue.host_time,
            queue.stats.kernels_launched,
            [(list(b.producer_events), list(b.consumer_events))
             for b in buffers],
            [b.array.copy() for b in buffers if not b.released],
        )
        with pytest.raises(cl.InvalidKernelArgs) as err:
            launch(queue, program, name, *args)
        after = (
            queue.host_time,
            queue.stats.kernels_launched,
            [(list(b.producer_events), list(b.consumer_events))
             for b in buffers],
            [b.array.copy() for b in buffers if not b.released],
        )
        assert after[:3] == before[:3]
        assert all(np.array_equal(x, y) for x, y in zip(after[3], before[3]))
        return str(err.value)

    def test_arity(self, queue, rig):
        program, out, src, idx = rig
        assert self.rejected(
            queue, program, "gather", (out, src), (out, src)
        ) == "kernel 'gather' takes 4 args, got 2"

    def test_a_memory_parameter_takes_a_buffer(self, queue, rig):
        program, out, src, idx = rig
        assert self.rejected(
            queue, program, "gather", (out, 5, idx, 4), (out, idx)
        ) == "kernel 'gather' arg 'src' must be a Buffer, got int"

    def test_a_released_buffer(self, queue, rig):
        program, out, src, idx = rig
        src.release()
        assert self.rejected(
            queue, program, "gather", (out, src, idx, 4), (out, src, idx)
        ) == "kernel 'gather' got released buffer 'src'"

    def test_a_local_parameter_takes_a_placeholder(self, queue, rig):
        program, out, src, idx = rig
        assert self.rejected(
            queue, program, "scratch", (out, 16, 4), (out,)
        ) == "kernel 'scratch' arg 'tmp' must be a Local placeholder, got int"

    @pytest.mark.parametrize("memory", ["buffer", "local"])
    def test_a_scalar_parameter_takes_no_memory_object(self, queue, rig,
                                                       memory):
        program, out, src, idx = rig
        arg = out if memory == "buffer" else cl.Local(4, np.int32)
        assert self.rejected(
            queue, program, "gather", (out, src, idx, arg), (out, src, idx)
        ) == "kernel 'gather' arg 'n' is scalar but a memory object was passed"

    def test_a_well_formed_launch_of_the_same_kernels_runs(self, queue, rig):
        program, out, src, idx = rig
        launched = queue.stats.kernels_launched
        launch(queue, program, "scratch", out, cl.Local(4, np.int32), 4)
        assert queue.stats.kernels_launched == launched + 1
        assert out.array.tolist() == [1, 1, 1, 1]


def test_released_queue_rejects_commands(gpu_ctx, queue):
    queue.release()
    with pytest.raises(cl.DeviceLost):
        queue.enqueue_marker()


def test_enqueue_copy(gpu_ctx, queue):
    src = gpu_ctx.create_buffer(np.arange(128, dtype=np.int32))
    dst = gpu_ctx.empty(128, np.int32)
    event = queue.enqueue_copy(dst, src)
    assert np.array_equal(dst.array, src.array)
    assert event.duration > 0


class TestSessionTimelines:
    """Per-session floors and frontiers (serve layer, ARCHITECTURE.md)."""

    def test_session_floor_gates_only_that_session(self, gpu_ctx, queue):
        a = gpu_ctx.empty(1 << 18, np.int32, tag="a")
        queue.open_session("s1", 0.0)
        queue.open_session("s2", 0.0)
        queue.advance_session_to("s1", 1.0)   # s1 waits on a foreign epoch
        queue.current_session = "s2"
        ev2 = queue.enqueue_write(a, np.zeros(1 << 18, np.int32))
        assert ev2.t_start < 1.0              # s2 is unaffected
        queue.current_session = "s1"
        b = gpu_ctx.empty(1 << 18, np.int32, tag="b")
        ev1 = queue.enqueue_write(b, np.zeros(1 << 18, np.int32))
        assert ev1.t_start >= 1.0             # s1 honours its floor
        queue.current_session = None

    def test_session_time_tracks_frontier_and_floor(self, gpu_ctx, queue):
        queue.open_session("s", 0.5)
        assert queue.session_time("s") == 0.5  # floor only, no commands
        queue.current_session = "s"
        a = gpu_ctx.empty(1 << 16, np.int32, tag="a")
        ev = queue.enqueue_write(a, np.zeros(1 << 16, np.int32))
        queue.current_session = None
        assert ev.t_start >= 0.5
        assert queue.session_time("s") == ev.t_end

    def test_a_floored_session_pays_for_its_enqueues(self, gpu_ctx, queue):
        """Regression: a session floored past the queue's host clock
        started its first command *at* the floor — the enqueue's submit
        cost hid in the idle past, and a lone session came out one
        ``host_submit_us`` cheaper than the same query joined there."""
        submit = queue.device.host_submit_time()
        queue.open_session("s", 1.0)
        queue.current_session = "s"
        first = queue.enqueue_marker()
        second = queue.enqueue_marker()
        queue.current_session = None
        assert first.t_start == 1.0 + submit
        assert second.t_start == 1.0 + submit + submit
        assert queue.session_time("s") == second.t_end

    def test_close_session_forgets_state(self, gpu_ctx, queue):
        queue.open_session("s", 2.0)
        queue.close_session("s")
        assert queue.session_time("s") == 0.0

    def test_sessions_share_engine_order(self, gpu_ctx, queue):
        """The queue stays in-order across sessions: same-device
        contention is real even when cross-device barriers are not."""
        a = gpu_ctx.empty(1 << 20, np.int32, tag="a")
        b = gpu_ctx.empty(1 << 20, np.int32, tag="b")
        queue.open_session("s1", 0.0)
        queue.open_session("s2", 0.0)
        queue.current_session = "s1"
        ev1 = queue.enqueue_write(a, np.zeros(1 << 20, np.int32))
        queue.current_session = "s2"
        ev2 = queue.enqueue_write(b, np.zeros(1 << 20, np.int32))
        queue.current_session = None
        assert ev2.t_start >= ev1.t_end   # copy engine is in-order
