"""What the benchmark's timing wrappers and the poison fixture rely on.

``perf/yardstick/spans.py`` times a kernel by swapping wrappers onto the
*built* ``KernelDef`` (it is frozen, so with ``object.__setattr__``) and
times every layer by replacing its entry points in place;
``test_poisoned_allocations.py`` replaces ``Context.empty``.  Each only
works while the program reads those attributes at call time.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cl
from repro.cl import Context
from repro.kernels import KERNEL_LIBRARY
from repro.monetdb.storage import Catalog
from repro.ocelot.engine import OcelotEngine
from repro.ocelot.memory import BufferKind

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def engine():
    engine = OcelotEngine(Catalog(), "cpu")
    # a private copy of ``fill``: the library's definitions are shared
    engine.program.add(dataclasses.replace(KERNEL_LIBRARY["fill"],
                                           name="fill_copy"))
    return engine


def swap(definition, attr, calls):
    original = getattr(definition, attr)

    def wrapped(*args):
        calls.append(attr)
        return original(*args)

    object.__setattr__(definition, attr, wrapped)


@pytest.mark.parametrize("door", ["engine", "queue"])
def test_a_body_swapped_onto_a_built_definition_runs_next(engine, door):
    buf = engine.context.empty(8, np.int32)
    kernel = engine.program.kernel("fill_copy")

    def launch(value):
        if door == "engine":
            engine.launch("fill_copy", buf, 8, value)
        else:
            engine.queue.enqueue_kernel(kernel, (buf, 8, value))

    launch(1)
    calls: list[str] = []
    swap(kernel.definition, "vec_fn", calls)
    swap(kernel.definition, "work_fn", calls)
    launch(2)
    assert calls == ["vec_fn", "work_fn"]
    assert buf.array.tolist() == [2] * 8


@pytest.mark.parametrize("zeroed", [False, True])
def test_the_memory_manager_allocates_through_the_context(
        engine, monkeypatch, zeroed):
    made = []
    door = "zeros" if zeroed else "empty"
    original = getattr(Context, door)

    def recording(self, shape, dtype, tag=""):
        made.append((shape, np.dtype(dtype), tag))
        return original(self, shape, dtype, tag=tag)

    monkeypatch.setattr(Context, door, recording)
    buffer = engine.memory.allocate(16, np.float64, BufferKind.RESULT,
                                    tag="t", zeroed=zeroed)
    assert made == [(16, np.dtype(np.float64), "t")]
    engine.memory.release(buffer)


def test_every_entry_point_the_spans_wrap_exists():
    """``install()`` looks each entry point up by name and fails on the
    first one that is gone.  It patches classes in place, so it runs in
    its own interpreter."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from yardstick.spans import Recorder, install\n"
        "install(Recorder())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perf"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
