"""READ accessors are read-only capabilities, on every backend.

A body holding READ on a region gets ``read`` / ``read_nd`` arrays with
``writeable=False``: a write through one raises ``ValueError`` at the
write.  On the serial backend the launch raises it; on pipe workers
(storage mapped from the parent) and socket workers (private copies) the
unit answers "error" and the parent re-runs the launch serially, which
raises it the same way — so the exception type and the storage bytes
afterwards are the same on all three.
"""

import numpy as np
import pytest

from repro.core.domain import Rect
from repro.data.partition import block_partition, equal_partition
from repro.exec.pool import shutdown_pools
from repro.runtime import Runtime, RuntimeConfig, task

BACKENDS = {
    "serial": dict(workers=1),
    "pipe": dict(workers=2, transport="pipe"),
    "socket": dict(workers=2, transport="socket"),
}


@task(privileges=["reads", "reads writes"])
def write_through_read(ctx, src, dst):
    dst.write("x", src.read("x") + 1.0)
    src.read("x")[0] = 99.0                   # a 1-D view of storage


@task(privileges=["reads", "reads writes"])
def write_through_read_nd(ctx, src, dst):
    dst.write("x", src.read_nd("x") * 2.0)
    src.read_nd("x")[...] = 99.0              # an N-D view of storage


@task(privileges=["reads", "reads writes"])
def write_into_gathered_copy(ctx, src, dst):
    dst.write("x", src.read("x") * 2.0)
    src.read("x")[...] = 99.0                 # a 2-D read is a copy


BODIES = [
    (write_through_read, 1),
    (write_through_read_nd, 2),
    (write_into_gathered_copy, 2),
]


def _outcome(backend, body, dim):
    """The exception type the launch raises and both regions' bytes."""
    shutdown_pools()
    rt = Runtime(RuntimeConfig(n_nodes=2, **BACKENDS[backend]))
    try:
        shape = 16 if dim == 1 else Rect((0, 0), (3, 3))
        src = rt.create_region("src", shape, {"x": "f8"})
        dst = rt.create_region("dst", shape, {"x": "f8"})
        src.storage("x")[:] = np.arange(16.0)
        if dim == 1:
            psrc = equal_partition(f"ro_s{src.uid}", src, 4)
            pdst = equal_partition(f"ro_d{dst.uid}", dst, 4)
        else:
            psrc = block_partition(f"ro_s{src.uid}", src, (2, 2))
            pdst = block_partition(f"ro_d{dst.uid}", dst, (2, 2))
        with pytest.raises(Exception) as excinfo:
            rt.index_launch(body, psrc.color_space, psrc, pdst)
        return (type(excinfo.value), src.storage("x").tobytes(),
                dst.storage("x").tobytes())
    finally:
        rt.backend.shutdown()
        shutdown_pools()


@pytest.mark.parametrize("body,dim", BODIES, ids=[b.name for b, _ in BODIES])
def test_a_write_through_a_read_view_raises_alike_everywhere(body, dim):
    outcomes = {name: _outcome(name, body, dim) for name in BACKENDS}
    serial = outcomes["serial"]
    assert serial[0] is ValueError
    assert serial[1] == np.arange(16.0).tobytes()     # source untouched
    for name, outcome in outcomes.items():
        assert outcome == serial, name
