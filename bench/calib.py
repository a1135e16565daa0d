"""The calibration kernel: what the host's speed is, right now.

On the sizing host (2 vCPU, shared) the same work slows by 30-150 % for
seconds to minutes at a time.  A fixed kernel of the same kind of work —
tuple-keyed dicts, JSON both ways, a sort, a numpy argsort, about 25 ms —
slows with it, so it runs at every window boundary and what it read is
*recorded* beside the metrics (``host.calib_ms``, ``host.calib_spread``,
the ``noisy`` flag of a result file).  It is never divided into a metric:
every time the benchmark reports is wall-clock time as measured.

Without numpy the array step runs over plain lists (the kernel only has
to be the same from run to run on one host).
"""

from __future__ import annotations

import json
import time

try:
    import numpy
except ImportError:  # the repo supports numpy-less hosts
    numpy = None


def kernel() -> int:
    table = {}
    for index in range(12_000):
        table[(index % 4001, str(index % 97))] = (index, str(index))
    rows = [[key[0], key[1], value[0]] for key, value in table.items()]
    back = json.loads(json.dumps(rows))
    back.sort(key=lambda row: (row[1], row[0]))
    if numpy is not None:
        values = numpy.arange(100_000, dtype=numpy.int64)
        order = numpy.argsort((values * 2654435761) % 1000003)
        return len(back) + int(values[order][::1000].sum())
    values = sorted(range(20_000), key=lambda v: (v * 2654435761) % 1000003)
    return len(back) + sum(values[::1000])


def measure() -> float:
    """One kernel run, in milliseconds."""
    start = time.perf_counter()
    kernel()
    return 1000.0 * (time.perf_counter() - start)
