"""A fixed reference computation used to correct session times for drift.

On a shared 2-core VM the same sessions run up to a third slower in one
process than in the next, and the speed also wanders within a process.  The
reference below is timed before and after every timed operation; dividing an
operation's time by the mean of the two reference times removes most of that
drift.  It does not import ``cascade_sim``, so no change to the program can
move it, and it mixes the kinds of work the program does: dict and tuple
churn, frozen-dataclass rebuilds, struct packing and small numpy reductions.
"""

from __future__ import annotations

import dataclasses
import statistics
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The reference's median time on the machine the README describes, when the
# machine was quiet.  Corrected times are raw times scaled by
# NOMINAL_S / (reference time around the operation), so they read as seconds
# on that machine at that speed.
NOMINAL_S = 0.005
_MIN_REPEATS = 3
# Share of an operation's time spent timing the reference after it.
WINDOW_SHARE = 0.1
# The same for a set-up, which is short: at 0.1 its window would hold only
# the three minimum timings.
SETUP_WINDOW_SHARE = 0.5


@dataclasses.dataclass(frozen=True)
class _Node:
    lo: int
    hi: int
    value: int = 0


_PACK = struct.Struct(">IIB")
_BITS = ((np.arange(4096, dtype=np.int64) * 2654435761 >> 7) & 1).astype(np.uint8)


def reference_work() -> int:
    table: dict = {}
    node = _Node(0, 1)
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) ^ (i & 1)
        node = dataclasses.replace(node, hi=node.hi + 1, value=node.value ^ (i & 1))
        lo, _, _ = _PACK.unpack(_PACK.pack(i, i + 7, i & 1))
        start = lo % 4000
        acc ^= int(np.bitwise_xor.reduce(_BITS[start : start + 64]))
    return acc ^ len(table) ^ node.value


def reference_seconds(window_s: float = 0.0, threads: int = 1) -> float:
    """Median time per call of :func:`reference_work`, timed at least three times.

    Timings continue until they cover ``window_s``.  A short sample is
    noisy on this machine, so a longer operation is corrected by a
    reference taken over a window in proportion to it.  With ``threads=2``
    each timing covers four calls shared by a two-thread pool, so the
    reference pays the same interpreter-lock hand-offs between threads as
    an operation that runs on two threads.
    """
    samples = []
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    calls = 2 * threads if pool else 1
    try:
        started = time.perf_counter()
        while len(samples) < _MIN_REPEATS or time.perf_counter() - started < window_s:
            begun = time.perf_counter()
            if pool:
                for future in [pool.submit(reference_work) for _ in range(calls)]:
                    future.result()
            else:
                reference_work()
            samples.append((time.perf_counter() - begun) / calls)
    finally:
        if pool:
            pool.shutdown()
    return statistics.median(samples)


def correct(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Raw operation time expressed at the reference's nominal speed."""
    return raw_s * NOMINAL_S / ((ref_before + ref_after) / 2)
