"""A fixed pure-Python reference loop that tracks the host's speed.

On a shared host the CPU this process gets runs at different speeds for
seconds to minutes at a time; the program's times and this loop's time move
together.  The benchmark times the loop between inputs and reports each
input's time as ``elapsed * REF_S / local reference time``: seconds at the
speed the host had when ``REF_S`` was measured.  A change to the program
moves that figure in full; a change of host speed mostly cancels.
"""

from __future__ import annotations

import statistics
import time

# Median time of one reference_call() on a 2-vCPU share of an Intel Xeon
# host, Python 3.11, in its usual (slower) phase.  Only a scale factor: it
# makes the reported figures read as seconds on that host.
REF_S = 1.0e-3

REF_CALLS = 9  # calls per reference measurement; their median is the result

_N = 500


def reference_call():
    """Adjacency lists, a set-guarded scan and a sort, as the parser and the
    MCS loops do."""
    adj = [[] for _ in range(_N)]
    for i in range(3_000):
        a = (i * 7919) % _N
        b = (i * 104_729) % _N
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    order = []
    for v in range(_N):
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    order.sort()
    return order


def reference_time() -> float:
    """Median wall time of one reference_call() over REF_CALLS calls."""
    samples = []
    for _ in range(REF_CALLS):
        t0 = time.perf_counter()
        reference_call()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
