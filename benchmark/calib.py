"""A fixed reference computation, timed next to the queries, that the
end-to-end times are expressed in.

The host this benchmark was tuned on is a shared virtual machine whose CPU
speed drifts by up to 1.6x over seconds to minutes, so raw wall times of
the same code spread by 25-50% between runs.  Every ~50 ms of query time
the loop runs this reference once; each query's wall and CPU time is
divided by the median of the reference samples taken just before and after
it.  The quotient, in
"ref" units, is the query's cost relative to a fixed pure-Python
computation run at the same moment, so host drift cancels while a change in
namelogic's own speed shows in full.

The reference is the benchmark's own set-based evaluator (refcheck.py) on a
fixed 12-state model and a fixed 40-node formula: the same kind of work as
the queries (tuples, frozensets, dictionaries), and nothing from namelogic,
so no change to the library can move it.  It never depends on --seed.  GC is
off while it runs, so its time does not grow with the size of the heap that
the workload keeps alive.
"""

from __future__ import annotations

import gc
import statistics
import time

import gen
import refcheck

INTERVAL_S = 0.05  # query time between two reference samples

_rng = gen.make_rng(0, "reference")
_MODEL = refcheck.RefModel(gen.relational_model(_rng, 12, "general"))
_TEXT = gen.to_text(gen.shallow_formula(_rng, 40, modal="ESCD"))


def sample() -> float:
    """Wall seconds of one run of the reference (about 1 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            refcheck.extension(_MODEL, refcheck.parse(_TEXT))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local(refs: list[float], k: int) -> float:
    """The reference time around a query that ran between samples k-1 and k:
    the median of the two samples before it and the two after it."""
    return statistics.median(refs[max(0, k - 2):k + 2])
