"""Arithmetic of the benchmark: percentiles, per-operation best times, self
time of spans and failure counting.  Pure functions, tested in test_bench.py."""

import math

# Failure classes of defects present when the benchmark was defined: they
# count as failed operations but leave a run `correct`.
LINDLEY_TAIL = "lindley-tail-moment"   # Lindley TVaR / tail moments exist nowhere
SMALL_X_CDF = "small-x-cdf"            # cdf = 1 - survival cancels in the lower tail
DEEP_TAIL = "deep-tail-underflow"      # below 1e-200, terms underflow: 0 or lost digits
KNOWN = frozenset({LINDLEY_TAIL, SMALL_X_CDF, DEEP_TAIL})


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it.  With N samples, N - ceil(q N / 100) samples lie
    beyond it, so p90 of 100 samples leaves 10 beyond."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[rank - 1]


def best_per_op(passes):
    """Fastest latency of each operation over the passes of a run.

    `passes` holds one list of latencies per pass, indexed by operation.  On
    a shared host, contention only ever adds time; it comes in phases of
    seconds, so the fastest repeat is far steadier from run to run than any
    one pass, and it still moves with every change to the operation itself.
    """
    return [min(lat) for lat in zip(*passes)]


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part of its interval
    that its children cover.  Children may nest or sit back to back; the
    covered part is the union of their intervals clipped to the parent."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: starts[k]):
            a, b = max(starts[k], reach), min(ends[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


def count_failures(checks, known):
    """Tally oracle verdicts.

    `checks` holds one (op_id, failure_class) pair per operation, with None
    for a pass.  Returns (attempted, failed, unexpected), where `unexpected`
    lists the failures whose class is not in `known`.
    """
    attempted = len(checks)
    failed = [(op, cls) for op, cls in checks if cls is not None]
    unexpected = [(op, cls) for op, cls in failed if cls not in known]
    return attempted, len(failed), unexpected
