"""The tail percentile of a set of latency samples."""

import math
import statistics

# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Returns (percentile, value, count) for the tail of `samples`.

    The percentile is the highest whole percentile p such that at least
    `beyond` samples lie strictly above the sample at rank ceil(p/100 * n)
    (nearest-rank). With `beyond` or fewer samples no such percentile
    exists, and the tail is the median (p = 50), so the metric stays
    defined; `count` states how many samples it rests on.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return p, values[rank - 1], n
    return 50, statistics.median(values), n
