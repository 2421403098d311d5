"""A fixed calibration loop that measures how fast this machine runs right now.

On a shared host, other tenants change how fast a process runs, by 10-40 %,
for half a minute to several minutes at a time. Such a phase moves every chain
of a run alike, so no statistic over one run's chains removes it. The
benchmark therefore times this loop between its stage chains, for about a
tenth of each chain's time, and scales the chains' median wall time by the
ratio of the loop's time on the reference machine (``REFERENCE_S``) to its
median time in the run.

The loop is interpreter-bound Python over a working set larger than the
caches: lookups at random keys of a dict of 200 000 floats, and small objects
allocated and dropped, as the pipeline's Python code does. Loops of pure
arithmetic, of numpy calls on small arrays or of a dense Cholesky sped up
about twice as much as the stage chains in the host's fast phases, so they
overcorrected. Over twelve 35 s windows of back-to-back `open-coverage`
chains on a shared 2-core VM, the quartile distance of the windows' median
chain time was 0.28 of its median as measured and 0.06 once scaled by this
loop.

It uses only the standard library, never the code under test, so a change
to ``uavrank`` cannot move it. Its table stays loaded, which adds about
30 MB to every run's peak RSS.
"""

import random
import time

# Seconds of one loop on the reference machine (Intel Xeon at 2.1 GHz, 2 shared
# cores, Python 3.11.7): about the median over its fast and slow phases.
REFERENCE_S = 0.30

TABLE_SIZE = 200_000
LOOKUPS = 20_000
ROUNDS = 16
_rng = random.Random(20250214)
_TABLE = {k: float(k) for k in range(TABLE_SIZE)}
_KEYS = [_rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]


def work() -> float:
    """One fixed unit of work; returns a checksum so no part is skipped."""
    acc = 0.0
    for _ in range(ROUNDS):
        for k in _KEYS:
            acc += _TABLE[k]
        held = [(k, [k]) for k in _KEYS]
        acc += len(held)
    return acc


def loop_s() -> float:
    """Wall time of one unit of work, in seconds."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def samples(seconds: float) -> list[float]:
    """Times of one loop or more, until they add up to ``seconds``."""
    out = [loop_s()]
    while sum(out) < seconds:
        out.append(loop_s())
    return out
