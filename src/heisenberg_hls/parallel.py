"""The thread-count rule of the package's thread pool.

The Monte Carlo chunks (montecarlo.mc_bilinear_energy) run on a
ThreadPoolExecutor sized here.  Their work is numpy code, whose ufuncs
release the GIL, and each chunk returns only its own partial sums, so the
result does not depend on the number of threads.  The kernel table's rows
are built one after the other (quadrature.build_kernel_table): with the
angular kernel in numpy a 16x32 table built faster on one thread than on
two on 2 cores.
"""

from __future__ import annotations

import os

# the most threads of the pool, whatever the host: each thread holds one
# chunk (about 6 MiB at n = 3), so the pool's working memory stays bounded
# on a host of any size
MAX_THREADS = 4


def cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_size(tasks: int) -> int:
    """Threads for a pool of `tasks` independent tasks: one per usable CPU,
    at most MAX_THREADS, and at most one per task."""
    return min(cpu_count(), MAX_THREADS, tasks)
