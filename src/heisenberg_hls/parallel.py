"""The thread-count rule of the package's thread pools.

Two loops run their independent tasks on a ThreadPoolExecutor: the Monte
Carlo chunks (montecarlo.mc_bilinear_energy) and the kernel-table rows
(quadrature.build_kernel_table).  Their work is native code, and each
task writes only its own output, so neither result depends on the number
of threads; both pools are sized here.  Threads overlap only where that
code releases the GIL: numpy's ufuncs do, but on the kernel table's
arguments scipy 1.17.1's hyp2f1 and ellipk ran no faster on two threads
than on one, so the table pool overlaps only the numpy part of a row
(see quadrature).
"""

from __future__ import annotations

import os

# the most threads of one pool, whatever the host: each MC thread holds one
# chunk (about 6 MiB at n = 3) and each table thread one row's exact-zone
# temporaries (up to 1.96 MiB on 64x128), so a pool's working memory stays
# bounded on a host of any size
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
