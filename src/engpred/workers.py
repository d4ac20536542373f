"""How many CPUs a stage may spread its work over.

``engpred aggregate --shards N`` and ``engpred train`` start worker processes
only when this process may run on more than one CPU. Both pools use the
platform's default start method: on Linux (before Python 3.14) that is fork,
and a worker inherits the imported program. Spawn would import numpy and the
caller's main module again in every worker, about 0.4 s per pool on 2 CPUs,
with 12 MiB more resident per worker.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
