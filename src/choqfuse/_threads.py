"""One thread per CPU for the large-N layer: chunked fusion and evaluation.

numpy's sorts, gathers and ufuncs release the interpreter lock, so chunks
of one large array run in parallel on threads of one process.
"""

from __future__ import annotations

import os


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(work, items) -> list:
    """``[work(item) for item in items]`` on one thread per CPU, at most one per item.

    With one CPU or one item it runs on the calling thread and imports no
    thread pool.  Every thread has ended when it returns, and it re-raises
    the error of the first item that failed.
    """
    items = list(items)
    workers = min(cpu_count(), len(items))
    if workers < 2:
        return [work(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # only large batches pay the import

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(work, items))  # reading every result re-raises a chunk's error
