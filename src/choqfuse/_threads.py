"""One thread per CPU for the large-N layer: chunked fusion and evaluation.

numpy's sorts, gathers and ufuncs release the interpreter lock, so chunks
of one large array run in parallel on threads of one process.  A call on
k items and c CPUs runs on ``min(c, k)`` threads, the calling thread one of
them: it starts ``min(c, k) - 1`` helpers, and none with one CPU or one item.
"""

from __future__ import annotations

import os
import threading


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(work, items) -> list:
    """``[work(item) for item in items]`` on one thread per CPU, at most one per item.

    The calling thread and its helpers take the next item index from one
    shared counter until none is left.  Every helper has ended when it
    returns, and it re-raises the error of the lowest-index item that
    failed.  After a failure no thread takes a new item; every lower index
    was taken before it, so the lowest failure is always among those run.
    """
    items = list(items)
    helpers = min(cpu_count(), len(items)) - 1
    if helpers < 1:
        return [work(item) for item in items]
    results = [None] * len(items)
    errors = {}
    indices = iter(range(len(items)))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = None if errors else next(indices, None)
            if i is None:
                return
            try:
                results[i] = work(items[i])
            except BaseException as error:  # re-raised on the calling thread
                with lock:
                    errors[i] = error

    threads = [threading.Thread(target=drain) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        drain()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
