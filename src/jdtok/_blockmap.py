"""One map over independent blocks, spread over the CPUs the process may use.

The codec commands and the multi-resolution STFT loss both walk their data
in blocks whose work is native numpy code that releases the interpreter
lock, so threads overlap it.  ``map_blocks`` is their one way to do so.
"""

from __future__ import annotations

import os
import threading


def map_blocks(fn, items) -> list:
    """``[fn(item) for item in items]``, on one thread per usable CPU.

    The CPUs are those the process may run on now (``os.sched_getaffinity``,
    read on each call; 1 where the platform has no such call), and never
    more threads than items.  With one thread this is the plain loop, run
    by the caller.  Otherwise the caller waits while each thread takes the
    next item index from one shared counter, so a thread that finishes a
    cheap item, or gets its CPU back, takes the next one.  The results come
    back in item order.

    If items fail, the exception of the lowest-index failed item is raised,
    as the plain loop would raise it: items are taken in index order, so
    every item below a failed one was taken before it and runs to its end.
    After a failure no thread takes a new item, and every thread has ended
    when this returns or raises.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    workers = min(len(affinity(0)) if affinity else 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    taken = [0]  # the next item index, read and advanced under ``lock``
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                i = taken[0]
                taken[0] = i + 1
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again by the caller, below
                failures[i] = exc
                stop.set()

    threads = []
    try:
        for w in range(workers):
            thread = threading.Thread(target=work, name=f"jdtok-block-{w}")
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # a caller interrupted, or short of threads, leaves none taking items
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
