"""``_threads.fan_out``: the calling thread and its helpers share one item counter."""

import sys
import threading

import pytest

from choqfuse import _threads
from choqfuse._threads import fan_out


def record_threads(items, cpus):
    """Run ``fan_out`` over ``items``; returns the results and the thread of each item.

    Each thread's first item waits until every thread that may start has
    taken one, so the count of distinct threads reaches its bound on any
    scheduler.
    """
    threads, lock = [], threading.Lock()
    first_items = threading.Barrier(max(1, min(cpus, len(items))))

    def work(item):
        me = threading.current_thread()
        with lock:
            first = me not in threads
            threads.append(me)
        if first:
            first_items.wait(timeout=30)
        return item * item

    return fan_out(work, items), threads


class TestFanOut:
    @pytest.mark.parametrize("count", [0, 1, 2, 9])
    def test_results_come_back_in_item_order(self, cpus, count):
        results, _ = record_threads(range(count), cpus)
        assert results == [i * i for i in range(count)]

    @pytest.mark.parametrize("count", [2, 9])
    def test_the_caller_and_at_most_one_thread_per_cpu_do_the_work(self, cpus, count):
        _, threads = record_threads(list(range(count)), cpus)
        used = set(threads)
        assert threading.current_thread() in used
        assert len(used) == min(cpus, count)

    def test_one_cpu_or_one_item_starts_no_thread(self, cpus, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        for count in [0, 1] + ([9] if cpus == 1 else []):
            results, threads = record_threads(list(range(count)), cpus)
            assert results == [i * i for i in range(count)]
            assert set(threads) <= {threading.current_thread()}
        assert started == []

    def test_the_lowest_index_failure_is_raised_when_a_higher_one_fails_first(self, cpus):
        higher_failed = threading.Event()

        def work(i):
            if i == 0:
                # On one thread item 0 runs first; on several it waits for item 1's failure.
                assert cpus == 1 or higher_failed.wait(timeout=30)
                raise KeyError(0)
            if i == 1:
                higher_failed.set()
                raise KeyError(1)
            return i

        with pytest.raises(KeyError) as raised:
            fan_out(work, range(6))
        assert raised.value.args == (0,)

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "error"])
    def test_no_helper_outlives_the_call(self, cpus, fails):
        threads = []

        def work(i):
            threads.append(threading.current_thread())
            if fails and i == 5:
                raise ValueError(i)
            return i

        before = threading.active_count()
        if fails:
            with pytest.raises(ValueError):
                fan_out(work, range(9))
        else:
            assert fan_out(work, range(9)) == list(range(9))
        assert not any(t.is_alive() for t in threads if t is not threading.current_thread())
        assert threading.active_count() == before


def test_the_affinity_mask_bounds_the_threads():
    """Unpatched: runs inline when the process may use one CPU, as under ``taskset -c 0``."""
    cpus = _threads.cpu_count()
    _, threads = record_threads(list(range(9)), cpus)
    assert len(set(threads)) == min(cpus, 9)
    if cpus == 1:
        assert set(threads) == {threading.current_thread()}


def test_every_item_runs_once_on_more_threads_than_cpus(monkeypatch):
    """A lost or doubled counter step would skip an item or run one twice."""
    monkeypatch.setattr(_threads, "cpu_count", lambda: 8)
    runs = [0] * 3000

    def work(i):
        runs[i] += 1  # each index is handed out once, so no two threads write one cell
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = fan_out(work, range(len(runs)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [-i for i in range(len(runs))]
    assert runs == [1] * len(runs)
