import os
import sys
import threading
import time

import pytest

from jdtok._blockmap import map_blocks


def set_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class Failed(Exception):
    pass


class TestMapBlocks:
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_keeps_item_order(self, monkeypatch, count):
        set_cpus(monkeypatch, count)
        for n in range(21):
            items = [(i, 10 * i) for i in range(n)]
            assert map_blocks(lambda ab: (ab[0], ab[1], ab[0] + ab[1]), items) == [
                (a, b, a + b) for a, b in items
            ]

    def test_no_thread_outlives_the_call(self, monkeypatch):
        before = threading.active_count()
        set_cpus(monkeypatch, 8)
        assert map_blocks(lambda n: sum(range(n)), list(range(500))) == [
            n * (n - 1) // 2 for n in range(500)
        ]
        assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_runs_on_the_caller_only_with_one_cpu(self, monkeypatch, count):
        set_cpus(monkeypatch, count)
        threads = map_blocks(lambda i: threading.get_ident(), list(range(50)))
        assert len(set(threads)) <= count
        assert (threading.get_ident() in threads) == (count == 1)

    def test_an_earlier_failure_is_not_hidden_by_a_later_one(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        later_failed = threading.Event()

        def fn(i):
            if i == 0:  # still running when item 1 fails
                assert later_failed.wait(timeout=30)
                raise Failed(0)
            later_failed.set()
            raise Failed(i)

        with pytest.raises(Failed) as info:
            map_blocks(fn, list(range(10)))
        assert info.value.args == (0,)

    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_lowest_failed_item_is_raised(self, monkeypatch, count):
        set_cpus(monkeypatch, count)

        def fn(i):
            if i in (5, 9, 17):
                raise Failed(i)
            return i

        with pytest.raises(Failed) as info:
            map_blocks(fn, list(range(40)))
        assert info.value.args == (5,)

    def test_no_thread_survives_a_failing_call(self, monkeypatch):
        before = threading.active_count()
        set_cpus(monkeypatch, 8)
        failed = threading.Event()
        ran = []

        def fn(i):
            ran.append(i)
            if i == 0:
                failed.set()
                raise Failed(0)
            assert failed.wait(timeout=30)
            time.sleep(0.01)  # long enough for the failure to stop every thread
            return i

        with pytest.raises(Failed):
            map_blocks(fn, list(range(1000)))
        assert threading.active_count() == before
        assert len(ran) < 100  # after the failure no thread took a new item

    def test_a_thread_that_cannot_start_leaves_none_behind(self, monkeypatch):
        before = threading.active_count()
        set_cpus(monkeypatch, 2)
        start = threading.Thread.start
        started = []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        ran = []

        def fn(i):
            ran.append(i)
            time.sleep(0.01)

        with pytest.raises(RuntimeError, match="can't start new thread"):
            map_blocks(fn, list(range(1000)))
        assert threading.active_count() == before
        assert len(ran) < 100  # the started thread stopped taking items

    def test_each_item_runs_once_under_fast_switching(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows:
        # a lost update of the shared counter would run an item twice or never
        set_cpus(monkeypatch, 8)
        runs = [0] * 5000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def fn(i):
                runs[i] += 1
                return -i

            start = time.monotonic()
            assert map_blocks(fn, range(5000)) == [-i for i in range(5000)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [1] * 5000
        assert time.monotonic() - start < 30
