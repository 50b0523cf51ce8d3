import os
import pickle

import pytest

from tcm_tangles import workers

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forks workers")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cpu_map_runs_contiguous_runs_in_item_order(monkeypatch):
    # more workers than this host has cores: 7 items on 3 workers run as 2, 2 and 3
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 3)
    results = workers.cpu_map(lambda item: (item * item, os.getpid()), range(7))
    assert [square for square, _ in results] == [i * i for i in range(7)]
    pids = [pid for _, pid in results]
    assert pids == [pids[0]] * 2 + [pids[2]] * 2 + [pids[4]] * 3
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert_no_child_left()


def test_cpu_map_runs_in_process_for_one_cpu_or_one_item(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert workers.cpu_map(lambda item: (item, os.getpid()), [5]) == [(5, os.getpid())]
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 1)
    assert workers.cpu_map(lambda item: item + 1, range(4)) == [1, 2, 3, 4]
    assert workers.cpu_map(lambda item: item, []) == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_cpu_map_raises_the_first_exception_in_item_order(monkeypatch, cpus):
    # items 3 and 6 fail; item 6's worker may fail first, but item 3 is reported
    monkeypatch.setattr(workers, "allowed_cpus", lambda: cpus)

    def job(item):
        if item in (3, 6):
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match=r"^item 3$"):
        workers.cpu_map(job, range(8))
    assert_no_child_left()


def test_cpu_map_reports_a_dead_worker(monkeypatch):
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    parent = os.getpid()

    def dies(item):
        if item == 1 and os.getpid() != parent:
            os._exit(3)
        return item

    message = r"^a worker process exited with code 3 before it sent its results$"
    with pytest.raises(RuntimeError, match=message):
        workers.cpu_map(dies, range(2))
    assert_no_child_left()


def test_cpu_map_reports_an_unpicklable_result(monkeypatch):
    # a local function cannot be pickled, so the worker sends the pickling error
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    with pytest.raises((AttributeError, pickle.PicklingError), match=r"(?i)can't pickle"):
        workers.cpu_map(lambda item: lambda: item, range(2))
    assert_no_child_left()
