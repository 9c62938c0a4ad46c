import os

import pytest

from sispace import forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ranges_come_back_in_order_the_first_from_this_process():
    results = forks.run_ranges(lambda first, last: (first, last, os.getpid()), [0, 3, 5, 9])
    assert [(first, last) for first, last, _ in results] == [(0, 3), (3, 5), (5, 9)]
    pids = [pid for _, _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()
    # one range forks nothing
    assert forks.run_ranges(lambda first, last: os.getpid(), [0, 9]) == [os.getpid()]


def test_a_child_that_exits_without_a_word_is_a_child_process_error():
    def task(first, last):
        if first:
            os._exit(5)
        return first

    with pytest.raises(ChildProcessError, match="exited with 5"):
        forks.run_ranges(task, [0, 1, 2])
    assert_no_child_left()
