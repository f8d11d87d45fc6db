import os
import signal
from pathlib import Path

import pytest

from dsnls import harness

_TASKS = Path("/proc/self/task")


def child_pids() -> list:
    """The pids of this process's child processes, running or not yet reaped."""
    return sorted(int(pid) for f in _TASKS.glob("*/children") for pid in f.read_text().split())


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(n) makes the harness see n usable CPUs, whatever the machine has."""
    def pin(n):
        monkeypatch.setattr(harness, "usable_cpus", lambda: n)
    return pin


@pytest.fixture
def children():
    """child_pids, for a test that looks at the processes it started."""
    return child_pids


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind (a chunk worker, the
    noise producer or the trajectory writer), and kill and reap what it left,
    so the next test starts clean."""
    yield
    if not any(_TASKS.glob("*/children")):
        return  # no /proc, or a kernel without the children files
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped meanwhile
    if left:
        pytest.fail(f"the test left child processes {left}")
