import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0
                else f"child process {pid} was never reaped")


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test after which this process holds a file descriptor that it
    did not hold before the test (where ``/proc/self/fd`` lists them)."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    left = set(os.listdir("/proc/self/fd")) - before
    targets = {}
    for fd in left:
        try:
            targets[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            pass
    if targets:
        pytest.fail(f"file descriptors left open: {targets}")


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made in this process from here on (none where
    there is no ``os.fork``)."""
    calls = []
    if hasattr(os, "fork"):
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    return calls
