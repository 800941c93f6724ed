"""Shared fixtures: bundled scenario access, a run cache, and the check
that forked work leaves nothing behind.

Scenario executions are deterministic, so tests that need the same
bundled run (classification, orderings, determinism) share one cached
execution per scenario instead of re-simulating.
"""

import contextlib
import os
import threading
from importlib import resources

import pytest

from syncenergy.config import load_document, parse_scenario
from syncenergy.runner import execute_scenario


@pytest.fixture(scope="session")
def bundled_dir():
    return resources.files("syncenergy").joinpath("scenarios")


@pytest.fixture(scope="session")
def load_bundled(bundled_dir):
    """Callable mapping a bundled scenario name to its parsed config."""

    def load(name):
        with resources.as_file(bundled_dir.joinpath(f"{name}.yaml")) as path:
            return parse_scenario(load_document(path))

    return load


@pytest.fixture(scope="session")
def scenario_runs(load_bundled):
    """Callable returning the cached ScenarioRun of a bundled scenario."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = execute_scenario(load_bundled(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def leaves_nothing():
    """Context manager asserting that no child process, file descriptor or
    thread outlives its block; skips where os.fork or /proc/self/fd is missing."""
    if not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs os.fork and /proc/self/fd")

    def state():
        return len(os.listdir("/proc/self/fd")), threading.active_count()

    @contextlib.contextmanager
    def block():
        before = state()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert state() == before

    return block


@pytest.fixture
def nothing_left(leaves_nothing):
    """The test leaves no child process, file descriptor or thread behind."""
    with leaves_nothing():
        yield


@pytest.fixture(scope="session")
def counting_forks():
    """Callable giving ``fn(*args, **kwargs)`` and the number of forks it made."""

    def call(fn, *args, **kwargs):
        real_fork, forks = os.fork, []

        def fork():
            forks.append(1)
            return real_fork()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", fork)
            return fn(*args, **kwargs), len(forks)

    return call


@pytest.fixture(scope="session")
def without_fork():
    """Callable giving ``fn(*args, **kwargs)`` with os.fork deleted, as on Windows."""

    def call(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            return fn(*args, **kwargs)

    return call
