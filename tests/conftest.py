"""Shared fixtures: bundled scenario access and a run cache.

Scenario executions are deterministic, so tests that need the same
bundled run (classification, orderings, determinism) share one cached
execution per scenario instead of re-simulating.
"""

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
