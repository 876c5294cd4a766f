from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import settings

from schoolsim.agent import load_role
from schoolsim.config import config_by_id
from schoolsim.dataset import load_standard_group
from schoolsim.evaluation import evaluate_run
from schoolsim.fixtures import FixturePaths, MemoryGatedProvider, build_fixture
from schoolsim.simulation import run_simulation

# CI runs the property tests with ``--hypothesis-profile=ci``: the same
# examples on every run, and five times the default count for tests that do
# not set their own. Local runs keep the default profile.
settings.register_profile("ci", derandomize=True, max_examples=500, deadline=None)


def load_roles_dir(roles_dir: Path) -> dict:
    return {path.stem: load_role(path) for path in sorted(roles_dir.glob("*.txt"))}


@pytest.fixture(scope="session")
def mini_fixture(tmp_path_factory) -> FixturePaths:
    root = tmp_path_factory.mktemp("mini-fixture")
    return build_fixture(root, teachers=2, students=4, days=2, seed=0)


@pytest.fixture(scope="session")
def mini_dataset(mini_fixture):
    return load_standard_group(mini_fixture.agents_dir)


@pytest.fixture()
def mini_roles(mini_fixture):
    # Function-scoped: roles are mutable (evolved traits) and runs may edit them.
    return load_roles_dir(mini_fixture.roles_dir)


@pytest.fixture()
def gated_provider(mini_fixture):
    return MemoryGatedProvider.from_file(mini_fixture.script_path)


@pytest.fixture(scope="session")
def full_fixture(tmp_path_factory) -> FixturePaths:
    root = tmp_path_factory.mktemp("full-fixture")
    return build_fixture(root, teachers=10, students=40, days=5, seed=0)


@pytest.fixture(scope="session")
def full_dataset(full_fixture):
    return load_standard_group(full_fixture.agents_dir)


@pytest.fixture(scope="session")
def ablation_runs(full_fixture, full_dataset):
    """Logs and checkpoint reports for configs 1, 4, 9 on the full fixture.

    Returns (runs, elapsed_seconds) so the acceptance gate can assert its
    runtime budget.
    """
    started = time.perf_counter()
    runs = {}
    for config_id in (1, 4, 9):
        provider = MemoryGatedProvider.from_file(full_fixture.script_path)
        roles = load_roles_dir(full_fixture.roles_dir)
        log = run_simulation(
            full_dataset, roles, provider, config_by_id(config_id), seed=0
        )
        runs[config_id] = (log, evaluate_run(log, full_dataset))
    return runs, time.perf_counter() - started
