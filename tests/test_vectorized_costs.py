"""Vectorised cost tables must match the scalar reference bit for bit."""

import numpy as np
import pytest

from repro.context import RunContext, use_context
from repro.core.costs import (
    ClusterCosts,
    _cluster_costs_scalar,
    _cluster_costs_vectorized,
    cluster_costs,
    task_costs,
)
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


def _tables(system, tasks, vectorized):
    compute = _cluster_costs_vectorized if vectorized else _cluster_costs_scalar
    return compute(system, tuple(tasks))


def _assert_tables_equal(a: ClusterCosts, b: ClusterCosts) -> None:
    np.testing.assert_array_equal(a.time_s, b.time_s)
    np.testing.assert_array_equal(a.energy_j, b.energy_j)
    np.testing.assert_array_equal(a.resource, b.resource)
    np.testing.assert_array_equal(a.deadline_s, b.deadline_s)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_vectorized_matches_scalar_on_random_scenarios(seed):
    scenario = generate_scenario(
        PAPER_DEFAULTS.with_updates(num_tasks=40), seed=seed
    )
    scalar = _tables(scenario.system, scenario.tasks, vectorized=False)
    vector = _tables(scenario.system, scenario.tasks, vectorized=True)
    _assert_tables_equal(scalar, vector)


def test_vectorized_matches_scalar_divisible_workload():
    scenario = generate_scenario(
        PAPER_DEFAULTS.with_updates(num_tasks=25, divisible=True), seed=3
    )
    scalar = _tables(scenario.system, scenario.tasks, vectorized=False)
    vector = _tables(scenario.system, scenario.tasks, vectorized=True)
    _assert_tables_equal(scalar, vector)


def test_vectorized_matches_per_task_costs(two_cluster_system, shared_task_cross_cluster):
    table = _tables(two_cluster_system, [shared_task_cross_cluster], vectorized=True)
    single = task_costs(two_cluster_system, shared_task_cross_cluster)
    np.testing.assert_array_equal(table.time_s[0], np.asarray(single.total_time_s))
    np.testing.assert_array_equal(table.energy_j[0], np.asarray(single.total_energy_j))


def test_cache_returns_identical_object():
    scenario = generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=10), seed=0)
    first = cluster_costs(scenario.system, scenario.tasks)
    second = cluster_costs(scenario.system, scenario.tasks)
    assert first is second


def test_cache_disabled_recomputes():
    # Reference mode prices afresh on every call, as the seed pipeline did.
    scenario = generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=10), seed=0)
    with use_context(RunContext(reference=True)):
        first = cluster_costs(scenario.system, scenario.tasks)
        second = cluster_costs(scenario.system, scenario.tasks)
    assert first is not second
    _assert_tables_equal(first, second)
    _assert_tables_equal(first, cluster_costs(scenario.system, scenario.tasks))


def test_owner_rows_is_cached():
    scenario = generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=10), seed=0)
    table = cluster_costs(scenario.system, scenario.tasks)
    assert table.owner_rows() is table.owner_rows()
