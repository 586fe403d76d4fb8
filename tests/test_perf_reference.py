"""The seed-reference paths selected by ``RunContext(reference=True)`` must
match the optimised defaults bit for bit — they exist for differential
testing and honest benchmark baselines, not as a second implementation."""

import numpy as np
import scipy.sparse as sp

from repro.context import RunContext, use_context
from repro.core import costs as costs_module
from repro.core import hta as hta_module
from repro.core import lp_builder as lp_builder_module
from repro.core.baselines import hgos
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.core.lp_builder import build_p2
from repro.des import engine as des_engine_module
from repro.des import replay as replay_module
from repro.des.replay import replay_assignment
from repro.experiments.runner import evaluate_holistic
from repro.lp import structured as structured_module
from repro.workload import array_gen as array_gen_module
from repro.workload import generator as generator_module
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=20)


def _reference():
    return use_context(RunContext(reference=True))


def test_generator_reference_matches_optimized():
    optimized = generate_scenario(_PROFILE, seed=5)
    with _reference():
        reference = generate_scenario(_PROFILE, seed=5)
    assert optimized.tasks == reference.tasks


def test_lp_hta_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=2)
    optimized = lp_hta(scenario.system, scenario.tasks)
    with _reference():
        reference = lp_hta(scenario.system, scenario.tasks)
    assert optimized.assignment.decisions == reference.assignment.decisions
    assert optimized.assignment.stats() == reference.assignment.stats()


def test_hgos_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=4)
    optimized = hgos(scenario.system, scenario.tasks)
    with _reference():
        reference = hgos(scenario.system, scenario.tasks)
    assert optimized.decisions == reference.decisions


def test_assignment_metrics_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=1)
    optimized = evaluate_holistic(scenario, "LP-HTA")
    with _reference():
        reference = evaluate_holistic(scenario, "LP-HTA")
    # AlgorithmResult compares by exact float equality.
    assert optimized == reference


def test_cost_tables_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=3)
    optimized = cluster_costs(scenario.system, scenario.tasks)
    with _reference():
        reference = cluster_costs(scenario.system, scenario.tasks)
    np.testing.assert_array_equal(optimized.time_s, reference.time_s)
    np.testing.assert_array_equal(optimized.energy_j, reference.energy_j)


def test_reference_alone_selects_every_oracle(monkeypatch):
    """``reference=True`` and nothing else routes every layer through its
    seed-era oracle, and no production path runs beside it."""
    calls = {}

    def spy(module, name, check=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if check is not None:
                check(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def forbid(module, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran in reference mode")

        monkeypatch.setattr(module, name, refuse)

    def per_task(system, owner_id, cross_cluster, rng, pool=None):
        assert pool is None, "candidate pool used in reference mode"

    spy(costs_module, "_cluster_costs_scalar")
    spy(structured_module, "solve_structured_reference")
    spy(generator_module, "_pick_external_source", check=per_task)
    spy(replay_module, "_Replay")
    forbid(costs_module, "_cluster_costs_vectorized")
    forbid(lp_builder_module, "_assemble_ub_sparse")
    forbid(hta_module, "_solve_p2_batch")
    forbid(structured_module, "solve_structured_batch")
    forbid(array_gen_module, "generate_system_arrays")
    forbid(array_gen_module, "generate_holistic_tasks")
    forbid(des_engine_module, "replay_with_engine")

    profile = PAPER_DEFAULTS.with_updates(num_tasks=30, num_stations=3)
    with _reference():
        scenario = generate_scenario(profile, seed=6)
        report = lp_hta(scenario.system, scenario.tasks)
        table = cluster_costs(scenario.system, scenario.tasks)
        caps = {d: scenario.system.device(d).max_resource
                for d in scenario.system.devices}
        built = build_p2(table, caps, float("inf"))
        replay_assignment(scenario.system, scenario.tasks, report.assignment)

    assert calls["_cluster_costs_scalar"] >= 2
    assert scenario.system not in costs_module._TABLE_CACHE
    assert calls["solve_structured_reference"] == len(report.clusters) > 1
    assert calls["_pick_external_source"] > 0
    assert calls["_Replay"] == 1
    assert not sp.issparse(built.lp.a_eq)
    assert not sp.issparse(built.lp.a_ub)
