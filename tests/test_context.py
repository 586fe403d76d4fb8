"""RunContext: activation stack, mode selection, LP cache and telemetry."""

import pickle

import pytest

from repro.context import RunContext, Telemetry, current_context, use_context
from repro.core.costs import cluster_costs
from repro.lp import backends
from repro.lp.problem import LinearProgram
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


def _tiny_lp() -> LinearProgram:
    # min -x0 - x1 subject to x0 + x1 <= 1, 0 <= x <= 1
    return LinearProgram(
        c=[-1.0, -1.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[1.0],
        upper_bounds=[1.0, 1.0],
    )


class TestActivation:
    def test_default_context_is_optimized(self):
        context = current_context()
        assert not context.reference

    def test_use_context_nests_and_restores(self):
        outer = current_context()
        with use_context(RunContext(reference=True)) as ctx:
            assert current_context() is ctx
            with use_context(RunContext(seed=7)) as inner:
                assert current_context() is inner
            assert current_context() is ctx
        assert current_context() is outer

    def test_replace_shares_telemetry_sink(self):
        context = RunContext()
        derived = context.replace(reference=True)
        assert derived.reference
        assert derived.telemetry is context.telemetry

    def test_contexts_compare_ignoring_telemetry(self):
        a, b = RunContext(), RunContext()
        a.telemetry.record_solve(wall_time_s=1.0, iterations=3)
        assert a == b


class TestShims:
    """The mode switch reaches the cost pipeline through the context."""

    def test_costs_config_controls_cost_pipeline(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=10), seed=0
        )
        with use_context(RunContext()):
            first = cluster_costs(scenario.system, scenario.tasks)
            second = cluster_costs(scenario.system, scenario.tasks)
        assert first is second
        with use_context(RunContext(reference=True)):
            third = cluster_costs(scenario.system, scenario.tasks)
            fourth = cluster_costs(scenario.system, scenario.tasks)
        assert third is not fourth


class TestLPCache:
    def test_cache_on_by_default_and_zero_disables(self):
        assert RunContext().lp_cache is not None
        assert RunContext(lp_cache_capacity=0).lp_cache is None

    def test_reference_mode_bypasses_cache(self):
        context = RunContext(reference=True, lp_cache_capacity=8)
        with use_context(context):
            first = backends.solve(_tiny_lp(), "interior-point")
            second = backends.solve(_tiny_lp(), "interior-point")
        assert second is not first  # each call solved afresh
        assert context.telemetry.cache_hits == 0
        assert context.telemetry.cache_misses == 0

    def test_cache_created_lazily_and_memoised(self):
        context = RunContext(lp_cache_capacity=4)
        cache = context.lp_cache
        assert cache is not None
        assert context.lp_cache is cache
        assert cache.capacity == 4

    def test_cache_used_by_solver(self):
        context = RunContext(lp_cache_capacity=8)
        with use_context(context):
            first = backends.solve(_tiny_lp(), "interior-point")
            second = backends.solve(_tiny_lp(), "interior-point")
        assert second is first  # bit-identical problem → stored result
        assert context.telemetry.cache_hits == 1
        assert context.telemetry.cache_misses == 1

    def test_cache_covers_lp_hta_structured_path(self):
        from repro.core.hta import lp_hta

        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=30), seed=0
        )
        cached = RunContext(lp_cache_capacity=64)
        with use_context(cached):
            first = lp_hta(scenario.system, list(scenario.tasks))
            second = lp_hta(scenario.system, list(scenario.tasks))
        # Every P2 of the second run is bit-identical to the first's.
        assert cached.telemetry.cache_hits > 0
        assert cached.telemetry.cache_misses == cached.telemetry.cache_hits
        assert (
            second.assignment.stats().total_energy_j
            == first.assignment.stats().total_energy_j
        )
        # And the cache never changes the answer vs. an uncached run.
        plain = lp_hta(scenario.system, list(scenario.tasks))
        assert (
            plain.assignment.stats().total_energy_j
            == first.assignment.stats().total_energy_j
        )


class TestTelemetry:
    def test_record_and_summary(self):
        telemetry = Telemetry()
        telemetry.record_solve(wall_time_s=0.25, iterations=10)
        telemetry.record_solve(wall_time_s=0.05, iterations=4)
        telemetry.record_cache(True)
        telemetry.record_cache(False)
        assert telemetry.solves == 2
        assert telemetry.lp_iterations == 14
        summary = telemetry.summary()
        assert "LP solves          2" in summary
        assert "1/2 hits" in summary

    def test_merge_is_additive(self):
        a, b = Telemetry(), Telemetry()
        a.record_solve(wall_time_s=1.0, iterations=5)
        b.record_solve(wall_time_s=2.0, iterations=7)
        b.record_cache(True)
        a.merge(b)
        assert a.solves == 2
        assert a.solve_wall_s == pytest.approx(3.0)
        assert a.lp_iterations == 12
        assert a.cache_hits == 1

    def test_pickle_roundtrip(self):
        telemetry = Telemetry()
        telemetry.record_solve(wall_time_s=0.5, iterations=2)
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.as_dict() == telemetry.as_dict()

    def test_solves_recorded_by_backend(self):
        context = RunContext()
        with use_context(context):
            backends.solve(_tiny_lp(), "interior-point")
        assert context.telemetry.solves == 1
        assert context.telemetry.solve_wall_s > 0.0
        assert context.telemetry.lp_iterations > 0
