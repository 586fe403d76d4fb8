"""Differential tests: optimised hot paths vs their seed-era references.

Each optimisation in the sweep hot path keeps its replaced implementation
as the oracle ``RunContext(reference=True)`` selects, and these tests pin
the two to *identical* output (not merely approximately equal):

- lazy-greedy DTA (CELF heap / size-keyed heap) vs the per-round rescan
  references, property-tested over random ownership maps;
- sparse COO/CSR LP assembly vs the dense reference — equal matrices in
  ``build_p2`` and its standard form, and identical ``lp_hta`` assignments
  on the Table I profile;
- the index-mapped external-source pick vs indexing the materialised
  candidate lists, property-tested over random (relabelled) topologies;
- the per-worker scenario memo — hit/miss telemetry and the reference-mode
  bypass that keeps benchmark baselines honest;
- the batched block-diagonal mega-solve path vs both the sequential
  optimised path and the full seed-era reference, over a miniature
  figure-style sweep (identical per-cell results, not just close).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from repro.context import RunContext, use_context
from repro.core.costs import ClusterCosts, cluster_costs
from repro.core.hta import lp_hta
from repro.core.lp_builder import build_p2
from repro.data.ownership import OwnershipMap
from repro.dta.coverage import (
    _dta_number_lazy,
    _dta_workload_lazy,
    dta_number,
    dta_number_naive,
    dta_workload,
    dta_workload_naive,
)
from repro.experiments import parallel
from repro.experiments.parallel import SweepCell, dta_spec, holistic_spec, run_cells
from repro.system.devices import BaseStation, MobileDevice
from repro.system.radio import WIFI
from repro.system.topology import MECSystem
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


@st.composite
def coverable_instance(draw):
    """A universe plus an ownership map that jointly covers it."""
    num_items = draw(st.integers(min_value=1, max_value=30))
    num_devices = draw(st.integers(min_value=1, max_value=10))
    holdings = {d: set() for d in range(num_devices)}
    for item in range(num_items):
        owners = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_devices - 1),
                min_size=1, max_size=num_devices, unique=True,
            )
        )
        for owner in owners:
            holdings[owner].add(item)
    universe = frozenset(range(num_items))
    return universe, OwnershipMap(holdings)


class TestLazyGreedyMatchesNaive:
    """The lazy-heap DTA implementations replay the reference argmin exactly."""

    @settings(max_examples=80, deadline=None)
    @given(coverable_instance())
    def test_workload_lazy_equals_naive(self, instance):
        universe, ownership = instance
        lazy = _dta_workload_lazy(universe, ownership)
        naive = dta_workload_naive(universe, ownership)
        assert lazy.universe == naive.universe
        assert dict(lazy.sets) == dict(naive.sets)

    @settings(max_examples=80, deadline=None)
    @given(coverable_instance())
    def test_number_lazy_equals_naive(self, instance):
        universe, ownership = instance
        lazy = _dta_number_lazy(universe, ownership)
        naive = dta_number_naive(universe, ownership)
        assert lazy.universe == naive.universe
        assert dict(lazy.sets) == dict(naive.sets)

    @settings(max_examples=30, deadline=None)
    @given(coverable_instance())
    def test_public_wrappers_route_both_modes_to_same_output(self, instance):
        universe, ownership = instance
        for algorithm, naive in (
            (dta_workload, dta_workload_naive),
            (dta_number, dta_number_naive),
        ):
            optimised = algorithm(universe, ownership)
            with use_context(RunContext(reference=True)):
                reference = algorithm(universe, ownership)
            assert dict(optimised.sets) == dict(reference.sets)
            assert dict(reference.sets) == dict(naive(universe, ownership).sets)


def _dense(matrix):
    return matrix.toarray() if sp.issparse(matrix) else matrix


def _cluster_inputs(scenario):
    """Per-cluster (costs, device_caps, station_cap), as ``lp_hta`` slices."""
    system = scenario.system
    tasks = list(scenario.tasks)
    costs = cluster_costs(system, tasks)
    by_cluster = {}
    for row, task in enumerate(tasks):
        by_cluster.setdefault(
            system.cluster_of(task.owner_device_id), []
        ).append(row)
    for station_id in sorted(by_cluster):
        rows = by_cluster[station_id]
        sub_costs = ClusterCosts(
            tasks=tuple(costs.tasks[r] for r in rows),
            time_s=costs.time_s[rows],
            energy_j=costs.energy_j[rows],
            resource=costs.resource[rows],
            deadline_s=costs.deadline_s[rows],
        )
        device_caps = {
            device_id: system.device(device_id).max_resource
            for device_id in {t.owner_device_id for t in sub_costs.tasks}
        }
        yield sub_costs, device_caps, system.station(station_id).max_resource


class TestSparseAssemblyMatchesDense:
    """CSR assembly of P2 reproduces the dense reference bit for bit."""

    def test_build_p2_matrices_equal_on_table1_profile(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=80), seed=0
        )
        checked = 0
        for sub_costs, device_caps, station_cap in _cluster_inputs(scenario):
            with use_context(RunContext()):
                sparse = build_p2(sub_costs, device_caps, station_cap)
            with use_context(RunContext(reference=True)):
                dense = build_p2(sub_costs, device_caps, station_cap)
            assert sparse.doomed_rows == dense.doomed_rows
            assert np.array_equal(sparse.lp.c, dense.lp.c)
            assert np.array_equal(sparse.lp.upper_bounds, dense.lp.upper_bounds)
            assert (sparse.lp.a_ub is None) == (dense.lp.a_ub is None)
            if sparse.lp.a_ub is not None:
                assert sp.issparse(sparse.lp.a_ub)
                assert not sp.issparse(dense.lp.a_ub)
                assert np.array_equal(_dense(sparse.lp.a_ub), dense.lp.a_ub)
                assert np.array_equal(sparse.lp.b_ub, dense.lp.b_ub)
            assert sp.issparse(sparse.lp.a_eq)
            assert np.array_equal(_dense(sparse.lp.a_eq), dense.lp.a_eq)
            assert np.array_equal(sparse.lp.b_eq, dense.lp.b_eq)

            std_sparse = sparse.lp.to_standard_form()
            std_dense = dense.lp.to_standard_form()
            assert std_sparse.is_sparse and not std_dense.is_sparse
            assert np.array_equal(_dense(std_sparse.a), std_dense.a)
            assert np.array_equal(std_sparse.b, std_dense.b)
            assert np.array_equal(std_sparse.c, std_dense.c)
            checked += 1
        assert checked > 0  # the profile yields at least one cluster

    def test_lp_hta_assignments_identical_across_backends(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=80), seed=1
        )
        tasks = list(scenario.tasks)
        for backend in ("interior-point", "scipy"):
            sparse_ctx = RunContext(lp_backend=backend, lp_cache_capacity=0)
            dense_ctx = RunContext(reference=True, lp_backend=backend)
            with use_context(sparse_ctx):
                sparse_report = lp_hta(scenario.system, tasks)
            with use_context(dense_ctx):
                dense_report = lp_hta(scenario.system, tasks)
            assert (
                sparse_report.assignment.decisions
                == dense_report.assignment.decisions
            ), backend


class TestScenarioMemo:
    """The per-worker scenario memo: hits counted, reference mode bypassed."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def test_repeated_lookup_hits_and_counts(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        first = parallel._scenario_for(profile, 3, context)
        second = parallel._scenario_for(profile, 3, context)
        assert second is first
        assert context.telemetry.scenario_memo_misses == 1
        assert context.telemetry.scenario_memo_hits == 1

    def test_distinct_keys_miss(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        a = parallel._scenario_for(profile, 0, context)
        b = parallel._scenario_for(profile, 1, context)
        c = parallel._scenario_for(
            profile, 0, RunContext(lp_backend="interior-point")
        )
        assert a is not b and a is not c
        assert context.telemetry.scenario_memo_hits == 0

    def test_reference_mode_bypasses_memo(self):
        context = RunContext(reference=True)
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        first = parallel._scenario_for(profile, 3, context)
        second = parallel._scenario_for(profile, 3, context)
        assert second is not first  # regenerated, never memoised
        assert not parallel._SCENARIO_MEMO
        assert context.telemetry.scenario_memo_hits == 0
        assert context.telemetry.scenario_memo_misses == 0

    def test_memoised_scenario_equals_fresh_generation(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=12)
        memoised = parallel._scenario_for(profile, 7, context)
        fresh = generate_scenario(profile, seed=7)
        assert len(memoised.tasks) == len(fresh.tasks)
        stats_memo = [t.owner_device_id for t in memoised.tasks]
        stats_fresh = [t.owner_device_id for t in fresh.tasks]
        assert stats_memo == stats_fresh


def _mini_figure(context):
    """A two-point, two-seed figure-style sweep (LP-HTA + DTA columns).

    Each profile's cells form one sweep column, so outside reference mode the
    holistic and DTA evaluators both route through their mega-solve entry
    points — the same shape ``bench_perf.py`` measures, small enough for CI.
    """
    specs = (holistic_spec("LP-HTA"), dta_spec("workload"))
    profiles = [
        PAPER_DEFAULTS.with_updates(
            num_tasks=n, num_devices=8, num_stations=2,
            divisible=True, num_data_items=40,
        )
        for n in (8, 12)
    ]
    cells = [
        SweepCell(
            index=i, profile=profile, seed=seed,
            evaluators=specs, context=context,
        )
        for i, (profile, seed) in enumerate(
            (profile, seed) for profile in profiles for seed in (0, 1)
        )
    ]
    return run_cells(cells, jobs=1)


class TestBatchedSweepMatchesReference:
    """The mega-solve sweep path is a pure perf change: identical figures."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def test_figure_diff_batched_vs_sequential_vs_reference(self, monkeypatch):
        from repro.core import hta

        batched_ctx = RunContext()
        sequential_ctx = RunContext()
        reference_ctx = RunContext(reference=True)
        batched = _mini_figure(batched_ctx)
        parallel._SCENARIO_MEMO.clear()
        with monkeypatch.context() as patch:
            # The optimised path with every Step-1 solve on the sequential
            # per-cluster ladder.
            patch.setattr(hta, "_batching_enabled", lambda *args: False)
            sequential = _mini_figure(sequential_ctx)
        reference = _mini_figure(reference_ctx)
        # The batched path actually engaged, and neither control did.
        assert batched_ctx.telemetry.batch_solves > 0
        assert sequential_ctx.telemetry.batch_solves == 0
        assert reference_ctx.telemetry.batch_solves == 0
        # Cell-for-cell identical AlgorithmResults across all three modes.
        assert batched == sequential
        assert batched == reference


def _scenario_fingerprint(scenario):
    """Every float and field of a scenario, for exact comparison."""
    tasks = tuple(
        (
            t.owner_device_id, t.index, t.local_bytes, t.external_bytes,
            t.external_source, t.resource_demand, t.deadline_s,
            t.divisible, t.required_items, t.operation,
        )
        for t in scenario.tasks
    )
    devices = tuple(
        (
            d.device_id, d.cpu_frequency_hz, d.wireless, d.max_resource,
            d.data_items, d.position,
        )
        for d in (scenario.system.device(i) for i in scenario.system.devices)
    )
    return tasks, devices


class _FixedDraw:
    """An rng stand-in whose ``integers`` returns a chosen index."""

    def __init__(self, idx):
        self.idx = idx
        self.high = None

    def integers(self, low, high):
        assert low == 0 and 0 <= self.idx < high
        self.high = high
        return self.idx


@st.composite
def relabelled_topology(draw):
    """A small system with non-canonical, non-sorted device ids."""
    num_stations = draw(st.integers(min_value=1, max_value=4))
    num_devices = draw(st.integers(min_value=1, max_value=10))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=num_devices, max_size=num_devices, unique=True,
        )
    )
    stations = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_stations - 1),
            min_size=num_devices, max_size=num_devices,
        )
    )
    return MECSystem(
        devices=[
            MobileDevice(device_id=d, cpu_frequency_hz=1e9, wireless=WIFI,
                         max_resource=1.0)
            for d in ids
        ],
        stations=[BaseStation(station_id=s) for s in range(num_stations)],
        attachment=dict(zip(ids, stations)),
    )


class TestSourcePickIndexMap:
    """The index-mapped source pick equals indexing the materialised lists."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), data=st.data())
    @example(n=7, data=None)
    def test_nth_outside_is_the_complement(self, n, data):
        from repro.workload.array_gen import nth_outside, outside_skips

        if data is None:
            # Explicit edge cases: no members, every all-but-one member
            # set, and member runs at either end of the range.
            member_sets = [[]] + [
                [d for d in range(n) if d != keep] for keep in range(n)
            ] + [list(range(3)), list(range(n - 3, n))]
        else:
            member_sets = [
                sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
            ]
        for members in member_sets:
            shifted = outside_skips(members)
            complement = [d for d in range(n) if d not in set(members)]
            picked = [nth_outside(shifted, idx) for idx in range(len(complement))]
            assert picked == complement

    @settings(max_examples=150, deadline=None)
    @given(system=relabelled_topology())
    def test_pool_pick_equals_per_task_filter(self, system):
        from repro.workload.generator import _SourceCandidates

        pool = _SourceCandidates(system)
        ids = list(system.devices)
        for owner in ids:
            cluster = system.cluster_of(owner)
            for cross in (True, False):
                # The reference path's candidate list, materialised.
                candidates = [
                    d for d in ids
                    if (system.cluster_of(d) != cluster if cross
                        else d != owner and system.cluster_of(d) == cluster)
                ] or [d for d in ids if d != owner]
                if not candidates:
                    draw = _FixedDraw(0)
                    assert pool.pick(owner, cluster, cross, draw) is None
                    assert draw.high is None
                for idx, expected in enumerate(candidates):
                    draw = _FixedDraw(idx)
                    assert pool.pick(owner, cluster, cross, draw) == expected
                    assert draw.high == len(candidates)


class TestArrayGeneratorMatchesReference:
    """The raw-word-stream generator is a pure perf change: identical draws."""

    def test_scenarios_identical_across_all_three_paths(self, monkeypatch):
        from repro.workload import array_gen

        profiles = [
            PAPER_DEFAULTS.with_updates(num_tasks=60, num_devices=12, num_stations=3),
            PAPER_DEFAULTS.with_updates(num_tasks=7, num_devices=1, num_stations=1),
            PAPER_DEFAULTS.with_updates(
                num_tasks=30, num_devices=6, num_stations=2,
                external_ratio_range=(0.0, 0.0),
            ),
            PAPER_DEFAULTS.with_updates(
                num_tasks=30, num_devices=6, num_stations=3,
                external_cross_cluster_prob=1.0,
            ),
        ]
        # City-like cluster counts: 150 devices round-robin over 120
        # stations leave 90 single-device clusters, so same-cluster picks
        # fall back to "any other device" as well as picking cross-cluster.
        profiles += [
            PAPER_DEFAULTS.with_updates(
                num_tasks=300, num_devices=150, num_stations=120,
                external_cross_cluster_prob=prob,
            )
            for prob in (1.0, 0.0)
        ]
        for profile in profiles:
            for seed in (0, 5):
                with use_context(RunContext()):
                    array = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with monkeypatch.context() as patch:
                    # A bailed-out array decode draws through the object
                    # generator's candidate pools.
                    patch.setattr(
                        array_gen, "generate_holistic_tasks", lambda *a, **k: None
                    )
                    pooled = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with use_context(RunContext(reference=True)):
                    reference = _scenario_fingerprint(
                        generate_scenario(profile, seed=seed)
                    )
                assert array == pooled == reference

    def test_divisible_scenarios_identical_to_reference(self):
        # Divisible generation stays on the object path but memoises the
        # sorted catalog and the per-item owner index; draws and every
        # byte total must stay bit-identical to the unmemoised code.
        for num_tasks in (24, 120):
            profile = PAPER_DEFAULTS.with_updates(
                num_tasks=num_tasks, divisible=True
            )
            for seed in (0, 5):
                with use_context(RunContext()):
                    fast = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with use_context(RunContext(reference=True)):
                    reference = _scenario_fingerprint(
                        generate_scenario(profile, seed=seed)
                    )
                assert fast == reference

    def test_bailout_falls_back_to_object_path(self, monkeypatch):
        from repro.workload import array_gen

        profile = PAPER_DEFAULTS.with_updates(
            num_tasks=20, num_devices=5, num_stations=2
        )
        with use_context(RunContext(reference=True)):
            expected = _scenario_fingerprint(generate_scenario(profile, seed=3))
        monkeypatch.setattr(
            array_gen, "generate_holistic_tasks", lambda *a, **k: None
        )
        context = RunContext()
        with use_context(context):
            bailed = _scenario_fingerprint(generate_scenario(profile, seed=3))
        assert bailed == expected
        assert context.telemetry.metrics.counters["generate.array_bailout"] > 0

    def test_fused_cost_table_identical_to_gather_loop(self):
        from repro.core import costs as costs_module

        profile = PAPER_DEFAULTS.with_updates(
            num_tasks=50, num_devices=10, num_stations=2
        )
        with use_context(RunContext()):
            scenario = generate_scenario(profile, seed=4)
            fused = cluster_costs(scenario.system, scenario.tasks)
            # Drop the generator's array hint and the table memo: the same
            # tasks now price through the per-task gather loop.
            costs_module._TASK_ARRAY_HINTS.pop(scenario.system, None)
            costs_module._TABLE_CACHE.pop(scenario.system, None)
            looped = cluster_costs(scenario.system, scenario.tasks)
        assert fused.time_s.tobytes() == looped.time_s.tobytes()
        assert fused.energy_j.tobytes() == looped.energy_j.tobytes()
        assert fused.resource.tobytes() == looped.resource.tobytes()
        assert fused.deadline_s.tobytes() == looped.deadline_s.tobytes()


class TestEngineReplayBitIdentity:
    """Array-engine replay equals the closure engine, metric for metric.

    Locally the engine runs its pure-Python event loop; on CI with the
    ``[perf]`` extra installed the same tests compile through numba — both
    interpreters must land on identical bits, and the jit/no-jit pair is
    additionally pinned below.
    """

    def _replay_matrix(self, scenario, assignment):
        from repro.des.replay import replay_assignment

        tasks = list(scenario.tasks)
        cases = [
            dict(contention=False),
            dict(contention=True),
            dict(contention=True, backhaul_outages=((0.2, 0.5),)),
            dict(
                contention=False,
                backhaul_outages=((0.1, 0.4),),
                wan_outages=((0.3, 0.8),),
            ),
        ]
        for kwargs in cases:
            with use_context(RunContext()):
                fast = replay_assignment(scenario.system, tasks, assignment, **kwargs)
            with use_context(RunContext(reference=True)):
                reference = replay_assignment(
                    scenario.system, tasks, assignment, **kwargs
                )
            assert fast == reference

    def test_realized_metrics_bit_identical(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40, num_devices=8, num_stations=2),
            seed=0,
        )
        assignment = lp_hta(scenario.system, list(scenario.tasks)).assignment
        self._replay_matrix(scenario, assignment)

    def test_jit_and_python_loops_agree(self, monkeypatch):
        from repro.des import engine

        if engine._event_loop_jit is None:
            # No numba in this interpreter: the py loop *is* the engine,
            # already pinned against the object path above.  CI's [perf]
            # matrix leg runs the jit side of this test.
            return
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40, num_devices=8, num_stations=2),
            seed=1,
        )
        tasks = list(scenario.tasks)
        assignment = lp_hta(scenario.system, tasks).assignment
        jitted = engine.replay_with_engine(
            scenario.system, tasks, assignment, True, ((0.2, 0.5),), (), None
        )
        monkeypatch.setattr(engine, "_event_loop_jit", None)
        interpreted = engine.replay_with_engine(
            scenario.system, tasks, assignment, True, ((0.2, 0.5),), (), None
        )
        assert jitted == interpreted


class TestVectorisedKernelsPreserveFigures:
    """The generator and replay kernels change nothing about a figure-style
    sweep's output."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def _holistic_mini_figure(self, context):
        specs = (holistic_spec("LP-HTA"), holistic_spec("HGOS"))
        cells = [
            SweepCell(
                index=i,
                profile=PAPER_DEFAULTS.with_updates(
                    num_tasks=n, num_devices=8, num_stations=2
                ),
                seed=seed,
                evaluators=specs,
                context=context,
            )
            for i, (n, seed) in enumerate(
                (n, seed) for n in (8, 12) for seed in (0, 1)
            )
        ]
        return run_cells(cells, jobs=1)

    def test_generator_and_engine_flags_are_pure_perf(self, monkeypatch):
        from repro.workload import array_gen

        default = self._holistic_mini_figure(RunContext())
        parallel._SCENARIO_MEMO.clear()
        with monkeypatch.context() as patch:
            # Every task decode bails out to the pooled object generator.
            patch.setattr(
                array_gen, "generate_holistic_tasks", lambda *a, **k: None
            )
            no_kernels = self._holistic_mini_figure(RunContext())
        parallel._SCENARIO_MEMO.clear()
        reference = self._holistic_mini_figure(RunContext(reference=True))
        assert default == no_kernels
        assert default == reference
