"""The batched block-diagonal LP path: batched == sequential, block for block.

The lockstep mega-solver :func:`solve_structured_batch` advances every
pooled block through the exact floating-point trajectory
:func:`solve_structured` would produce: elementwise work runs on the
concatenated state, every reduction and factorisation runs on a block's
contiguous slice, and converged blocks are frozen while stragglers
continue.  These tests pin that contract — same objectives (to 1e-9 and
bitwise), same iteration counts, same ``lp_hta`` assignments batched or on
the sequential per-cluster ladder — over ragged batches, batches of one,
and batches whose blocks converge at very different iterations.  The
generic :func:`solve_interior_point_batch` is a per-problem loop and must
equal its sequential solves too; ``lp_hta`` batches only the structured
backend.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.hta import LPHTAOptions, lp_hta, lp_hta_batch
from repro.lp import LinearProgram
from repro.lp.interior_point import solve_interior_point, solve_interior_point_batch
from repro.lp import structured
from repro.lp.result import LPStatus
from repro.lp.structured import (
    GroupedBoundedLP,
    StructuredIPMOptions,
    solve_structured,
    solve_structured_batch,
)
from repro.workload import PAPER_DEFAULTS, generate_scenario


def _random_grouped(rng: np.random.Generator, num_groups: int) -> GroupedBoundedLP:
    """A feasible random P2-shaped block (transportation-like)."""
    sizes = rng.integers(2, 5, size=num_groups)
    n = int(sizes.sum())
    group_index = np.repeat(np.arange(num_groups), sizes)
    c = rng.uniform(0.5, 10.0, size=n)
    upper = np.ones(n)
    upper[rng.random(n) < 0.25] = np.inf
    # Spreading each group's unit mass evenly is feasible for the groups and
    # the bounds; padding the coupling rhs above that point keeps K rows
    # feasible too.
    x_feasible = 1.0 / np.repeat(sizes, sizes)
    k = int(rng.integers(0, 3))
    if k:
        coupling_a = (rng.random((k, n)) < 0.4).astype(float)
        coupling_b = coupling_a @ x_feasible + rng.uniform(0.1, 1.0, size=k)
    else:
        coupling_a = None
        coupling_b = None
    return GroupedBoundedLP(
        c=c,
        group_index=group_index,
        group_rhs=np.ones(num_groups),
        coupling_a=coupling_a,
        coupling_b=coupling_b,
        upper=upper,
    )


def _random_generic(rng: np.random.Generator, num_groups: int) -> LinearProgram:
    """The same shape as :func:`_random_grouped`, in generic bounded form."""
    grouped = _random_grouped(rng, num_groups)
    n = grouped.c.shape[0]
    a_eq = np.zeros((num_groups, n))
    a_eq[grouped.group_index, np.arange(n)] = 1.0
    a_ub = grouped.coupling_a if grouped.coupling_a is not None else None
    b_ub = grouped.coupling_b if a_ub is not None else None
    return LinearProgram(
        c=grouped.c,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=grouped.group_rhs,
        upper_bounds=grouped.upper,
    )


def _assert_block_equal(batched, sequential):
    """One block of a batch solve must replay its sequential solve exactly."""
    assert batched.status is sequential.status
    assert batched.iterations == sequential.iterations
    assert batched.objective == pytest.approx(sequential.objective, abs=1e-9)
    if sequential.x is None:
        assert batched.x is None
    else:
        assert np.array_equal(batched.x, sequential.x)


def _city_block(rng: np.random.Generator, num_tasks: int = 20, devices: int = 10):
    """A block of the city's P2 shape: three options per task, one resource
    row per device plus the station row (n = 60, K = 11, 20 groups)."""
    n = 3 * num_tasks
    tasks = np.arange(num_tasks)
    owners = rng.integers(0, devices, size=num_tasks)
    resource = rng.uniform(0.5, 2.0, size=num_tasks)
    coupling_a = np.zeros((devices + 1, n))
    coupling_a[owners, 3 * tasks] = resource  # run on the owning device
    coupling_a[devices, 3 * tasks + 1] = resource  # run on the station
    # Capacities between "binds hard" and "never binds", so blocks take
    # visibly different iteration counts.
    coupling_b = coupling_a.sum(axis=1) * rng.uniform(0.2, 1.2, size=devices + 1)
    return GroupedBoundedLP(
        c=rng.uniform(0.1, 10.0, size=n) * rng.uniform(0.5, 50.0),
        group_index=np.repeat(tasks, 3),
        group_rhs=np.ones(num_tasks),
        coupling_a=coupling_a,
        coupling_b=coupling_b + 0.05,
        upper=np.ones(n),
    )


def _shaped_block(
    rng: np.random.Generator,
    sizes,
    k: int,
    unbounded=(),
) -> GroupedBoundedLP:
    """A feasible block with the given group sizes, K coupling rows and
    the given variables unbounded (fixing the bucket key)."""
    sizes = np.asarray(sizes)
    n = int(sizes.sum())
    upper = np.ones(n)
    upper[list(unbounded)] = np.inf
    x_feasible = 1.0 / np.repeat(sizes, sizes)
    coupling_a = (rng.random((k, n)) < 0.5).astype(float) * rng.uniform(0.5, 2.0)
    return GroupedBoundedLP(
        c=rng.uniform(0.5, 10.0, size=n),
        group_index=np.repeat(np.arange(len(sizes)), sizes),
        group_rhs=np.ones(len(sizes)),
        coupling_a=coupling_a if k else None,
        coupling_b=coupling_a @ x_feasible + rng.uniform(0.05, 1.0, size=k)
        if k
        else None,
        upper=upper,
    )


def _assert_batch_is_sequential(blocks, options=StructuredIPMOptions()):
    """Every block of the batch replays its sequential solve bit for bit,
    failed ones (NaN objective, no x) included."""
    batched = solve_structured_batch(blocks, options)
    assert len(batched) == len(blocks)
    for block, result in zip(blocks, batched):
        sequential = solve_structured(block, options)
        assert result.status is sequential.status
        assert result.iterations == sequential.iterations
        assert np.array_equal(result.objective, sequential.objective, equal_nan=True)
        if sequential.x is None:
            assert result.x is None
        else:
            assert np.array_equal(result.x, sequential.x)
    return batched


class TestStructuredBatch:
    """solve_structured_batch vs per-block solve_structured."""

    def test_ragged_batch_block_for_block(self):
        rng = np.random.default_rng(0)
        blocks = [_random_grouped(rng, int(g)) for g in (1, 7, 2, 12, 4, 30)]
        batched = solve_structured_batch(blocks)
        sequential = [solve_structured(block) for block in blocks]
        assert len(batched) == len(blocks)
        for b, s in zip(batched, sequential):
            _assert_block_equal(b, s)

    def test_batch_of_one(self):
        rng = np.random.default_rng(1)
        block = _random_grouped(rng, 5)
        (batched,) = solve_structured_batch([block])
        _assert_block_equal(batched, solve_structured(block))

    def test_converged_blocks_freeze_while_stragglers_continue(self):
        # A trivial block converges many iterations before a large coupled
        # one; lockstep masking must report each block's own convergence
        # iteration (a frozen block does not keep counting), and freezing
        # must not perturb the straggler's trajectory.
        rng = np.random.default_rng(2)
        trivial = GroupedBoundedLP(
            c=np.array([1.0, 2.0]),
            group_index=np.array([0, 0]),
            group_rhs=np.array([1.0]),
            upper=np.ones(2),
        )
        straggler = _random_grouped(rng, 40)
        sequential = [solve_structured(b) for b in (trivial, straggler)]
        assert sequential[0].iterations < sequential[1].iterations
        for order in ((trivial, straggler), (straggler, trivial)):
            batched = solve_structured_batch(list(order))
            expected = sequential if order[0] is trivial else sequential[::-1]
            for b, s in zip(batched, expected):
                _assert_block_equal(b, s)

    def test_many_block_single_shape_bucket(self):
        # The city case: one bucket of many (n=60, K=11) blocks whose
        # per-block work runs as stacked calls.
        rng = np.random.default_rng(10)
        blocks = [_city_block(rng) for _ in range(40)]
        batched = _assert_batch_is_sequential(blocks)
        assert len({r.iterations for r in batched}) > 3

    def test_mixed_buckets_with_odd_sizes(self):
        # Same-shape blocks interleaved with other shapes (odd n, several
        # buckets of two or three and some of one); results come back in
        # input order.
        rng = np.random.default_rng(11)
        shapes = [((2, 2, 3), 2), ((3, 4, 3, 3), 1), ((1, 2, 2), 3),
                  ((5,), 1), ((2, 2, 3), 2), ((3, 3, 3, 2, 2), 2)]
        blocks = [
            _shaped_block(rng, sizes, k)
            for sizes, k in shapes * 2 + [((2, 2, 3), 2), ((1, 2, 2), 3)]
        ]
        _assert_batch_is_sequential(blocks)

    def test_zero_coupling_and_unbounded_variables(self):
        # K = 0 buckets, all-unbounded and partly bounded blocks, and one
        # bucket whose blocks leave *different* variables unbounded (same
        # count), so its bounded-entry dots differ row by row.
        rng = np.random.default_rng(12)
        blocks = [
            _shaped_block(rng, (3, 2, 2), 0),
            _shaped_block(rng, (3, 2, 2), 0, unbounded=range(7)),
            _shaped_block(rng, (2, 3), 2, unbounded=(0, 3)),
            _shaped_block(rng, (2, 3), 2, unbounded=(1, 4)),
            _shaped_block(rng, (2, 3), 2, unbounded=(2, 0)),
            _shaped_block(rng, (4, 4), 1, unbounded=range(8)),
            _shaped_block(rng, (3, 2, 2), 0),
            _shaped_block(rng, (2, 3), 2),
        ]
        _assert_batch_is_sequential(blocks)

    def test_numerical_error_freezes_only_its_block(self):
        # A full step to the boundary (step_fraction=1) throws most blocks
        # out of the positive orthant within two iterations, while others
        # run on (through NaN iterates) to the cap: each must match its
        # own sequential solve, frozen or not.
        rng = np.random.default_rng(7)
        blocks = [_random_grouped(rng, int(g)) for g in rng.integers(1, 12, size=30)]
        blocks += [_shaped_block(rng, (2, 2, 3), 2) for _ in range(4)]
        options = StructuredIPMOptions(step_fraction=1.0)
        with np.errstate(all="ignore"):
            batched = _assert_batch_is_sequential(blocks, options)
        statuses = {r.status for r in batched}
        assert LPStatus.NUMERICAL_ERROR in statuses
        assert len(statuses) > 1

    def test_blocks_freeze_on_both_sides_of_a_compaction(self, monkeypatch):
        # Once half the packed variables belong to frozen blocks, the live
        # ones are gathered into fresh state.  Blocks frozen before that
        # compaction and blocks still running through it must both replay
        # their sequential solves.
        packs = []

        class SpyPack(structured._Pack):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                packs.append(list(self.ids))

        monkeypatch.setattr(structured, "_Pack", SpyPack)
        rng = np.random.default_rng(13)
        blocks = [_city_block(rng) for _ in range(16)]
        blocks += [_shaped_block(rng, (2, 2, 3), 2) for _ in range(4)]
        _assert_batch_is_sequential(blocks)
        assert len(packs) >= 2
        first_compaction = set(packs[1])
        assert first_compaction  # blocks still running through it
        assert set(packs[0]) - first_compaction  # blocks frozen before it


class TestInteriorPointBatch:
    """solve_interior_point_batch vs per-problem solve_interior_point."""

    def test_ragged_batch_block_for_block(self):
        rng = np.random.default_rng(3)
        problems = [_random_generic(rng, int(g)) for g in (1, 6, 3, 15)]
        batched = solve_interior_point_batch(problems)
        sequential = [solve_interior_point(p) for p in problems]
        for b, s in zip(batched, sequential):
            _assert_block_equal(b, s)

    def test_batch_of_one(self):
        rng = np.random.default_rng(4)
        problem = _random_generic(rng, 4)
        (batched,) = solve_interior_point_batch([problem])
        _assert_block_equal(batched, solve_interior_point(problem))


@st.composite
def small_profile(draw):
    """A small random scenario profile + seed (multi-cluster by default)."""
    num_stations = draw(st.integers(min_value=1, max_value=3))
    num_devices = num_stations * draw(st.integers(min_value=2, max_value=4))
    profile = PAPER_DEFAULTS.with_updates(
        num_stations=num_stations,
        num_devices=num_devices,
        num_tasks=draw(st.integers(min_value=5, max_value=30)),
        max_input_bytes=draw(st.floats(min_value=500e3, max_value=4000e3)),
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return profile, seed


def _reports_identical(a, b):
    assert a.assignment.decisions == b.assignment.decisions
    assert a.clusters == b.clusters  # exact energies, objectives, deltas


@contextmanager
def _sequential_ladder():
    """Run LP-HTA's Step 1 one cluster at a time, outside reference mode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hta, "_batching_enabled", lambda *args: False)
        yield


class TestLPHTABatched:
    """lp_hta with batching on emits exactly the sequential output."""

    @settings(max_examples=10, deadline=None)
    @given(small_profile())
    def test_batched_equals_sequential_assignments(self, case):
        profile, seed = case
        scenario = generate_scenario(profile, seed=seed)
        tasks = list(scenario.tasks)
        with use_context(RunContext()) as batched_ctx:
            batched = lp_hta(scenario.system, tasks, context=batched_ctx)
        with _sequential_ladder(), use_context(RunContext()) as sequential_ctx:
            sequential = lp_hta(scenario.system, tasks, context=sequential_ctx)
        _reports_identical(batched, sequential)
        assert sequential_ctx.telemetry.batch_solves == 0
        if len(batched.clusters) >= 2:
            assert batched_ctx.telemetry.batch_solves == 1
            assert (
                batched_ctx.telemetry.batched_blocks == len(batched.clusters)
            )
        # Batched or not, the same solves and per-block iterations are
        # observed: a block that fails its batched primary solve continues
        # the ladder below that rung instead of repeating it.
        assert batched_ctx.telemetry.solves == sequential_ctx.telemetry.solves
        assert (
            batched_ctx.telemetry.lp_iterations
            == sequential_ctx.telemetry.lp_iterations
        )

    def test_interior_point_backend_never_batches(self):
        # Only the structured backend has a batched Step-1 solver: the
        # generic IPM runs the per-cluster ladder even with batching on.
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40), seed=2
        )
        tasks = list(scenario.tasks)
        options = LPHTAOptions(backend="interior-point")
        with use_context(RunContext()) as default_ctx:
            default = lp_hta(scenario.system, tasks, options, context=default_ctx)
        with _sequential_ladder(), use_context(RunContext()) as sequential_ctx:
            sequential = lp_hta(
                scenario.system, tasks, options, context=sequential_ctx
            )
        assert len(default.clusters) >= 2
        _reports_identical(default, sequential)
        assert default_ctx.telemetry.batch_solves == 0
        assert default_ctx.telemetry.solves == sequential_ctx.telemetry.solves

    def test_single_cluster_stays_sequential(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_stations=1, num_devices=4, num_tasks=10
            ),
            seed=0,
        )
        context = RunContext()
        report = lp_hta(scenario.system, list(scenario.tasks), context=context)
        assert len(report.clusters) == 1
        assert context.telemetry.batch_solves == 0  # blocks >= 2 gate
        assert context.telemetry.solves == 1


class TestLPHTABatchEntryPoint:
    """lp_hta_batch pools every input's clusters into one mega-solve."""

    def _jobs(self):
        jobs = []
        for seed in range(3):
            scenario = generate_scenario(
                PAPER_DEFAULTS.with_updates(num_tasks=10 + 5 * seed), seed=seed
            )
            jobs.append((scenario.system, list(scenario.tasks)))
        return jobs

    def test_matches_per_job_lp_hta(self):
        jobs = self._jobs()
        with use_context(RunContext()) as batched_ctx:
            batched = lp_hta_batch(jobs, context=batched_ctx)
        sequential = []
        with _sequential_ladder(), use_context(RunContext()) as sequential_ctx:
            for system, tasks in jobs:
                sequential.append(lp_hta(system, tasks, context=sequential_ctx))
        assert len(batched) == len(sequential)
        for b, s in zip(batched, sequential):
            _reports_identical(b, s)
        total_clusters = sum(len(r.clusters) for r in sequential)
        assert batched_ctx.telemetry.batch_solves == 1
        assert batched_ctx.telemetry.batched_blocks == total_clusters

    def test_reference_context_never_batches(self):
        jobs = self._jobs()[:1]
        context = RunContext(reference=True)
        reports = lp_hta_batch(jobs, context=context)
        assert len(reports) == 1
        assert context.telemetry.batch_solves == 0

    def test_repeated_column_is_a_whole_batch_cache_hit(self):
        jobs = self._jobs()
        context = RunContext()
        first = lp_hta_batch(jobs, context=context)
        assert context.telemetry.batch_cache_hits == 0
        second = lp_hta_batch(jobs, context=context)
        assert context.telemetry.batch_cache_hits == 1
        assert context.telemetry.batch_solves == 1  # no second mega-solve
        for a, b in zip(first, second):
            _reports_identical(a, b)
