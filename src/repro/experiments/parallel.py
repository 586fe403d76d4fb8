"""Process-parallel execution of sweep cells.

The figure reproducers and :func:`repro.experiments.grid.run_grid` both
reduce to the same shape of work: a list of (profile × seed) cells, each
evaluated by a fixed set of algorithms.  This module fans those cells out
over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Three properties make the parallel path safe to substitute for the
sequential one:

- **Picklable work descriptors.**  A :class:`SweepCell` carries only the
  (frozen) workload profile, the seed, :class:`EvaluatorSpec` values and
  an explicit :class:`~repro.context.RunContext` — never a live scenario
  or a closure — so cells cross process boundaries cheaply.  Each worker
  obtains its scenario from ``(profile, seed)`` *under the cell's
  context*, which is why spawn-started workers behave identically to
  fork-started ones: the run configuration travels inside the pickle
  instead of relying on inherited process globals.  A per-process memo
  keyed by ``(profile, seed, context)`` lets cells that share a scenario
  reuse it (and its cost tables) instead of regenerating; reference-mode
  cells always regenerate so baselines stay honest.
- **Deterministic per-cell seeding.**  Scenario generation is a pure
  function of ``(profile, seed)``, and every evaluator is deterministic,
  so a cell's results do not depend on which process runs it or in what
  order.  Results are therefore bit-identical to the sequential path.
- **Order-preserving collection.**  ``Executor.map`` yields results in
  submission order, so downstream seed-averaging sees the exact same
  float sequence either way.

``jobs=1`` runs the cells in-process with no executor, no pickling
requirement and no subprocess overhead; it is the default everywhere.

Outside reference mode (:attr:`~repro.context.RunContext.reference`),
cells sharing a profile, evaluator set and context — the seeds
of one sweep column — are grouped and dispatched as one unit: each
evaluator then pools the whole column's Step-1 LP work into a single
block-diagonal mega-solve (:func:`repro.core.hta.lp_hta_batch`).  Column
composition is a pure function of the cell list — never of ``jobs`` or
pool scheduling — so results, spans and telemetry stay identical
in-process, under fork and under spawn.

Worker telemetry (solve counts, wall time, cache and scenario-memo hits)
is returned next to each cell's results and merged into the submitting
context's sink, so ``--stats`` summaries cover parallel runs too.

Pools persist between :func:`run_cells` calls (keyed by worker count and
start method, torn down at interpreter exit): repeated sweeps skip pool
start-up and keep each worker's scenario memo warm.  Long-lived callers
(the CLI) wrap their dispatch in :func:`pool_scope`, which reaps the
cached pools deterministically on the way out — including the
``KeyboardInterrupt`` path — instead of leaning on the :mod:`atexit`
hook alone.

Dispatch itself runs under the crash-safe runtime (:mod:`repro.runtime`):
every unit of work is supervised (per-cell timeouts, bounded retries
with backoff, poison-cell quarantine — a cell that keeps failing is
recorded and skipped, its result slot left ``None``), worker failures
travel back as :class:`~repro.runtime.errors.RemoteCellError` with the
remote traceback attached, and when the active context carries a
``journal_path`` every completed cell is checkpointed so ``--resume``
replays finished work instead of recomputing it.
"""

from __future__ import annotations

import atexit
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace as dataclass_replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import multiprocessing

from repro import registry
from repro.context import RunContext, Telemetry, current_context, use_context
from repro.experiments.runner import (
    HOLISTIC_ALGORITHMS,
    AlgorithmResult,
    evaluate_dta,
    evaluate_holistic,
)
from repro.runtime import (
    PoolHandle,
    RemoteCellError,
    RetryPolicy,
    Supervisor,
    context_fingerprint,
    fingerprint,
    journal_for,
)
from repro.system.sharding import ShardSpec
from repro.workload.generator import Scenario, generate_scenario
from repro.workload.profiles import WorkloadProfile
from repro.workload.streaming import generate_tile

__all__ = [
    "EvaluatorSpec",
    "SweepCell",
    "TileCell",
    "TileResult",
    "as_spec",
    "dta_spec",
    "holistic_spec",
    "pool_scope",
    "resolve_jobs",
    "run_cells",
    "run_tiles",
    "shutdown_pools",
]


@dataclass(frozen=True)
class EvaluatorSpec:
    """A picklable description of one evaluator.

    :param name: display name used as the series/evaluator key.
    :param kind: ``"holistic"`` (``target`` is an algorithm name),
        ``"dta"`` (``target`` is a DTA objective) or ``"callable"``
        (``target`` is any ``Scenario -> AlgorithmResult`` callable; it
        must itself pickle for ``jobs > 1``).
    :param target: the dispatch payload for ``kind``.
    :param context: explicit run configuration for this evaluator; when
        ``None`` (the default) the ambient context applies — in workers
        that is the enclosing :class:`SweepCell`'s context.
    """

    name: str
    kind: str
    target: Any
    context: Optional[RunContext] = None

    def __call__(self, scenario: Scenario) -> AlgorithmResult:
        context = self.context if self.context is not None else current_context()
        if self.kind == "holistic":
            return evaluate_holistic(scenario, self.target, context)
        if self.kind == "dta":
            return evaluate_dta(scenario, self.target, context)
        if self.kind == "callable":
            with use_context(context):
                return self.target(scenario)
        raise ValueError(f"unknown evaluator kind {self.kind!r}")

    def run_batch(self, scenarios: Sequence[Scenario]) -> List[AlgorithmResult]:
        """Evaluate many scenarios at once, pooling LP work where possible.

        Registry algorithms with a batch form (LP-HTA, both DTA entries)
        clear all scenarios' Step-1 relaxations in one block-diagonal
        mega-solve (:func:`repro.registry.run_batch`); everything else —
        and every run with batching disabled — degenerates to the
        per-scenario loop.  Results are identical to
        ``[self(s) for s in scenarios]`` either way.
        """
        context = self.context if self.context is not None else current_context()
        if self.kind == "holistic":
            # Same membership check evaluate_holistic applies per call.
            if registry.get(self.target).name not in HOLISTIC_ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {self.target!r}; "
                    f"choose from {sorted(HOLISTIC_ALGORITHMS)}"
                )
            return registry.run_batch(self.target, scenarios, context)
        if self.kind == "dta":
            if self.target not in registry.DTA_OBJECTIVES.values():
                raise ValueError(
                    f"unknown DTA objective {self.target!r}; "
                    f"choose from {sorted(registry.DTA_OBJECTIVES.values())}"
                )
            return registry.run_batch(self.target, scenarios, context)
        return [self(scenario) for scenario in scenarios]


def holistic_spec(
    name: str, context: Optional[RunContext] = None
) -> EvaluatorSpec:
    """Spec for a holistic algorithm by registry name (e.g. ``"LP-HTA"``)."""
    return EvaluatorSpec(name=name, kind="holistic", target=name, context=context)


def dta_spec(objective: str, context: Optional[RunContext] = None) -> EvaluatorSpec:
    """Spec for a DTA run by objective (``"workload"`` or ``"number"``)."""
    name = registry.get(objective).name
    return EvaluatorSpec(name=name, kind="dta", target=objective, context=context)


def as_spec(name: str, evaluator: Callable[[Scenario], AlgorithmResult]) -> EvaluatorSpec:
    """Wrap an arbitrary evaluator callable, passing specs through as-is."""
    if isinstance(evaluator, EvaluatorSpec):
        return evaluator
    return EvaluatorSpec(name=name, kind="callable", target=evaluator)


@dataclass(frozen=True)
class SweepCell:
    """One unit of parallel work: a scenario plus its evaluators.

    :param index: position in the submitted cell list (results come back
        in this order regardless of scheduling).
    :param profile: workload profile to generate the scenario from.
    :param seed: scenario seed.
    :param evaluators: evaluators to run, in order.
    :param context: run configuration the cell executes under.  ``None``
        means "whatever is active where the cell runs"; :func:`run_cells`
        stamps its caller's context onto unbound cells before dispatch so
        worker processes — fork *or* spawn — see the submitter's exact
        configuration.
    """

    index: int
    profile: WorkloadProfile
    seed: int
    evaluators: Tuple[EvaluatorSpec, ...]
    context: Optional[RunContext] = None


#: Per-process scenario memo: cells sharing (profile, seed, context) reuse
#: one generated scenario (and, through it, its memoised cost tables).
#: Scenario generation is a pure function of the key, so reuse is exact.
#: Bounded LRU so long sweeps over many profiles don't accumulate scenarios.
_SCENARIO_MEMO: "OrderedDict[Tuple[WorkloadProfile, int, RunContext], Scenario]" = (
    OrderedDict()
)
_SCENARIO_MEMO_CAPACITY = 64


def _scenario_for(
    profile: WorkloadProfile, seed: int, context: RunContext
) -> Scenario:
    """The cell's scenario, served from the per-process memo when possible.

    Reference mode always regenerates: the seed-era pipeline had no memo,
    and benchmark baselines must not borrow speed from one.  Traced runs
    also bypass it — which cells hit the memo depends on pool scheduling,
    and trace content must be deterministic across start methods.  Every
    lookup is counted in the context's telemetry (``--stats`` reports the
    rate).
    """
    if context.reference or context.trace:
        return generate_scenario(profile, seed=seed)
    key = (profile, seed, context)
    scenario = _SCENARIO_MEMO.get(key)
    context.telemetry.record_scenario_memo(scenario is not None)
    if scenario is not None:
        _SCENARIO_MEMO.move_to_end(key)
        return scenario
    scenario = generate_scenario(profile, seed=seed)
    _SCENARIO_MEMO[key] = scenario
    while len(_SCENARIO_MEMO) > _SCENARIO_MEMO_CAPACITY:
        _SCENARIO_MEMO.popitem(last=False)
    return scenario


def _evaluate_cell(cell: SweepCell) -> Tuple[AlgorithmResult, ...]:
    """Worker entry point: obtain the scenario, run every evaluator.

    The cell's context (when bound) is activated around both scenario
    generation and evaluation, so reference/optimised routing and LP
    settings are taken from the cell, never from process globals.
    """
    context = cell.context if cell.context is not None else current_context()
    with use_context(context):
        scenario = _scenario_for(cell.profile, cell.seed, context)
        return tuple(spec(scenario) for spec in cell.evaluators)


def _group_columns(cells: Sequence[SweepCell]) -> List[List[int]]:
    """Deterministic sweep columns: cell indices grouped for batching.

    Cells sharing (profile, evaluators, context) — the seeds of one sweep
    column — form one group, in first-appearance order; cells whose
    context rules batching out (reference mode) stay
    singleton groups, preserving per-cell pool granularity.  Composition
    is a pure function of the cell list — never of ``jobs``, the start
    method or pool scheduling — so the batched mega-solves (and therefore
    telemetry, spans and results) are identical in-process, under fork and
    under spawn.

    The context is compared by *identity*, not equality: a column's work
    runs under (and reports into) one context, which is only correct when
    its cells genuinely share the object — as cells stamped by
    :func:`run_cells` do.  Equal-but-distinct contexts keep their own
    telemetry sinks and stay unbatched.
    """
    groups: "OrderedDict[Any, List[int]]" = OrderedDict()
    for index, cell in enumerate(cells):
        context = cell.context
        if context is not None and not context.reference:
            key: Any = ("column", cell.profile, cell.evaluators, id(context))
        else:
            key = ("cell", index)
        try:
            groups.setdefault(key, []).append(index)
        except TypeError:  # unhashable evaluator target: no batching
            groups[("cell", index)] = [index]
    return list(groups.values())


def _evaluate_column(cells: Sequence[SweepCell]) -> List[Tuple[AlgorithmResult, ...]]:
    """Evaluate one sweep column, batching each evaluator across its cells.

    Every cell's scenario is obtained first (same memo and counting as the
    per-cell path), then each evaluator runs once over the whole column —
    which is where LP-HTA and DTA pool their Step-1 relaxations into one
    mega-solve.  Returns per-cell result tuples in cell order, identical
    to ``[_evaluate_cell(c) for c in cells]``.
    """
    if len(cells) == 1:
        return [_evaluate_cell(cells[0])]
    context = cells[0].context if cells[0].context is not None else current_context()
    with use_context(context):
        scenarios = [
            _scenario_for(cell.profile, cell.seed, context) for cell in cells
        ]
        per_cell: List[List[AlgorithmResult]] = [[] for _ in cells]
        for spec in cells[0].evaluators:
            for index, result in enumerate(spec.run_batch(scenarios)):
                per_cell[index].append(result)
        return [tuple(results) for results in per_cell]


def _column_label(cells: Sequence[SweepCell]) -> str:
    """Where a column lives, for remote-error messages and quarantine."""
    if len(cells) == 1:
        cell = cells[0]
        return f"cell {cell.index} (seed {cell.seed})"
    indices = [cell.index for cell in cells]
    seeds = sorted({cell.seed for cell in cells})
    return f"cells {indices} (seeds {seeds})"


def _evaluate_column_with_telemetry(
    cells: Sequence[SweepCell],
) -> Tuple[List[Tuple[AlgorithmResult, ...]], Telemetry]:
    """Pool entry point for a whole column (cells share one context pickle).

    Evaluation failures are re-raised as
    :class:`~repro.runtime.errors.RemoteCellError` so the formatted remote
    stack and the cell coordinates survive the pickle boundary back to the
    supervisor.
    """
    try:
        results = _evaluate_column(cells)
    except RemoteCellError:
        raise
    except Exception as exc:
        raise RemoteCellError.wrap(exc, _column_label(cells)) from None
    context = cells[0].context if cells[0].context is not None else current_context()
    return results, context.telemetry


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/``0`` mean all CPUs.

    :raises ValueError: for negative values.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _bind_context(cell: SweepCell, context: RunContext) -> SweepCell:
    """Stamp ``context`` onto a cell that does not carry one already."""
    if cell.context is not None:
        return cell
    return dataclass_replace(cell, context=context)


#: Live pools keyed by (worker count, start method), reused across
#: :func:`run_cells` calls.  Repeated sweeps (figure batches, benchmark
#: repeats) would otherwise pay pool start-up per call and lose every
#: worker's scenario memo each time.
_POOLS: Dict[Tuple[int, str], ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    """Tear down every cached pool (registered via :mod:`atexit`)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


def shutdown_pools() -> None:
    """Tear down every cached worker pool now.

    Safe to call at any time; the next :func:`run_cells` simply starts
    fresh pools.  Normally invoked through :func:`pool_scope`.
    """
    _shutdown_pools()


@contextmanager
def pool_scope() -> Iterator[None]:
    """Scope the cached worker pools to a ``with`` block.

    Pools still persist *between* sweeps inside the block (warm workers,
    warm scenario memos); on exit — normal return, exception or
    ``KeyboardInterrupt`` — every cached pool is shut down with its
    futures cancelled, so workers are reaped deterministically instead of
    at interpreter exit.  The CLI wraps each command dispatch in this.
    """
    try:
        yield
    finally:
        _shutdown_pools()


def _pool_for(workers: int, mp_context: "multiprocessing.context.BaseContext") -> ProcessPoolExecutor:
    """A cached executor for (workers, start method), created on demand."""
    key = (workers, mp_context.get_start_method())
    pool = _POOLS.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        _POOLS[key] = pool
    return pool


def _discard_pool(workers: int, mp_context: "multiprocessing.context.BaseContext") -> None:
    """Drop (and shut down) a cached pool after a failure."""
    key = (workers, mp_context.get_start_method())
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _cell_key(cell: SweepCell) -> Optional[str]:
    """The cell's journal key, or ``None`` when it cannot be fingerprinted.

    Callable evaluators have no stable identity the journal could trust
    across runs, so cells carrying one always run live.  Everything else
    in the key — profile, seed, evaluator descriptors, the
    result-determining context fields — is a frozen value with a
    deterministic ``repr``.
    """
    if any(spec.kind == "callable" for spec in cell.evaluators):
        return None
    specs = tuple(
        (
            spec.name,
            spec.kind,
            spec.target,
            None if spec.context is None else context_fingerprint(spec.context),
        )
        for spec in cell.evaluators
    )
    return fingerprint(
        "sweep-cell",
        cell.profile,
        cell.seed,
        specs,
        context_fingerprint(cell.context),
    )


def _mp_context(
    start_method: Optional[str],
) -> "multiprocessing.context.BaseContext":
    """The multiprocessing context for a requested start method.

    ``None`` prefers ``fork`` (cheap start-up, no re-import of
    numpy/scipy) and falls back to the platform default where fork is
    unavailable.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> List[Optional[Tuple[AlgorithmResult, ...]]]:
    """Evaluate every cell, in-process or across a worker pool, supervised.

    Execution runs under the crash-safe runtime: failed cells are retried
    per the active context's :class:`~repro.runtime.supervisor.RetryPolicy`
    and quarantined (result slot ``None``) when they keep failing; when
    the context names a ``journal_path`` every completed cell is
    checkpointed, and with ``resume`` set journalled cells are replayed
    instead of recomputed — bit-identically, because every cell is a pure
    function of its fingerprinted inputs.

    :param cells: the work descriptors.
    :param jobs: worker processes; ``1`` (default) runs in-process,
        ``None`` or ``0`` use every CPU.
    :param start_method: multiprocessing start method for ``jobs > 1``
        (``"fork"``, ``"spawn"``, ...).  ``None`` prefers ``fork`` where
        available (cheap start-up, no re-import of numpy/scipy) and falls
        back to the platform default.  Results are identical either way
        because cells carry their :class:`~repro.context.RunContext`
        explicitly.
    :returns: per-cell evaluator results, in ``cells`` order; ``None``
        marks a quarantined cell.
    :raises ValueError: when ``jobs > 1`` and a cell does not pickle
        (e.g. a lambda evaluator was wrapped via :func:`as_spec`).
    """
    jobs = resolve_jobs(jobs)
    ambient = current_context()
    bound = [_bind_context(cell, ambient) for cell in cells]
    # Column composition is fixed here, before any dispatch decision, so
    # batched mega-solves are identical in-process and across any pool.
    columns = _group_columns(bound)

    results: List[Optional[Tuple[AlgorithmResult, ...]]] = [None] * len(bound)
    journal = journal_for(ambient.journal_path, ambient.resume)
    keys: List[Optional[str]] = (
        [_cell_key(cell) for cell in bound]
        if journal is not None
        else [None] * len(bound)
    )
    replayed: set = set()
    if journal is not None and ambient.resume:
        for index, key in enumerate(keys):
            if key is None:
                continue
            value = journal.get(key)
            if value is not None:
                results[index] = value
                replayed.add(index)
        if replayed:
            ambient.telemetry.record_journal_replay(len(replayed))

    groups = [
        tuple(i for i in column if i not in replayed) for column in columns
    ]
    groups = [group for group in groups if group]
    if not groups:
        return results

    def describe(ids: Tuple[int, ...]) -> str:
        return _column_label([bound[i] for i in ids])

    def checkpoint(index: int, value: Tuple[AlgorithmResult, ...]) -> None:
        # Fires per completed cell so a crash mid-sweep keeps everything
        # finished so far, not just what a completed run would have saved.
        if journal is not None and keys[index] is not None:
            journal.record(keys[index], value)

    supervisor = Supervisor(
        RetryPolicy.from_context(ambient), ambient, describe=describe,
        on_result=checkpoint,
    )

    def finish(
        result_map: Dict[int, Tuple[AlgorithmResult, ...]],
    ) -> List[Optional[Tuple[AlgorithmResult, ...]]]:
        for index, value in result_map.items():
            results[index] = value
        return results

    def run_local() -> List[Optional[Tuple[AlgorithmResult, ...]]]:
        result_map, _ = supervisor.run_local(
            groups, lambda ids: _evaluate_column([bound[i] for i in ids])
        )
        return finish(result_map)

    remaining = sum(len(group) for group in groups)
    if jobs == 1 or remaining <= 1:
        return run_local()

    # Validated for every jobs > 1 request — even ones that end up running
    # in-process below — so picklability problems surface on every machine,
    # not just multi-core ones.
    try:
        pickle.dumps(tuple(bound))
    except Exception as exc:  # pickle raises a zoo of types
        raise ValueError(
            "cells are not picklable, so they cannot be shipped to worker "
            "processes; use holistic_spec()/dta_spec() or a module-level "
            f"callable instead of a closure (jobs={jobs}): {exc}"
        ) from exc

    # Never run more workers than work items, and never oversubscribe the
    # machine: extra processes on a smaller box only add scheduler churn.
    # A one-worker pool would serialise anyway, so skip the pool entirely.
    workers = min(jobs, len(groups), os.cpu_count() or jobs)
    if workers <= 1:
        return run_local()

    mp_context = _mp_context(start_method)

    # The pool is cached and reused by later run_cells calls: repeated
    # sweeps skip process start-up, and each worker keeps its scenario
    # memo warm across calls.  Crash/timeout handling — pool discarding,
    # retries, quarantine — lives in the supervisor.
    # Each column ships as one pickle, so its cells' shared context stays
    # one object in the worker and the column's telemetry lands in one
    # sink.  Singleton columns reproduce the historical per-cell dispatch.
    pool = PoolHandle(
        acquire=lambda: _pool_for(workers, mp_context),
        discard=lambda: _discard_pool(workers, mp_context),
    )
    result_map, _ = supervisor.run_pooled(
        groups,
        _evaluate_column_with_telemetry,
        lambda ids: tuple(bound[i] for i in ids),
        pool,
        # Fold each worker's solve/cache counters back into the caller's
        # sink, so --stats covers parallel runs.
        ambient.telemetry.merge,
    )
    return finish(result_map)


@dataclass(frozen=True)
class TileCell:
    """One shard's unit of streamed work: generate a tile, solve it.

    The city-scale counterpart of :class:`SweepCell` — the dispatch unit
    is a *shard*, not a (profile × seed) cell.  A cell carries only the
    (frozen) global profile, the shard spec, the shard id, the stream seed
    and an explicit context, so it pickles cheaply and the worker rebuilds
    its tile from scratch: no global scenario, no global cost tensor, no
    inherited process state.  Fork- and spawn-started workers therefore
    produce bit-identical results.

    :param profile: the global workload profile being streamed.
    :param spec: contiguous station partition covering the profile.
    :param shard_id: which shard this cell generates and solves.
    :param seed: the global stream seed.
    :param context: run configuration; ``None`` means "stamped by
        :func:`run_tiles` from its caller's ambient context".
    """

    profile: WorkloadProfile
    spec: ShardSpec
    shard_id: int
    seed: int
    context: Optional[RunContext] = None


@dataclass(frozen=True)
class TileResult:
    """Picklable summary of one solved tile.

    Carries aggregates only — never the tile's system, tasks or cost
    table — so results from 10⁵-device streams stay a few hundred bytes
    per shard.

    :param shard_id: which shard produced this result.
    :param num_devices: devices in the tile.
    :param num_stations: stations in the tile.
    :param num_tasks: tasks in the tile.
    :param cancelled: tasks LP-HTA cancelled in the tile.
    :param total_energy_j: final assignment energy over the tile.
    :param lp_objective_j: the tile's Step-1 relaxation optimum.
    """

    shard_id: int
    num_devices: int
    num_stations: int
    num_tasks: int
    cancelled: int
    total_energy_j: float
    lp_objective_j: float


def _evaluate_tile(cell: TileCell) -> TileResult:
    """Worker entry point: generate the cell's tile and LP-HTA it.

    Tile generation is a pure function of (profile, spec, shard_id, seed)
    and LP-HTA is deterministic, so the result does not depend on which
    process runs the cell or in what order.
    """
    from repro.core.assignment import Subsystem
    from repro.core.hta import lp_hta

    context = cell.context if cell.context is not None else current_context()
    with use_context(context):
        tile = generate_tile(cell.profile, cell.spec, cell.shard_id, cell.seed)
        if tile.num_tasks == 0:
            return TileResult(
                shard_id=cell.shard_id,
                num_devices=tile.num_devices,
                num_stations=tile.system.num_stations,
                num_tasks=0,
                cancelled=0,
                total_energy_j=0.0,
                lp_objective_j=0.0,
            )
        report = lp_hta(tile.system, list(tile.tasks), context=context)
        context.telemetry.shard_solves += 1
        counts = report.assignment.subsystem_counts()
        return TileResult(
            shard_id=cell.shard_id,
            num_devices=tile.num_devices,
            num_stations=tile.system.num_stations,
            num_tasks=tile.num_tasks,
            cancelled=counts.get(Subsystem.CANCELLED, 0),
            total_energy_j=report.assignment.total_energy_j(),
            lp_objective_j=report.lp_objective_j,
        )


def _tile_label(cells: Sequence[TileCell]) -> str:
    """Where a tile unit lives, for remote errors and quarantine records."""
    if len(cells) == 1:
        cell = cells[0]
        return f"tile shard {cell.shard_id} (seed {cell.seed})"
    shards = [cell.shard_id for cell in cells]
    return f"tile shards {shards} (seed {cells[0].seed})"


def _evaluate_tiles_with_telemetry(
    cells: Sequence[TileCell],
) -> Tuple[List[TileResult], Telemetry]:
    """Pool entry point: per-cell tile results plus their telemetry.

    Takes a unit of (usually one) tile cells so the supervised dispatch
    has one uniform worker contract; failures come back as
    :class:`~repro.runtime.errors.RemoteCellError` with the shard id and
    remote stack attached.
    """
    try:
        results = [_evaluate_tile(cell) for cell in cells]
    except RemoteCellError:
        raise
    except Exception as exc:
        raise RemoteCellError.wrap(exc, _tile_label(cells)) from None
    context = cells[0].context if cells[0].context is not None else current_context()
    return results, context.telemetry


def _tile_key(cell: TileCell) -> str:
    """The tile cell's journal key (tiles always fingerprint)."""
    return fingerprint(
        "tile-cell",
        cell.profile,
        cell.spec,
        cell.shard_id,
        cell.seed,
        context_fingerprint(cell.context),
    )


def _bind_tile_context(cell: TileCell, context: RunContext) -> TileCell:
    """Stamp ``context`` onto a tile cell that does not carry one already."""
    if cell.context is not None:
        return cell
    return dataclass_replace(cell, context=context)


def run_tiles(
    cells: Sequence[TileCell],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> List[Optional[TileResult]]:
    """Generate-and-solve every tile, in-process or across a worker pool.

    The streamed analogue of :func:`run_cells`, with shards as the
    dispatch unit: each worker holds at most one tile's system and cost
    rows at a time, so peak memory is bounded by the largest *shard*, not
    the city.  Same pool cache, supervised retry/quarantine, journalled
    checkpoints, order preservation and telemetry merge-back as the cell
    path.

    :param cells: one descriptor per shard to stream.
    :param jobs: worker processes; ``1`` (default) runs in-process,
        ``None`` or ``0`` use every CPU.
    :param start_method: multiprocessing start method for ``jobs > 1``;
        ``None`` prefers ``fork``.  Results are bit-identical either way
        because cells carry their context and tiles are pure functions of
        their cell.
    :returns: per-cell tile results, in ``cells`` order; ``None`` marks a
        quarantined tile.
    """
    jobs = resolve_jobs(jobs)
    ambient = current_context()
    bound = [_bind_tile_context(cell, ambient) for cell in cells]

    results: List[Optional[TileResult]] = [None] * len(bound)
    journal = journal_for(ambient.journal_path, ambient.resume)
    keys: List[Optional[str]] = (
        [_tile_key(cell) for cell in bound]
        if journal is not None
        else [None] * len(bound)
    )
    replayed: set = set()
    if journal is not None and ambient.resume:
        for index, key in enumerate(keys):
            value = journal.get(key) if key is not None else None
            if value is not None:
                results[index] = value
                replayed.add(index)
        if replayed:
            ambient.telemetry.record_journal_replay(len(replayed))

    # Tiles are already the dispatch granularity: one singleton unit each.
    groups = [(i,) for i in range(len(bound)) if i not in replayed]
    if not groups:
        return results

    def describe(ids: Tuple[int, ...]) -> str:
        return _tile_label([bound[i] for i in ids])

    def checkpoint(index: int, value: TileResult) -> None:
        # Per-tile checkpoint, same rationale as run_cells: a crash keeps
        # every tile completed so far.
        if journal is not None and keys[index] is not None:
            journal.record(keys[index], value)

    supervisor = Supervisor(
        RetryPolicy.from_context(ambient), ambient, describe=describe,
        on_result=checkpoint,
    )

    def finish(result_map: Dict[int, TileResult]) -> List[Optional[TileResult]]:
        for index, value in result_map.items():
            results[index] = value
        return results

    def run_local() -> List[Optional[TileResult]]:
        result_map, _ = supervisor.run_local(
            groups, lambda ids: [_evaluate_tile(bound[i]) for i in ids]
        )
        return finish(result_map)

    # In-process: telemetry accrues directly in each cell's context (for
    # stamped cells, the ambient one), exactly like run_cells.
    if jobs == 1 or len(groups) <= 1:
        return run_local()

    try:
        pickle.dumps(tuple(bound))
    except Exception as exc:  # pickle raises a zoo of types
        raise ValueError(
            f"tile cells are not picklable (jobs={jobs}): {exc}"
        ) from exc

    workers = min(jobs, len(groups), os.cpu_count() or jobs)
    if workers <= 1:
        return run_local()

    mp_context = _mp_context(start_method)
    pool = PoolHandle(
        acquire=lambda: _pool_for(workers, mp_context),
        discard=lambda: _discard_pool(workers, mp_context),
    )
    result_map, _ = supervisor.run_pooled(
        groups,
        _evaluate_tiles_with_telemetry,
        lambda ids: tuple(bound[i] for i in ids),
        pool,
        ambient.telemetry.merge,
    )
    return finish(result_map)
