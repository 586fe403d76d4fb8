"""The crash-safe execution runtime: journal, supervisor, fallback ladder.

Covers the three tentpole pieces end to end:

- the append-only checkpoint journal (roundtrip, torn-line tolerance,
  ``--resume`` replay producing bit-identical sweep output),
- the supervisor (retries, timeout quarantine, poison-cell isolation
  under injected ``os._exit`` worker crashes, remote-traceback
  preservation, config-error passthrough), across fork and spawn,
- the solver fallback ladder (rigged non-convergence degrades through
  the backends down to greedy HTA without aborting, rungs recorded).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

import repro.lp.backends as backends_mod
import repro.runtime.journal as journal_mod
from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.hta import lp_hta
from repro.experiments.parallel import (
    SweepCell,
    TileCell,
    as_spec,
    holistic_spec,
    pool_scope,
    run_cells,
    run_tiles,
)
from repro.experiments.parallel import _POOLS
from repro.experiments.runner import AlgorithmResult
from repro.lp import LinearProgram, LPStatus
from repro.lp.backends import solve_with_fallback
from repro.lp.interior_point import (
    IPMOptions,
    solve_interior_point,
    solve_interior_point_batch,
)
from repro.lp.result import LPResult
from repro.runtime import (
    CellFailedError,
    Journal,
    RemoteCellError,
    RetryPolicy,
    Supervisor,
    config_error_of,
    context_fingerprint,
    fingerprint,
    is_config_error,
    journal_for,
)
from repro.system.sharding import ShardSpec
from repro.workload import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=8)
_SPECS = (holistic_spec("AllToC"), holistic_spec("HGOS"))

#: Seed that the injected-fault evaluators treat as the poison cell.
_POISON_SEED = 1


@pytest.fixture(autouse=True)
def _fresh_journals():
    """Each test sees a clean process-wide journal cache (the cache is
    how one CLI invocation shares a journal; tests simulate *separate*
    invocations)."""
    journal_mod._close_journals()
    yield
    journal_mod._close_journals()


def _fast_policy(**overrides):
    defaults = dict(max_attempts=2, backoff_base_s=0.0, backoff_cap_s=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _cells(n=3, specs=_SPECS):
    return [
        SweepCell(index=i, profile=_PROFILE, seed=i, evaluators=specs)
        for i in range(n)
    ]


def _pooled_cells(n=3, specs=_SPECS):
    """One profile per cell: each cell is its own sweep column and hence
    its own dispatch unit, so the sweep genuinely crosses the pool (a
    single batched column would short-circuit to in-process execution)."""
    return [
        SweepCell(
            index=i, profile=_PROFILE.with_updates(num_tasks=8 + i),
            seed=i, evaluators=specs,
        )
        for i in range(n)
    ]


def _ok_result(name="probe"):
    return AlgorithmResult(
        name=name, total_energy_j=1.0, mean_latency_s=0.0,
        unsatisfied_rate=0.0, processing_time_s=0.0, involved_devices=0,
    )


def _crash_on_poison(scenario) -> AlgorithmResult:
    """Module-level evaluator (pickles by reference): hard-kills the
    worker on the poison seed — no exception, no cleanup, like an OOM
    kill."""
    if scenario.seed == _POISON_SEED:
        os._exit(1)
    return _ok_result()


def _raise_on_poison(scenario) -> AlgorithmResult:
    if scenario.seed == _POISON_SEED:
        raise RuntimeError(f"rigged failure on seed {scenario.seed}")
    return _ok_result()


def _hang_on_poison(scenario) -> AlgorithmResult:
    if scenario.seed == _POISON_SEED:
        time.sleep(3.0)
    return _ok_result()


def _spawn_available() -> bool:
    return "spawn" in multiprocessing.get_all_start_methods()


_START_METHODS = ["fork"] + (["spawn"] if _spawn_available() else [])


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.record("k1", {"a": 1})
            journal.record("k2", (1.5, "x"))
        with Journal(path, resume=True) as journal:
            assert len(journal) == 2
            assert journal.get("k1") == {"a": 1}
            assert journal.get("k2") == (1.5, "x")
            assert journal.get("missing") is None

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.record("k1", 42)
        with open(path, "a") as handle:
            handle.write('{"kind": "cell", "key": "k2", "da')  # torn append
        with Journal(path, resume=True) as journal:
            assert journal.get("k1") == 42
            assert "k2" not in journal

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.record("k1", 42)
        with Journal(path, resume=False) as journal:
            assert "k1" not in journal

    def test_journal_for_shares_one_handle_per_path(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = journal_for(path)
        first.record("k1", 1)
        # A later sweep in the same invocation must append, not truncate.
        assert journal_for(path) is first
        assert journal_for(None) is None

    def test_fingerprint_ignores_runtime_knobs(self):
        base = context_fingerprint(RunContext())
        tweaked = context_fingerprint(
            RunContext(
                max_attempts=9, cell_timeout_s=3.0, retry_backoff_s=1.0,
                quarantine=False, journal_path="/tmp/x", resume=True,
                trace=True, lp_cache_capacity=0,
            )
        )
        assert base == tweaked
        assert context_fingerprint(RunContext(seed=7)) != base
        assert fingerprint("a", 1) == fingerprint("a", 1)
        assert fingerprint("a", 1) != fingerprint("a", 2)


# ---------------------------------------------------------------------------
# Supervisor (in-process)
# ---------------------------------------------------------------------------


class TestSupervisorLocal:
    def test_retry_then_success(self):
        context = RunContext()
        supervisor = Supervisor(_fast_policy(max_attempts=3), context)
        failures = {"left": 2}

        def evaluate(ids):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return [f"v{i}" for i in ids]

        results, quarantined = supervisor.run_local([(0, 1)], evaluate)
        assert quarantined == []
        assert results == {0: "v0", 1: "v1"}
        assert context.telemetry.cell_retries >= 1

    def test_quarantine_after_exhaustion(self):
        context = RunContext()
        supervisor = Supervisor(_fast_policy(max_attempts=2), context)

        def evaluate(ids):
            if 1 in ids:
                raise RuntimeError("poison")
            return [f"v{i}" for i in ids]

        results, quarantined = supervisor.run_local([(0, 1, 2)], evaluate)
        # The failing column split into singletons: innocents complete.
        assert results[0] == "v0" and results[2] == "v2"
        assert quarantined == [1]
        assert context.telemetry.cells_quarantined == 1
        entry = context.telemetry.quarantines[0]
        assert "poison" in entry["error"]
        assert entry["attempts"] == 2

    def test_quarantine_disabled_raises(self):
        context = RunContext()
        supervisor = Supervisor(
            _fast_policy(max_attempts=1, quarantine=False), context
        )

        def evaluate(ids):
            raise RuntimeError("poison")

        with pytest.raises(CellFailedError, match="poison"):
            supervisor.run_local([(0,)], evaluate)

    def test_config_error_fatal_not_retried(self):
        context = RunContext()
        supervisor = Supervisor(_fast_policy(), context)
        calls = {"n": 0}

        def evaluate(ids):
            calls["n"] += 1
            raise ValueError("unknown algorithm 'typo'")

        with pytest.raises(ValueError, match="typo"):
            supervisor.run_local([(0,)], evaluate)
        assert calls["n"] == 1
        assert context.telemetry.cell_retries == 0

    def test_policy_from_context(self):
        policy = RetryPolicy.from_context(
            RunContext(max_attempts=5, cell_timeout_s=2.5, quarantine=False)
        )
        assert policy.max_attempts == 5
        assert policy.timeout_s == 2.5
        assert policy.quarantine is False
        # max_attempts is clamped to at least one real attempt.
        assert RetryPolicy.from_context(RunContext(max_attempts=0)).max_attempts == 1


# ---------------------------------------------------------------------------
# Error types
# ---------------------------------------------------------------------------


class TestErrorTypes:
    def test_remote_error_preserves_traceback_through_pickle(self):
        import pickle

        try:
            raise RuntimeError("boom at the bottom")
        except RuntimeError as exc:
            wrapped = RemoteCellError.wrap(exc, "cell 3 (seed 1)")
        restored = pickle.loads(pickle.dumps(wrapped))
        assert "cell 3 (seed 1)" in str(restored)
        assert "RuntimeError" in str(restored)
        assert "boom at the bottom" in restored.remote_traceback
        assert "Traceback" in restored.remote_traceback

    def test_config_classification_sees_through_wrapper(self):
        try:
            raise ValueError("bad profile")
        except ValueError as exc:
            wrapped = RemoteCellError.wrap(exc, "cell 0")
        assert is_config_error(wrapped)
        assert isinstance(config_error_of(wrapped), ValueError)
        try:
            raise RuntimeError("transient")
        except RuntimeError as exc:
            wrapped = RemoteCellError.wrap(exc, "cell 0")
        assert not is_config_error(wrapped)


# ---------------------------------------------------------------------------
# Pooled sweeps with injected faults
# ---------------------------------------------------------------------------


@pytest.fixture
def _multi_cpu(monkeypatch):
    """Pretend the box has CPUs to spare: ``run_cells`` clamps its worker
    count to ``os.cpu_count()``, which would silently route these tests
    in-process on a single-core runner — and an in-process ``os._exit``
    would take pytest down with it."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.mark.usefixtures("_multi_cpu")
@pytest.mark.parametrize("start_method", _START_METHODS)
class TestPooledFaults:
    def _fault_cells(self, evaluator, n=3):
        return _pooled_cells(n, specs=(as_spec("probe", evaluator),))

    def test_worker_crash_quarantines_only_poison_cell(self, start_method):
        context = RunContext(max_attempts=1, retry_backoff_s=0.0)
        with use_context(context), pool_scope():
            results = run_cells(
                self._fault_cells(_crash_on_poison),
                jobs=2, start_method=start_method,
            )
        assert results[_POISON_SEED] is None
        assert results[0] is not None and results[2] is not None
        assert context.telemetry.cells_quarantined == 1
        entry = context.telemetry.quarantines[0]
        assert f"seed {_POISON_SEED}" in entry["label"]

    def test_worker_exception_carries_remote_traceback(self, start_method):
        context = RunContext(max_attempts=1, retry_backoff_s=0.0)
        with use_context(context), pool_scope():
            results = run_cells(
                self._fault_cells(_raise_on_poison),
                jobs=2, start_method=start_method,
            )
        assert results[_POISON_SEED] is None
        entry = context.telemetry.quarantines[0]
        assert "RuntimeError" in entry["error"]
        assert "rigged failure" in entry["error"]
        assert "Traceback" in entry["error"]

    def test_config_error_raises_in_parent(self, start_method):
        cells = _pooled_cells(2, specs=(holistic_spec("NoSuchAlgorithm"),))
        context = RunContext(max_attempts=3, retry_backoff_s=0.0)
        with use_context(context), pool_scope():
            with pytest.raises(ValueError, match="NoSuchAlgorithm"):
                run_cells(cells, jobs=2, start_method=start_method)
        assert context.telemetry.cells_quarantined == 0


@pytest.mark.usefixtures("_multi_cpu")
def test_cell_timeout_quarantines_hung_cell():
    context = RunContext(max_attempts=2, cell_timeout_s=0.4, retry_backoff_s=0.0)
    with use_context(context), pool_scope():
        results = run_cells(
            _pooled_cells(3, specs=(as_spec("probe", _hang_on_poison),)),
            jobs=2, start_method="fork",
        )
    assert results[_POISON_SEED] is None
    assert results[0] is not None and results[2] is not None
    assert context.telemetry.cell_timeouts >= 1
    assert context.telemetry.cells_quarantined == 1
    assert "timed out" in context.telemetry.quarantines[0]["error"]


@pytest.mark.usefixtures("_multi_cpu")
def test_pool_scope_reaps_cached_pools():
    with pool_scope():
        with use_context(RunContext()):
            run_cells(_pooled_cells(3), jobs=2, start_method="fork")
        assert _POOLS  # warm inside the scope
    assert not _POOLS  # reaped on exit


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_resume_replays_bit_identically(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        cells = _cells(4)
        with use_context(RunContext()):
            reference = run_cells(_cells(4))

        # "Interrupted" run: only the first half of the cells completes.
        with use_context(RunContext(journal_path=path)):
            run_cells(cells[:2])
        journal_mod._close_journals()  # simulate the process dying

        resumed = RunContext(journal_path=path, resume=True)
        with use_context(resumed):
            results = run_cells(_cells(4))
        assert repr(results) == repr(reference)
        assert resumed.telemetry.journal_replays == 2

    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_resume_matches_across_pool(self, tmp_path, start_method):
        path = str(tmp_path / "sweep.jsonl")
        with use_context(RunContext()):
            reference = run_cells(_cells(4))
        with use_context(RunContext(journal_path=path)):
            run_cells(_cells(4)[:3])
        journal_mod._close_journals()

        resumed = RunContext(journal_path=path, resume=True)
        with use_context(resumed), pool_scope():
            results = run_cells(_cells(4), jobs=2, start_method=start_method)
        assert repr(results) == repr(reference)
        assert resumed.telemetry.journal_replays == 3

    def test_changed_inputs_recompute(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with use_context(RunContext(journal_path=path)):
            run_cells(_cells(2))
        journal_mod._close_journals()

        # A different seed set shares no fingerprints with the journal.
        resumed = RunContext(journal_path=path, resume=True)
        other = [
            SweepCell(index=i, profile=_PROFILE, seed=i + 10, evaluators=_SPECS)
            for i in range(2)
        ]
        with use_context(resumed):
            results = run_cells(other)
        assert all(r is not None for r in results)
        assert resumed.telemetry.journal_replays == 0

    def test_callable_evaluators_never_journalled(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        spec = as_spec("probe", _raise_on_poison)
        cells = [
            SweepCell(index=0, profile=_PROFILE, seed=0, evaluators=(spec,))
        ]
        with use_context(RunContext(journal_path=path)):
            run_cells(cells)
        journal_mod._close_journals()
        with Journal(path, resume=True) as journal:
            assert len(journal) == 0

    def test_tile_resume_replays(self, tmp_path):
        path = str(tmp_path / "tiles.jsonl")
        profile = PAPER_DEFAULTS.with_updates(
            num_devices=14, num_stations=4, num_tasks=30
        )
        spec = ShardSpec.balanced(range(4), 2)
        cells = [
            TileCell(profile=profile, spec=spec, shard_id=s, seed=0)
            for s in range(2)
        ]
        with use_context(RunContext()):
            reference = run_tiles(cells)
        with use_context(RunContext(journal_path=path)):
            run_tiles(cells[:1])
        journal_mod._close_journals()

        resumed = RunContext(journal_path=path, resume=True)
        with use_context(resumed):
            results = run_tiles(cells)
        assert repr(results) == repr(reference)
        assert resumed.telemetry.journal_replays == 1


# ---------------------------------------------------------------------------
# Solver fallback ladder
# ---------------------------------------------------------------------------


def _rigged_failure(backend):
    return LPResult(
        status=LPStatus.NUMERICAL_ERROR, x=None, objective=float("nan"),
        iterations=0, backend=backend, message="rigged non-convergence",
    )


class TestFallbackLadder:
    @pytest.fixture
    def lp(self):
        return LinearProgram(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]),
            upper_bounds=np.array([3.0, 3.0]),
        )

    def test_fallback_descends_and_records_rung(self, lp, monkeypatch):
        monkeypatch.setitem(
            backends_mod._BACKENDS, "interior-point",
            lambda p: _rigged_failure("interior-point"),
        )
        context = RunContext()
        result = solve_with_fallback(lp, context=context)
        assert result.status is LPStatus.OPTIMAL
        assert result.backend == "simplex"
        assert context.telemetry.metrics.counter("lp.fallback.simplex") == 1

    def test_all_rungs_fail_returns_last_result(self, lp, monkeypatch):
        for name in ("interior-point", "simplex", "scipy"):
            monkeypatch.setitem(
                backends_mod._BACKENDS, name,
                lambda p, name=name: _rigged_failure(name),
            )
        context = RunContext()
        result = solve_with_fallback(lp, context=context)
        assert not result.status.ok
        assert result.backend == "scipy"

    def test_empty_ladder_rejected(self, lp):
        with pytest.raises(ValueError, match="at least one backend"):
            solve_with_fallback(lp, methods=())

    def test_rigged_nonconvergence_degrades_to_greedy(
        self, small_scenario, monkeypatch
    ):
        """Every LP backend rigged to fail: LP-HTA must still produce an
        assignment via the greedy bottom rung, not abort the sweep."""
        monkeypatch.setattr(
            "repro.core.hta.lp_solve",
            lambda lp, backend, **kwargs: _rigged_failure(backend),
        )
        monkeypatch.setattr(
            "repro.core.hta.solve_structured",
            lambda grouped: _rigged_failure("structured"),
        )
        monkeypatch.setattr(
            "repro.core.hta.solve_structured_batch",
            lambda blocks: [_rigged_failure("structured") for _ in blocks],
        )
        context = RunContext()
        with use_context(context):
            report = lp_hta(
                small_scenario.system, list(small_scenario.tasks),
                context=context,
            )
        assert np.isfinite(report.assignment.total_energy_j())
        assert context.telemetry.metrics.counter("lp.fallback.greedy") >= 1
        assert context.telemetry.lp_fallbacks >= 1
        # The greedy objective is tagged as vacuous, not an LP bound.
        summary = context.telemetry.summary()
        assert "greedy" in summary

    @pytest.mark.parametrize(
        "reference, expected",
        [
            # Reference builds are already dense: no dense retry rung.
            (True, [("interior-point", False), ("simplex", False)]),
            (False, [
                ("interior-point", True),
                ("interior-point", False),
                ("simplex", True),
            ]),
        ],
        ids=["reference", "default"],
    )
    def test_dense_ipm_rung_only_below_sparse_build(
        self, reference, expected, monkeypatch
    ):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_tasks=12, num_devices=4, num_stations=1
            ),
            seed=0,
        )
        monkeypatch.setattr(
            hta, "solve_structured", lambda grouped: _rigged_failure("structured")
        )
        monkeypatch.setattr(
            backends_mod, "solve_interior_point",
            lambda problem, options: _rigged_failure("interior-point"),
        )
        rungs = []
        real_solve = hta.lp_solve

        def recording_solve(lp, backend, **kwargs):
            rungs.append((backend, sp.issparse(lp.a_eq)))
            return real_solve(lp, backend, **kwargs)

        monkeypatch.setattr(hta, "lp_solve", recording_solve)
        context = RunContext(reference=reference)
        with use_context(context):
            report = lp_hta(
                scenario.system, list(scenario.tasks), context=context
            )
        assert rungs == expected
        assert report.clusters[0].lp_backend == "simplex"
        counters = context.telemetry.metrics.counters
        assert counters.get("lp.fallback.simplex") == 1
        assert "lp.fallback.interior-point-dense" not in counters

    def test_primary_repeated_in_fallbacks_runs_once_per_level(
        self, monkeypatch
    ):
        # The interior-point primary is also the first default fallback;
        # each relaxation level must still try every backend only once.
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_tasks=12, num_devices=4, num_stations=1
            ),
            seed=0,
        )
        rungs = []

        def failing_solve(lp, backend, **kwargs):
            rungs.append((backend, sp.issparse(lp.a_eq)))
            return _rigged_failure(backend)

        monkeypatch.setattr(hta, "lp_solve", failing_solve)
        options = hta.LPHTAOptions(backend="interior-point")
        context = RunContext()
        with use_context(context):
            report = lp_hta(
                scenario.system, list(scenario.tasks), options,
                context=context,
            )
        level = [
            ("interior-point", True),
            ("interior-point", False),
            ("simplex", True),
            ("scipy", True),
        ]
        assert rungs == level * 2
        assert report.clusters[0].lp_backend == "greedy"


# ---------------------------------------------------------------------------
# Interior-point guards
# ---------------------------------------------------------------------------


class TestIPMGuards:
    @pytest.fixture
    def lp(self):
        return LinearProgram(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]),
            upper_bounds=np.array([3.0, 3.0]),
        )

    def test_stall_guard_parks_sequential_and_batch_identically(self, lp):
        # An unreachable tolerance (and no salvage) forces a stall well
        # before the iteration cap, in both loops, with the same verdict.
        options = IPMOptions(
            tolerance=0.0, fallback_tolerance=0.0,
            stall_iterations=5, max_iterations=5000,
        )
        sequential = solve_interior_point(lp, options)
        [batched] = solve_interior_point_batch([lp], options)
        assert sequential.status is LPStatus.ITERATION_LIMIT
        assert "stalled" in sequential.message
        assert batched.status is sequential.status
        assert batched.message == sequential.message
        assert sequential.iterations < 5000

    def test_stall_guard_salvages_converged_iterate(self, lp):
        # Same stall, but the loose salvage target is reachable: the best
        # iterate is essentially optimal and must not be thrown away.
        options = IPMOptions(
            tolerance=0.0, fallback_tolerance=1e-6, stall_iterations=5,
        )
        result = solve_interior_point(lp, options)
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-7.0, abs=1e-5)
