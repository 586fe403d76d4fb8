"""RunContext propagation into worker processes, fork and spawn.

Process-global mode flags would be inherited by fork workers but silently
reset in spawn workers — a spawn-started sweep would quietly run the
optimised paths under a reference-mode context.  Cells carry their
:class:`repro.context.RunContext` explicitly, so these tests pin down both
halves of that contract:

- the flag demonstrably *reaches* spawn workers (probe test), and
- reference-mode results are bit-identical across in-process, fork and
  spawn execution (differential test).
"""

import multiprocessing

import pytest

from repro.context import RunContext, current_context, use_context
from repro.experiments.parallel import (
    SweepCell,
    as_spec,
    holistic_spec,
    run_cells,
)
from repro.registry import ALL_TO_CLOUD, LP_HTA, AlgorithmResult
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=8)


def _probe_reference_mode(scenario) -> AlgorithmResult:
    """Module-level evaluator (pickles by reference) that reports the
    worker's effective perf mode in ``involved_devices``."""
    return AlgorithmResult(
        name="probe",
        total_energy_j=0.0,
        mean_latency_s=0.0,
        unsatisfied_rate=0.0,
        processing_time_s=0.0,
        involved_devices=int(current_context().reference),
    )


def _spawn_available() -> bool:
    return "spawn" in multiprocessing.get_all_start_methods()


def _probe_cells(n=2):
    spec = as_spec("probe", _probe_reference_mode)
    return [
        SweepCell(index=i, profile=_PROFILE, seed=i, evaluators=(spec,))
        for i in range(n)
    ]


class TestFlagPropagation:
    def test_in_process_sees_ambient_context(self):
        with use_context(RunContext(reference=True)):
            results = run_cells(_probe_cells(), jobs=1)
        assert all(row[0].involved_devices == 1 for row in results)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_see_submitters_context(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        with use_context(RunContext(reference=True)):
            results = run_cells(
                _probe_cells(), jobs=2, start_method=start_method
            )
        # Without explicit contexts, spawn workers would report 0 here:
        # their processes start fresh and never see the parent's flag.
        assert all(row[0].involved_devices == 1 for row in results)

    def test_explicit_cell_context_beats_ambient(self):
        spec = as_spec("probe", _probe_reference_mode)
        cells = [
            SweepCell(
                index=0,
                profile=_PROFILE,
                seed=0,
                evaluators=(spec,),
                context=RunContext(reference=True),
            )
        ]
        # Ambient context is optimised; the cell's own context must win.
        assert run_cells(cells, jobs=1)[0][0].involved_devices == 1


class TestReferenceDifferential:
    """RunContext(reference=True) is bit-identical across start methods."""

    def _cells(self):
        specs = (holistic_spec(LP_HTA), holistic_spec(ALL_TO_CLOUD))
        return [
            SweepCell(index=i, profile=_PROFILE, seed=i, evaluators=specs)
            for i in range(2)
        ]

    @pytest.mark.parametrize("reference", [False, True])
    def test_fork_and_spawn_match_sequential(self, reference):
        with use_context(RunContext(reference=reference)):
            sequential = run_cells(self._cells(), jobs=1)
            fork = run_cells(self._cells(), jobs=2, start_method="fork")
        assert sequential == fork
        if _spawn_available():
            with use_context(RunContext(reference=reference)):
                spawn = run_cells(
                    self._cells(), jobs=2, start_method="spawn"
                )
            assert sequential == spawn

    def test_reference_matches_optimized(self):
        with use_context(RunContext(reference=True)):
            reference = run_cells(self._cells(), jobs=1)
        with use_context(RunContext(reference=False)):
            optimized = run_cells(self._cells(), jobs=1)
        # The perf contract: mode changes speed, never results.
        assert reference == optimized


class TestTelemetryMergeAcrossProcesses:
    def test_worker_telemetry_merges_into_submitter(self):
        context = RunContext()
        cells = [
            SweepCell(
                index=i,
                profile=_PROFILE,
                seed=i,
                evaluators=(holistic_spec(LP_HTA),),
            )
            for i in range(2)
        ]
        with use_context(context):
            run_cells(cells, jobs=2, start_method="fork")
        # LP-HTA solves at least one LP per cluster per cell; the workers'
        # counters must land in the submitting context's sink.
        assert context.telemetry.solves > 0
        assert context.telemetry.solve_wall_s > 0.0

    def test_context_pickle_resets_telemetry(self):
        import pickle

        context = RunContext()
        context.telemetry.record_solve(wall_time_s=1.0, iterations=5)
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context  # telemetry is excluded from equality
        assert clone.telemetry.solves == 0
        assert context.telemetry.solves == 1

    def test_ambient_context_restored_after_run(self):
        before = current_context()
        run_cells(_probe_cells(1), jobs=1)
        assert current_context() is before
