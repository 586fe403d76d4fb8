"""The struct-of-arrays DES engine versus the closure-chain simulator.

Every test replays the same assignment through both engines and asserts
the full :class:`RealizedMetrics` are *equal* — not approximately equal:
the array engine's contract is bit-identical floats, identical event
counts, identical queueing delays.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.context import RunContext, use_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.des import engine
from repro.des.replay import replay_assignment
from repro.units import KB
from repro.workload import PAPER_DEFAULTS, generate_scenario


def _replay_both(system, tasks, assignment, **kwargs):
    with use_context(RunContext()):
        fast = replay_assignment(system, tasks, assignment, **kwargs)
    with use_context(RunContext(reference=True)):
        slow = replay_assignment(system, tasks, assignment, **kwargs)
    assert fast == slow
    return fast


class TestZeroTaskDevices:
    """Devices without any tasks must not perturb the replay."""

    def test_fewer_tasks_than_devices(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=3, num_devices=8, num_stations=2),
            seed=1,
        )
        tasks = list(scenario.tasks)
        assignment = lp_hta(scenario.system, tasks).assignment
        for contention in (False, True):
            metrics = _replay_both(
                scenario.system, tasks, assignment, contention=contention
            )
            assert metrics.makespan_s > 0.0

    def test_empty_assignment(self, two_cluster_system):
        costs = cluster_costs(two_cluster_system, [])
        assignment = Assignment(costs, [])
        metrics = _replay_both(two_cluster_system, [], assignment)
        assert metrics.latencies_s == ()
        assert metrics.makespan_s == 0.0

    def test_all_rows_cancelled(self, two_cluster_system, local_task):
        costs = cluster_costs(two_cluster_system, [local_task])
        assignment = Assignment(costs, [Subsystem.CANCELLED])
        metrics = _replay_both(two_cluster_system, [local_task], assignment)
        assert metrics.latencies_s == (None,)
        assert metrics.makespan_s == 0.0


class TestSimultaneousFinishTies:
    """Identical tasks finishing at the same instant on a shared FIFO."""

    def _clone_tasks(self, count):
        from repro.core.task import Task

        return [
            Task(
                owner_device_id=0,
                index=i,
                local_bytes=1000 * KB,
                external_bytes=0.0,
                external_source=None,
                resource_demand=1.0,
                deadline_s=50.0,
            )
            for i in range(count)
        ]

    @pytest.mark.parametrize(
        "subsystem", [Subsystem.DEVICE, Subsystem.STATION, Subsystem.CLOUD]
    )
    def test_identical_tasks_tie_on_every_subsystem(
        self, two_cluster_system, subsystem
    ):
        tasks = self._clone_tasks(4)
        costs = cluster_costs(two_cluster_system, tasks)
        assignment = Assignment(costs, [subsystem] * len(tasks))
        metrics = _replay_both(
            two_cluster_system, tasks, assignment, contention=True
        )
        if subsystem is not Subsystem.DEVICE:
            # The shared uplink serialises the equal transfers.
            assert metrics.mean_queueing_delay_s > 0.0

    def test_tied_tasks_with_staggered_starts(self, two_cluster_system):
        tasks = self._clone_tasks(3)
        costs = cluster_costs(two_cluster_system, tasks)
        assignment = Assignment(costs, [Subsystem.STATION] * 3)
        _replay_both(
            two_cluster_system,
            tasks,
            assignment,
            contention=True,
            start_times={0: 0.0, 1: 0.0, 2: 0.5},
        )


class TestDivisibleBranchJoins:
    """Divisible tasks with external shares exercise the fork/join path."""

    def _assignments(self, scenario):
        tasks = list(scenario.tasks)
        costs = cluster_costs(scenario.system, tasks)
        for subsystem in (Subsystem.STATION, Subsystem.CLOUD):
            yield tasks, Assignment(costs, [subsystem] * len(tasks))

    def test_station_and_cloud_joins(self, divisible_scenario):
        joined = 0
        for tasks, assignment in self._assignments(divisible_scenario):
            for contention in (False, True):
                _replay_both(
                    divisible_scenario.system,
                    tasks,
                    assignment,
                    contention=contention,
                )
            joined += sum(1 for t in tasks if t.has_external_data)
        assert joined > 0  # the scenario actually forked branches

    def test_joins_under_outages(self, divisible_scenario):
        for tasks, assignment in self._assignments(divisible_scenario):
            _replay_both(
                divisible_scenario.system,
                tasks,
                assignment,
                contention=True,
                backhaul_outages=((0.0, 0.3), (0.6, 0.9)),
                wan_outages=((0.1, 0.5),),
            )


class TestFaultyReplayEveryAlgorithm:
    """Outage-aware replay through the array engine, per registry entry."""

    @pytest.fixture(scope="class")
    def tiny_scenario(self):
        # (num_tasks=8, seed=0) keeps every algorithm feasible — BnB-Exact
        # refuses instances where no full assignment fits the caps.
        return generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=8, num_devices=4, num_stations=2),
            seed=0,
        )

    @pytest.mark.parametrize("name", registry.names(assignable=True))
    def test_engine_matches_object_replay(self, tiny_scenario, name):
        tasks = list(tiny_scenario.tasks)
        assignment = registry.resolve_assignment(name, tiny_scenario.system, tasks)
        metrics = _replay_both(
            tiny_scenario.system,
            tasks,
            assignment,
            contention=True,
            backhaul_outages=((0.2, 0.5),),
            wan_outages=((0.4, 0.9),),
        )
        assert metrics.events_processed > 0


class TestEventLoopBackends:
    """The njit-able array loop and the heapq twin must agree exactly."""

    def _arrays(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40, num_devices=8, num_stations=2),
            seed=3,
        )
        tasks = list(scenario.tasks)
        assignment = lp_hta(scenario.system, tasks).assignment
        programs, num_resources, backhaul_id, wan_id = engine.compile_rows(
            scenario.system, tasks, assignment, None
        )
        arrays = engine._build_event_arrays(
            programs,
            num_resources,
            True,
            backhaul_id,
            wan_id,
            ((0.2, 0.5),),
            ((0.4, 0.9),),
        )
        return arrays, len(tasks)

    def test_array_loop_equals_heapq_loop(self):
        arrays, n_tasks = self._arrays()
        out_arr = engine._event_loop(
            arrays["stage_res"],
            arrays["stage_service"],
            arrays["stage_next"],
            arrays["stage_end_kind"],
            arrays["stage_end_ref"],
            arrays["join_tail"],
            arrays["init_kind"],
            arrays["init_target"],
            arrays["init_value"],
            arrays["init_time"],
            arrays["res_shared"],
            arrays["out_lo"],
            arrays["out_hi"],
            arrays["out_start"],
            arrays["out_end"],
            n_tasks,
            arrays["cap"],
        )
        out_py = engine._event_loop_py(
            arrays["stage_res"].tolist(),
            arrays["stage_service"].tolist(),
            arrays["stage_next"].tolist(),
            arrays["stage_end_kind"].tolist(),
            arrays["stage_end_ref"].tolist(),
            arrays["join_tail"].tolist(),
            arrays["init_kind"].tolist(),
            arrays["init_target"].tolist(),
            arrays["init_value"].tolist(),
            arrays["init_time"].tolist(),
            arrays["res_shared"].tolist(),
            arrays["out_lo"].tolist(),
            arrays["out_hi"].tolist(),
            arrays["out_start"].tolist(),
            arrays["out_end"].tolist(),
            n_tasks,
        )
        task_finish, task_done, wait_res, wait_val, n_wait, now, n_events = out_arr
        py_finish, py_done, py_wait_res, py_wait_val, py_now, py_events = out_py
        n_wait = int(n_wait)
        assert task_finish.tolist() == py_finish
        assert [bool(d) for d in task_done] == [bool(d) for d in py_done]
        assert wait_res[:n_wait].tolist() == py_wait_res
        assert wait_val[:n_wait].tolist() == py_wait_val
        assert now == py_now
        assert n_events == py_events


class TestNumbaGating:
    def test_no_numba_env_disables_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        assert engine._detect_numba() is None

    def test_reference_context_uses_object_path(self, small_scenario):
        tasks = list(small_scenario.tasks)
        assignment = lp_hta(small_scenario.system, tasks).assignment
        with use_context(RunContext(reference=True)):
            reference = replay_assignment(small_scenario.system, tasks, assignment)
        with use_context(RunContext()):
            default = replay_assignment(small_scenario.system, tasks, assignment)
        assert reference == default

    def test_closed_form_matches_event_loop_when_dedicated(self, small_scenario):
        # Dedicated replay takes the closed-form path; forcing the event
        # loop (contention machinery with no shared resources) must agree.
        tasks = list(small_scenario.tasks)
        assignment = lp_hta(small_scenario.system, tasks).assignment
        closed = engine.replay_with_engine(
            small_scenario.system, tasks, assignment, False, (), (), None
        )
        looped = engine.replay_with_engine(
            small_scenario.system,
            tasks,
            assignment,
            False,
            ((1e9, 2e9),),
            (),
            None,
        )
        # An outage window far beyond the makespan defers nothing but
        # routes the replay through the event loop.
        assert closed[0] == looped[0]
        assert closed[1] == looped[1]
