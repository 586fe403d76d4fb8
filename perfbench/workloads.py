"""The benchmark's workloads: inputs, the timed closed loop, the gate.

Each workload is one client in a closed loop: its next call goes out when
the previous one returns, and every call's latency is kept as a raw
sample.  A workload runs in four phases inside a fresh interpreter
(see ``child.py``):

1. ``setup(seed)`` — untimed: builds the inputs and starts the worker
   pool, so everything up to the first timed call counts in ``setup_s``;
2. ``run(state)`` — timed: the calls themselves;
3. ``close(state)`` — stops the workers and undoes what ``setup`` rebound;
4. ``finish(state, outcome)`` — checks the outputs (the correctness gate).

``FULL`` is the benchmark; ``TINY`` is the same code on inputs small
enough for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from speed import clock

ROOT = Path(__file__).resolve().parent.parent
FIGURES_JSON = ROOT / "results" / "figures.json"

FULL = "full"
TINY = "tiny"


@dataclass
class Outcome:
    """What one timed run produced.

    :param calls_s: latency of every client call, in call order.
    :param calls_start_s: :func:`speed.clock` when each call started.
    :param attempted: units of work attempted (cells, tiles or epochs).
    :param failed: units that failed (quarantined cells, lost tiles).
    :param failures: correctness-gate failures found by ``finish``.
    :param digest: values that must repeat exactly across runs with the
        same seed.
    :param extra: workload-specific facts for the report.
    """

    calls_s: List[float] = field(default_factory=list)
    calls_start_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digest: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set of a process in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class Workload:
    """Base class: the phases, and the telemetry counts to gate."""

    name = ""
    #: Telemetry counts whose value depends on pool scheduling.
    scheduling_counts: Tuple[str, ...] = ()

    def __init__(self, size: str = FULL, traced: bool = False) -> None:
        if size not in (FULL, TINY):
            raise ValueError(f"size must be {FULL!r} or {TINY!r}")
        self.size = size
        self.traced = traced

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, state: Dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def close(self, state: Dict[str, Any]) -> None:
        """Undo ``setup``: stop workers, restore what it rebound."""
        state["scopes"].close()

    def finish(self, state: Dict[str, Any], outcome: Outcome) -> None:
        """Fill in ``outcome`` after the timed run: counts, gate, digest."""

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        """High-water RSS of this process plus its live workers."""
        return vm_hwm_mb()


class PaperFigures(Workload):
    """All nine figures at seeds 0, 1, 2 with ``jobs=2`` — the reproduction.

    The inputs are the published figure seeds 0, 1, 2 whatever the
    benchmark seed, so that every run is gated exactly against
    ``results/figures.json``.
    """

    name = "paper-figures"
    scheduling_counts = ("scenario_memo_hits", "scenario_memo_misses")
    FIGURE_SEEDS = (0, 1, 2)
    JOBS = 2

    def figures(self) -> Tuple[str, ...]:
        from repro.experiments.figures import ALL_FIGURES

        return tuple(sorted(ALL_FIGURES)) if self.size == FULL else ("fig2b", "fig4b")

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.context import RunContext, use_context
        from repro.experiments import parallel

        ctx = RunContext()
        # As ``mecrepro all-figures``: cached pools live for the whole
        # command and are reaped when it ends.
        scopes = ExitStack()
        scopes.enter_context(parallel.pool_scope())
        scopes.enter_context(use_context(ctx))
        state = {
            "ctx": ctx, "scopes": scopes,
            "order": self.figures(), "pool": None,
            "expected": json.loads(FIGURES_JSON.read_text()),
        }
        mp_context = parallel._mp_context(None)
        jobs = self.JOBS
        if self.traced and mp_context.get_start_method() != "fork":
            # Only forked workers inherit the tracing wrappers: trace the
            # figures in-process instead (recorded as ``jobs`` = 1).
            jobs = 1
        workers = min(jobs, os.cpu_count() or 1)
        start = time.perf_counter()
        if workers > 1:
            # run_cells reuses this cached pool; both workers are forked
            # now so pool start-up is set-up, not run time.
            pool = parallel._pool_for(workers, mp_context)
            futures = [pool.submit(os.getpid) for _ in range(workers)]
            for future in futures:
                future.result()
            state["pool"] = pool
            scopes.callback(pool.shutdown, wait=True)
        state["pool_start_s"] = time.perf_counter() - start
        state["workers"] = workers
        state["jobs"] = jobs
        return state

    def run(self, state: Dict[str, Any]) -> Outcome:
        from repro.experiments.figures import run_figure

        outcome = Outcome()
        results = {}
        for figure_id in state["order"]:
            start = clock()
            results[figure_id] = run_figure(
                figure_id, seeds=self.FIGURE_SEEDS, jobs=state["jobs"]
            )
            outcome.calls_start_s.append(start)
            outcome.calls_s.append(clock() - start)
        state["results"] = results
        return outcome

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        total = vm_hwm_mb()
        pool = state.get("pool")
        if pool is not None:
            for pid in list(pool._processes):
                total += vm_hwm_mb(str(pid))
        return total

    def finish(self, state: Dict[str, Any], outcome: Outcome) -> None:
        results = state["results"]
        outcome.attempted = sum(
            len(data.x_values) * len(self.FIGURE_SEEDS) for data in results.values()
        )
        outcome.failed = state["ctx"].telemetry.cells_quarantined
        outcome.failures.extend(check_figures(results, state["expected"]))
        outcome.digest = {
            figure_id: _sha((data.x_values, sorted(data.series.items())))
            for figure_id, data in sorted(results.items())
        }
        outcome.extra = {
            "figures": list(state["order"]), "figure_seeds": list(self.FIGURE_SEEDS),
            "jobs": state["jobs"], "workers": state["workers"],
            "pool_start_s": state["pool_start_s"],
        }


def check_figures(results: Mapping[str, Any], expected: Mapping[str, Any]) -> List[str]:
    """Exact equality of each figure's x values and series with ``expected``."""
    failures = []
    for figure_id, data in sorted(results.items()):
        want = expected.get(figure_id)
        if want is None:
            failures.append(f"{figure_id}: not in results/figures.json")
            continue
        if list(data.x_values) != want["x_values"]:
            failures.append(f"{figure_id}: x_values differ from results/figures.json")
        got = {name: list(values) for name, values in data.series.items()}
        if got != want["series"]:
            names = sorted(
                name for name in set(got) | set(want["series"])
                if got.get(name) != want["series"].get(name)
            )
            failures.append(
                f"{figure_id}: series {names} differ from results/figures.json"
            )
    return failures


class City8Shard(Workload):
    """An 8-shard city streamed tile by tile through ``run_tiles(jobs=1)``."""

    name = "city-8shard"
    SHAPES = {
        FULL: {"shards": 8, "stations": 625, "devices": 6250},
        TINY: {"shards": 2, "stations": 40, "devices": 400},
    }
    TASKS_PER_DEVICE = 2

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.context import RunContext
        from repro.experiments.parallel import TileCell
        from repro.system.sharding import ShardSpec
        from repro.workload.profiles import PAPER_DEFAULTS

        shape = self.SHAPES[self.size]
        shards = shape["shards"]
        profile = PAPER_DEFAULTS.with_updates(
            num_devices=shape["devices"] * shards,
            num_stations=shape["stations"] * shards,
            num_tasks=shape["devices"] * shards * self.TASKS_PER_DEVICE,
        )
        spec = ShardSpec.balanced(range(profile.num_stations), shards)
        cells = [
            TileCell(profile=profile, spec=spec, shard_id=shard, seed=seed)
            for shard in range(shards)
        ]
        return {
            "ctx": RunContext(), "profile": profile, "cells": cells,
            "scopes": ExitStack(),
        }

    def run(self, state: Dict[str, Any]) -> Outcome:
        from repro.context import use_context
        from repro.experiments.parallel import run_tiles

        outcome = Outcome()
        tiles = []
        with use_context(state["ctx"]):
            for cell in state["cells"]:
                start = clock()
                tiles.extend(run_tiles([cell], jobs=1))
                outcome.calls_start_s.append(start)
                outcome.calls_s.append(clock() - start)
        state["tiles"] = tiles
        return outcome

    def finish(self, state: Dict[str, Any], outcome: Outcome) -> None:
        tiles = state["tiles"]
        profile = state["profile"]
        done = [tile for tile in tiles if tile is not None]
        outcome.attempted = len(tiles)
        outcome.failed = len(tiles) - len(done)
        outcome.failures.extend(check_city(done, profile))
        outcome.digest = {
            "total_energy_j": repr(sum(t.total_energy_j for t in done)),
            "lp_objective_j": repr(sum(t.lp_objective_j for t in done)),
            "tiles": _sha(done),
        }
        outcome.extra = {
            "devices": profile.num_devices, "stations": profile.num_stations,
            "tasks": profile.num_tasks, "shards": len(tiles),
            "cancelled": sum(t.cancelled for t in done),
        }


def check_city(tiles: Sequence[Any], profile: Any) -> List[str]:
    """Per-tile device, station and task totals must sum to the profile."""
    failures = []
    for label, field_name, want in (
        ("devices", "num_devices", profile.num_devices),
        ("stations", "num_stations", profile.num_stations),
        ("tasks", "num_tasks", profile.num_tasks),
    ):
        got = sum(getattr(tile, field_name) for tile in tiles)
        if got != want:
            failures.append(f"tiles hold {got} {label}, the profile {want}")
    return failures


class OnlineFaults(Workload):
    """The LP-HTA epoch scheduler under mobility and injected faults.

    The inputs are those of ``mecrepro online --mobile --seed 0 --rate 5
    --horizon 2000 --epoch 10``, whatever the benchmark seed.  The decision tail is chaotic in the inputs: one
    city's p95 ranged over 13–33 ms across seeds 0–11, pooling four cities
    per sample still left a spread of 0.33 between quartiles, and changing
    only the mobility and fault seeds moved it from 9.6 to 20.9 ms.  No
    bound could hold that, so the city is fixed and the spread is the
    machine's alone.
    """

    name = "online-faults"
    SHAPES = {FULL: {"horizon_s": 2000.0}, TINY: {"horizon_s": 100.0}}
    CITY_SEED = 0
    RATE_PER_S = 5.0
    EPOCH_S = 10.0
    INTENSITY_PER_S = 0.05

    def city(self, seed: int) -> Dict[str, Any]:
        """One city's inputs, as ``mecrepro online --mobile`` builds them,
        plus the resilience experiment's fault model at one intensity."""
        from repro.faults.model import FaultConfig, generate_fault_plan
        from repro.mobility import RandomWaypointModel
        from repro.online import PoissonArrivals
        from repro.workload import PAPER_DEFAULTS, generate_system

        horizon = self.SHAPES[self.size]["horizon_s"]
        system = generate_system(PAPER_DEFAULTS, seed=seed)
        arrivals = PoissonArrivals(
            system, PAPER_DEFAULTS, rate_per_s=self.RATE_PER_S, seed=seed + 1
        ).generate(horizon)
        positions = {d: dev.position for d, dev in system.devices.items()}
        mobility = RandomWaypointModel(
            sorted(system.devices), area_side_m=2000.0,
            speed_range_mps=(2.0, 15.0), seed=seed + 2,
            initial_positions=positions,
        )
        plan = generate_fault_plan(
            system,
            FaultConfig(
                horizon_s=horizon, intensity_per_s=self.INTENSITY_PER_S,
                mean_outage_s=6.0, departure_ratio=0.004, crash_ratio=0.002,
            ),
            seed=seed,
        )
        return {
            "system": system, "arrivals": arrivals, "mobility": mobility,
            "plan": plan,
        }

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro import registry
        from repro.context import RunContext

        start = time.perf_counter()
        state: Dict[str, Any] = {
            "ctx": RunContext(), "city": self.city(self.CITY_SEED),
            "decisions": [],
            "decision_s": [], "decision_start_s": [],
            "inputs_s": time.perf_counter() - start,
            "scopes": ExitStack(),
        }
        # The scheduler calls ``registry.resolve_assignment`` through the
        # module once per epoch: that call is the planning decision.
        resolve = registry.resolve_assignment

        def timed_resolve(name, system, tasks, context=None):
            begin = clock()
            assignment = resolve(name, system, tasks, context)
            state["decision_start_s"].append(begin)
            state["decision_s"].append(clock() - begin)
            state["decisions"].append((system, assignment))
            return assignment

        state["scopes"].callback(setattr, registry, "resolve_assignment", resolve)
        registry.resolve_assignment = timed_resolve
        return state

    def run(self, state: Dict[str, Any]) -> Outcome:
        from repro.online import OnlineOptions, simulate_online

        city = state["city"]
        state["report"] = simulate_online(
            city["system"], city["arrivals"],
            OnlineOptions(epoch_length_s=self.EPOCH_S, recovery="reassign"),
            mobility=city["mobility"], context=state["ctx"],
            fault_plan=city["plan"],
        )
        return Outcome(
            calls_s=list(state["decision_s"]),
            calls_start_s=list(state["decision_start_s"]),
        )

    def finish(self, state: Dict[str, Any], outcome: Outcome) -> None:
        report = state["report"]
        outcome.attempted = len(state["decisions"])
        if outcome.attempted > len(report.epochs):
            outcome.failures.append("more planning decisions than epochs")
        for epoch, (system, assignment) in enumerate(state["decisions"]):
            problems = decision_violations(system, assignment)
            if problems:
                outcome.failures.append(f"decision {epoch}: {problems[0]}")
        outcome.digest = {
            "event_trace": _sha(report.event_trace()),
            "planned_energy_j": repr(report.total_planned_energy_j),
        }
        outcome.extra = {
            "city_seed": self.CITY_SEED, "tasks": report.total_tasks,
            "epochs": len(report.epochs), "events": len(report.events),
            "inputs_s": state["inputs_s"],
        }


def decision_violations(system: Any, assignment: Any) -> List[str]:
    """C1–C3 violations of a whole-system assignment, cluster by cluster."""
    from repro.core.assignment import Assignment
    from repro.core.costs import ClusterCosts

    costs = assignment.costs
    rows_by_station: Dict[int, List[int]] = defaultdict(list)
    for row, task in enumerate(costs.tasks):
        rows_by_station[system.cluster_of(task.owner_device_id)].append(row)
    problems: List[str] = []
    for station_id, rows in sorted(rows_by_station.items()):
        sub = ClusterCosts(
            tasks=tuple(costs.tasks[r] for r in rows),
            time_s=costs.time_s[rows],
            energy_j=costs.energy_j[rows],
            resource=costs.resource[rows],
            deadline_s=costs.deadline_s[rows],
        )
        caps = {
            device_id: system.device(device_id).max_resource
            for device_id in {task.owner_device_id for task in sub.tasks}
        }
        problems.extend(
            Assignment(sub, [assignment.decisions[r] for r in rows]).violations(
                caps, system.station(station_id).max_resource
            )
        )
    return problems


WORKLOADS = {
    workload.name: workload
    for workload in (PaperFigures, City8Shard, OnlineFaults)
}


def work_counts(telemetry: Any) -> Dict[str, float]:
    """The program's deterministic work counts, from ``RunContext.telemetry``.

    Every integer counter of :meth:`~repro.context.Telemetry.as_dict` plus
    the named metric counters (``lp.fallback.*``, ``des.events``,
    ``generate.array_bailout``, ``runtime.*``); wall-clock and float sums
    are left out.
    """
    counts = {
        key: value for key, value in telemetry.as_dict().items()
        if key not in ("solve_wall_s", "coordinator_gap_j")
    }
    for name, value in telemetry.metrics.counters.items():
        counts[name] = value
    return counts
