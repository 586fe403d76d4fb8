"""Assignment results: which subsystem runs each task, and derived metrics.

An :class:`Assignment` is the output of every algorithm in this library
(LP-HTA, the baselines, the exact solvers, and the rearranged divisible-task
schedules).  It pairs a decision per task with the cost table that priced the
tasks, so energy/latency/constraint metrics are computed consistently no
matter which algorithm produced the decisions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.context import current_context
from repro.core.costs import NUM_SUBSYSTEMS, ClusterCosts

__all__ = ["Assignment", "AssignmentStats", "Subsystem"]


class Subsystem(enum.IntEnum):
    """Where a task runs: the paper's indicator index *l* (plus CANCELLED).

    The integer values match the paper's l = 1, 2, 3; CANCELLED covers tasks
    the algorithm dropped (Steps 4–6 of LP-HTA "cancel and inform users").
    """

    CANCELLED = 0
    DEVICE = 1
    STATION = 2
    CLOUD = 3

    @property
    def column(self) -> int:
        """0-based column into the cost arrays (only for assigned tasks)."""
        if self is Subsystem.CANCELLED:
            raise ValueError("cancelled tasks have no cost column")
        return int(self) - 1


@dataclass(frozen=True)
class AssignmentStats:
    """Aggregate metrics of an assignment (the quantities the paper plots).

    :param total_energy_j: summed :math:`E_{ijl}` over assigned tasks.
    :param mean_latency_s: average :math:`t_{ijl}` over assigned tasks.
    :param max_latency_s: worst-case latency over assigned tasks.
    :param unsatisfied_rate: fraction of all tasks that are cancelled or miss
        their deadline (the Fig. 3 metric).
    :param cancelled: number of cancelled tasks.
    :param per_subsystem: task counts keyed by subsystem.
    """

    total_energy_j: float
    mean_latency_s: float
    max_latency_s: float
    unsatisfied_rate: float
    cancelled: int
    per_subsystem: Mapping[Subsystem, int]


class Assignment:
    """A per-task placement decision over one cost table.

    :param costs: the cost table pricing the tasks.
    :param decisions: subsystem per task, in the cost table's row order.
    """

    def __init__(self, costs: ClusterCosts, decisions: Iterable[Subsystem]) -> None:
        self.costs = costs
        self.decisions: Tuple[Subsystem, ...] = tuple(
            d if type(d) is Subsystem else Subsystem(d) for d in decisions
        )
        if len(self.decisions) != costs.num_tasks:
            raise ValueError(
                f"{len(self.decisions)} decisions for {costs.num_tasks} tasks"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, costs: ClusterCosts, subsystem: Subsystem) -> "Assignment":
        """Assign every task to the same subsystem."""
        return cls(costs, [subsystem] * costs.num_tasks)

    @classmethod
    def from_indicator(cls, costs: ClusterCosts, x: np.ndarray) -> "Assignment":
        """Build from a binary indicator matrix of shape (tasks, 3).

        Rows summing to zero are treated as cancelled; rows must never select
        more than one subsystem (constraint C4).
        """
        if x.shape != (costs.num_tasks, NUM_SUBSYSTEMS):
            raise ValueError(f"indicator must be ({costs.num_tasks}, 3), got {x.shape}")
        decisions: List[Subsystem] = []
        for row in range(costs.num_tasks):
            chosen = np.flatnonzero(x[row])
            if len(chosen) > 1:
                raise ValueError(f"task row {row} assigned to multiple subsystems")
            if len(chosen) == 0:
                decisions.append(Subsystem.CANCELLED)
            else:
                decisions.append(Subsystem(int(chosen[0]) + 1))
        return cls(costs, decisions)

    def to_indicator(self) -> np.ndarray:
        """The binary matrix :math:`x_{ijl}` (cancelled rows are all-zero)."""
        x = np.zeros((self.costs.num_tasks, NUM_SUBSYSTEMS))
        for row, decision in enumerate(self.decisions):
            if decision is not Subsystem.CANCELLED:
                x[row, decision.column] = 1.0
        return x

    def replace(self, row: int, decision: Subsystem) -> "Assignment":
        """A copy with task ``row`` reassigned to ``decision``."""
        decisions = list(self.decisions)
        decisions[row] = decision
        return Assignment(self.costs, decisions)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def task_energy_j(self, row: int) -> float:
        """Energy of task ``row`` under its decision (0 if cancelled)."""
        decision = self.decisions[row]
        if decision is Subsystem.CANCELLED:
            return 0.0
        return float(self.costs.energy_j[row, decision.column])

    def task_latency_s(self, row: int) -> Optional[float]:
        """Latency of task ``row``, or ``None`` if cancelled."""
        decision = self.decisions[row]
        if decision is Subsystem.CANCELLED:
            return None
        return float(self.costs.time_s[row, decision.column])

    def _assigned_rows_cols(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (rows, columns) index arrays of the assigned tasks.

        Row order is preserved, so metrics built from these arrays see the
        same value sequence as the per-row accessors.
        """
        cached = self.__dict__.get("_rows_cols")
        if cached is None:
            cols = np.fromiter(
                (int(d) - 1 for d in self.decisions),
                dtype=np.intp,
                count=len(self.decisions),
            )
            rows = np.flatnonzero(cols >= 0)
            cached = (rows, cols[rows])
            self.__dict__["_rows_cols"] = cached
        return cached

    def total_energy_j(self) -> float:
        """Total system energy :math:`\\sum E_{ijl} x_{ijl}` (the objective)."""
        if current_context().reference:
            return sum(self.task_energy_j(row) for row in range(self.costs.num_tasks))
        rows, cols = self._assigned_rows_cols()
        # Python sum over the row-ordered values: same sequential float
        # accumulation as summing task_energy_j per row.
        return float(sum(self.costs.energy_j[rows, cols].tolist()))

    def latencies_s(self) -> List[float]:
        """Latencies of the assigned (non-cancelled) tasks."""
        if current_context().reference:
            values = (self.task_latency_s(row) for row in range(self.costs.num_tasks))
            return [v for v in values if v is not None]
        rows, cols = self._assigned_rows_cols()
        return self.costs.time_s[rows, cols].tolist()

    def meets_deadline(self, row: int) -> bool:
        """Whether task ``row`` is assigned and finishes by its deadline."""
        latency = self.task_latency_s(row)
        return latency is not None and latency <= self.costs.deadline_s[row]

    def unsatisfied_rate(self) -> float:
        """Fraction of tasks cancelled or missing their deadline (Fig. 3)."""
        if self.costs.num_tasks == 0:
            return 0.0
        if current_context().reference:
            unsatisfied = sum(
                1
                for row in range(self.costs.num_tasks)
                if not self.meets_deadline(row)
            )
            return unsatisfied / self.costs.num_tasks
        rows, cols = self._assigned_rows_cols()
        latencies = self.costs.time_s[rows, cols]
        met = int(np.count_nonzero(latencies <= self.costs.deadline_s[rows]))
        return (self.costs.num_tasks - met) / self.costs.num_tasks

    def device_loads(self) -> Dict[int, float]:
        """Resource load :math:`\\sum_j C_{ij} x_{ij1}` per device."""
        loads: Dict[int, float] = {}
        for row, decision in enumerate(self.decisions):
            owner = self.costs.tasks[row].owner_device_id
            loads.setdefault(owner, 0.0)
            if decision is Subsystem.DEVICE:
                loads[owner] += float(self.costs.resource[row])
        return loads

    def station_load(self) -> float:
        """Resource load :math:`\\sum_{ij} C_{ij} x_{ij2}` on the base station."""
        return sum(
            float(self.costs.resource[row])
            for row, decision in enumerate(self.decisions)
            if decision is Subsystem.STATION
        )

    def involved_devices(self) -> int:
        """Number of distinct devices that execute at least one task."""
        return len(
            {
                self.costs.tasks[row].owner_device_id
                for row, decision in enumerate(self.decisions)
                if decision is Subsystem.DEVICE
            }
        )

    def subsystem_counts(self) -> Dict[Subsystem, int]:
        """Task counts per subsystem (cancelled included)."""
        counts = {subsystem: 0 for subsystem in Subsystem}
        for decision in self.decisions:
            counts[decision] += 1
        return counts

    def stats(self) -> AssignmentStats:
        """All aggregate metrics in one object."""
        if current_context().reference:
            latencies = self.latencies_s()
            return AssignmentStats(
                total_energy_j=self.total_energy_j(),
                mean_latency_s=float(np.mean(latencies)) if latencies else 0.0,
                max_latency_s=float(np.max(latencies)) if latencies else 0.0,
                unsatisfied_rate=self.unsatisfied_rate(),
                cancelled=self.subsystem_counts()[Subsystem.CANCELLED],
                per_subsystem=self.subsystem_counts(),
            )
        rows, cols = self._assigned_rows_cols()
        latencies = self.costs.time_s[rows, cols]
        counts = self.subsystem_counts()
        return AssignmentStats(
            total_energy_j=self.total_energy_j(),
            mean_latency_s=float(np.mean(latencies)) if latencies.size else 0.0,
            max_latency_s=float(np.max(latencies)) if latencies.size else 0.0,
            unsatisfied_rate=self.unsatisfied_rate(),
            cancelled=counts[Subsystem.CANCELLED],
            per_subsystem=counts,
        )

    # ------------------------------------------------------------------
    # Constraint checking
    # ------------------------------------------------------------------

    def violations(
        self,
        device_caps: Mapping[int, float],
        station_cap: float,
        require_all_assigned: bool = False,
    ) -> List[str]:
        """Human-readable list of violated HTA constraints (empty if feasible).

        :param device_caps: :math:`max_i` per device id (constraint C2).
        :param station_cap: :math:`max_S` (constraint C3).
        :param require_all_assigned: if true, cancelled tasks violate C4.
        """
        problems: List[str] = []
        for row, decision in enumerate(self.decisions):
            task = self.costs.tasks[row]
            if decision is Subsystem.CANCELLED:
                if require_all_assigned:
                    problems.append(f"task {task.task_id}: cancelled (violates C4)")
                continue
            latency = self.costs.time_s[row, decision.column]
            if latency > self.costs.deadline_s[row] + 1e-12:
                problems.append(
                    f"task {task.task_id}: latency {latency:.4f}s exceeds "
                    f"deadline {self.costs.deadline_s[row]:.4f}s (C1)"
                )
        for device_id, load in self.device_loads().items():
            cap = device_caps.get(device_id, float("inf"))
            if load > cap + 1e-9:
                problems.append(
                    f"device {device_id}: load {load:.1f} exceeds max_i {cap:.1f} (C2)"
                )
        if self.station_load() > station_cap + 1e-9:
            problems.append(
                f"station: load {self.station_load():.1f} exceeds "
                f"max_S {station_cap:.1f} (C3)"
            )
        return problems

    def __repr__(self) -> str:
        counts = self.subsystem_counts()
        return (
            f"Assignment(tasks={self.costs.num_tasks}, "
            f"device={counts[Subsystem.DEVICE]}, station={counts[Subsystem.STATION]}, "
            f"cloud={counts[Subsystem.CLOUD]}, cancelled={counts[Subsystem.CANCELLED]})"
        )
