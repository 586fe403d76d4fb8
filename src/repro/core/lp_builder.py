"""Builder for the relaxed linear program P2 of Section III-A.

Variables are the relaxed indicators :math:`\\xi[3m(i-1) + 3(j-1) + l]`
∈ [0, 1], one per (task, subsystem) pair.  The constraint blocks map to the
paper's matrices:

- **A1/b1** (deadlines, C1): ``t_ijl · ξ_ijl ≤ T_ij`` — a diagonal system,
  i.e. per-variable upper bounds ``ξ_ijl ≤ min(1, T_ij / t_ijl)``.
- **A2/b2** (device resources, C2): ``Σ_j C_ij ξ_ij1 ≤ max_i`` per device.
- **A3/b3** (station resources, C3): ``Σ_ij C_ij ξ_ij2 ≤ max_S``.
- **A4/b4** (completeness, C4): ``Σ_l ξ_ijl = 1`` per task.

Tasks for which *no* subsystem meets the deadline would make the deadline
bounds clash with C4 (the bounds sum below one).  The paper's algorithm
cancels such tasks in Step 4; to keep Step 1 feasible we relax their bounds
to 1 and let Step 4 do the cancelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.context import current_context
from repro.core.costs import NUM_SUBSYSTEMS, ClusterCosts
from repro.obs.tracer import staged
from repro.lp.problem import LinearProgram
from repro.lp.structured import GroupedBoundedLP

__all__ = [
    "P2Build",
    "P2StructuredBuild",
    "build_p2",
    "build_p2_dense",
    "build_p2_structured",
    "reshape_solution",
]


@dataclass(frozen=True)
class P2Build:
    """The relaxed LP plus bookkeeping needed by the rounding steps.

    :param lp: the relaxation P2 as a :class:`LinearProgram`.
    :param doomed_rows: task rows with no deadline-feasible subsystem (their
        bounds were relaxed; Step 4 will cancel them).
    """

    lp: LinearProgram
    doomed_rows: Tuple[int, ...]


def _flat(row: int, subsystem: int) -> int:
    """Flattened variable index of (task row, subsystem column)."""
    return NUM_SUBSYSTEMS * row + subsystem


def _deadline_bounds(
    costs: ClusterCosts, relax_deadline_bounds: bool
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """A1/b1 as per-variable upper bounds, plus the hopeless task rows.

    With ``relax_deadline_bounds`` every bound is 1: used as a fallback when
    the deadline bounds clash with the resource rows and make P2 infeasible
    (a case the paper does not address) — Step 4 then enforces C1 instead.
    """
    n_tasks = costs.num_tasks
    upper = np.ones(NUM_SUBSYSTEMS * n_tasks)
    if current_context().reference:
        doomed_list: List[int] = []
        for row in range(n_tasks):
            deadline_row = costs.deadline_s[row]
            if not costs.feasible_subsystems(row):
                doomed_list.append(row)
                continue  # bounds stay at 1; Step 4 cancels this task
            if relax_deadline_bounds:
                continue
            for l in range(NUM_SUBSYSTEMS):
                t = costs.time_s[row, l]
                if t > 0:
                    upper[_flat(row, l)] = min(1.0, deadline_row / t)
        return upper, tuple(doomed_list)
    if n_tasks == 0:
        return upper, ()
    time_s = costs.time_s
    deadline = costs.deadline_s
    feasible = time_s <= deadline[:, None]
    doomed_mask = ~feasible.any(axis=1)
    doomed = tuple(int(row) for row in np.flatnonzero(doomed_mask))
    if not relax_deadline_bounds:
        # min(1.0, deadline / t) wherever t > 0; doomed rows stay at 1
        # (Step 4 cancels them), exactly as the per-row loop computed.
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = np.minimum(1.0, deadline[:, None] / time_s)
        bounds = np.where(time_s > 0, bounds, 1.0)
        bounds[doomed_mask] = 1.0
        upper = bounds.reshape(-1)
    return upper, doomed


def _assemble_ub_sparse(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    n_tasks: int,
    n_vars: int,
) -> Tuple[Optional[sp.csr_array], Optional[np.ndarray]]:
    """A2/A3 stacked as one CSR block, entry-for-entry equal to the dense
    assembly (rows for infinite caps are skipped rather than filtered out,
    which yields the same matrix).

    Returns ``(None, None)`` in exactly the cases the dense path collapses
    ``a_ub`` to ``None``: no variables or no finite-cap rows.
    """
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    data_parts: List[np.ndarray] = []
    b_ub: List[float] = []
    row = 0
    # A2 — per-device resource caps on the l=1 columns, sorted device order.
    owner_rows = costs.owner_rows()
    for device_id in sorted(owner_rows):
        cap = device_caps.get(device_id, float("inf"))
        if not np.isfinite(cap):
            continue
        task_rows = np.asarray(owner_rows[device_id], dtype=np.intp)
        rows_parts.append(np.full(task_rows.shape[0], row, dtype=np.intp))
        cols_parts.append(task_rows * NUM_SUBSYSTEMS)  # l = 0
        data_parts.append(costs.resource[task_rows])
        b_ub.append(cap)
        row += 1
    # A3 — the single station resource row on the l=2 columns.
    if np.isfinite(station_cap):
        rows_parts.append(np.full(n_tasks, row, dtype=np.intp))
        cols_parts.append(np.arange(1, n_vars, NUM_SUBSYSTEMS, dtype=np.intp))
        data_parts.append(np.asarray(costs.resource, dtype=float))
        b_ub.append(station_cap)
        row += 1
    if row == 0 or n_vars == 0:
        return None, None
    a_ub = sp.csr_array(
        sp.coo_array(
            (
                np.concatenate(data_parts),
                (np.concatenate(rows_parts), np.concatenate(cols_parts)),
            ),
            shape=(row, n_vars),
        )
    )
    return a_ub, np.asarray(b_ub, dtype=float)


@staged("build")
def build_p2(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    relax_deadline_bounds: bool = False,
) -> P2Build:
    """Assemble P2 for one cluster's cost table as CSR sparse matrices.

    Reference mode takes the seed-era dense assembly,
    :func:`build_p2_dense`, instead.

    :param costs: the priced tasks of the cluster.
    :param device_caps: :math:`max_i` per device id.
    :param station_cap: :math:`max_S` for the cluster's base station.
    :param relax_deadline_bounds: drop the A1 bounds (see
        :func:`_deadline_bounds`).
    """
    if current_context().reference:
        return build_p2_dense(
            costs, device_caps, station_cap, relax_deadline_bounds
        )
    n_tasks = costs.num_tasks
    n_vars = NUM_SUBSYSTEMS * n_tasks
    upper, doomed = _deadline_bounds(costs, relax_deadline_bounds)
    a_ub, b_ub = _assemble_ub_sparse(
        costs, device_caps, station_cap, n_tasks, n_vars
    )
    # A4/b4 — each task's three consecutive columns sum to one: CSR with
    # three entries per row, written down directly.
    a4 = sp.csr_array(
        (
            np.ones(n_vars),
            np.arange(n_vars),
            np.arange(0, n_vars + 1, NUM_SUBSYSTEMS),
        ),
        shape=(n_tasks, n_vars),
    )
    lp = LinearProgram(
        c=costs.energy_j.reshape(-1).astype(float),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a4,
        b_eq=np.ones(n_tasks),
        upper_bounds=upper,
    )
    return P2Build(lp=lp, doomed_rows=doomed)


def build_p2_dense(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    relax_deadline_bounds: bool = False,
) -> P2Build:
    """The seed-era dense assembly of P2, entry for entry equal to the CSR
    blocks of :func:`build_p2`.

    Reference mode builds P2 with it, and LP-HTA's Step-1 ladder retries a
    failed sparse interior-point solve on it.  Parameters as for
    :func:`build_p2`.
    """
    n_tasks = costs.num_tasks
    n_vars = NUM_SUBSYSTEMS * n_tasks

    objective = costs.energy_j.reshape(-1).astype(float)
    upper, doomed = _deadline_bounds(costs, relax_deadline_bounds)

    # A2/b2 — per-device resource caps on the l=1 columns.
    owner_rows = costs.owner_rows()
    device_ids = sorted(owner_rows)
    a2 = np.zeros((len(device_ids), n_vars))
    b2 = np.zeros(len(device_ids))
    for idx, device_id in enumerate(device_ids):
        for row in owner_rows[device_id]:
            a2[idx, _flat(row, 0)] = costs.resource[row]
        b2[idx] = device_caps.get(device_id, float("inf"))
    finite_rows = np.isfinite(b2)
    a2, b2 = a2[finite_rows], b2[finite_rows]

    # A3/b3 — the single station resource row on the l=2 columns.
    a3 = np.zeros((1, n_vars))
    for row in range(n_tasks):
        a3[0, _flat(row, 1)] = costs.resource[row]
    b3 = np.array([station_cap])
    if not np.isfinite(station_cap):
        a3 = np.zeros((0, n_vars))
        b3 = np.zeros(0)

    a_ub = np.vstack([a2, a3]) if a2.size or a3.size else None
    b_ub = np.concatenate([b2, b3]) if a2.size or a3.size else None
    if a_ub is not None and a_ub.shape[0] == 0:
        a_ub, b_ub = None, None

    # A4/b4 — each task fully assigned.
    a4 = np.zeros((n_tasks, n_vars))
    for row in range(n_tasks):
        a4[row, _flat(row, 0) : _flat(row, 0) + NUM_SUBSYSTEMS] = 1.0
    b4 = np.ones(n_tasks)

    lp = LinearProgram(
        c=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a4,
        b_eq=b4,
        upper_bounds=upper,
    )
    return P2Build(lp=lp, doomed_rows=doomed)


@dataclass(frozen=True)
class P2StructuredBuild:
    """P2 in the grouped-bounded form for the structured IPM.

    :param lp: the relaxation as a :class:`GroupedBoundedLP` (one equality
        group per task, coupling rows for C2/C3).
    :param doomed_rows: task rows with no deadline-feasible subsystem.
    """

    lp: GroupedBoundedLP
    doomed_rows: Tuple[int, ...]


@staged("build")
def build_p2_structured(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    relax_deadline_bounds: bool = False,
) -> P2StructuredBuild:
    """Assemble P2 in the form the structured IPM consumes.

    Mathematically identical to :func:`build_p2`; the groups are the C4 rows
    and the coupling block stacks the finite C2 rows and the C3 row.

    :param costs: the priced tasks of the cluster.
    :param device_caps: :math:`max_i` per device id.
    :param station_cap: :math:`max_S` for the cluster's base station.
    :param relax_deadline_bounds: drop the A1 bounds (see
        :func:`_deadline_bounds`).
    """
    n_tasks = costs.num_tasks
    n_vars = NUM_SUBSYSTEMS * n_tasks

    objective = costs.energy_j.reshape(-1).astype(float)
    group_index = np.repeat(np.arange(n_tasks), NUM_SUBSYSTEMS)
    group_rhs = np.ones(n_tasks)
    upper, doomed = _deadline_bounds(costs, relax_deadline_bounds)

    reference = current_context().reference
    coupling_rows: List[np.ndarray] = []
    coupling_rhs: List[float] = []
    for device_id, rows in sorted(costs.owner_rows().items()):
        cap = device_caps.get(device_id, float("inf"))
        if not np.isfinite(cap):
            continue
        row_vec = np.zeros(n_vars)
        if reference:
            for r in rows:
                row_vec[_flat(r, 0)] = costs.resource[r]
        else:
            row_vec[rows * NUM_SUBSYSTEMS] = costs.resource[rows]  # l = 0
        coupling_rows.append(row_vec)
        coupling_rhs.append(cap)
    if np.isfinite(station_cap):
        row_vec = np.zeros(n_vars)
        if reference:
            for r in range(n_tasks):
                row_vec[_flat(r, 1)] = costs.resource[r]
        else:
            row_vec[1::NUM_SUBSYSTEMS] = costs.resource  # l = 1 columns
        coupling_rows.append(row_vec)
        coupling_rhs.append(station_cap)

    lp = GroupedBoundedLP(
        c=objective,
        group_index=group_index,
        group_rhs=group_rhs,
        coupling_a=np.vstack(coupling_rows) if coupling_rows else None,
        coupling_b=np.asarray(coupling_rhs) if coupling_rows else None,
        upper=upper,
    )
    return P2StructuredBuild(lp=lp, doomed_rows=doomed)


def reshape_solution(xi: np.ndarray, num_tasks: int) -> np.ndarray:
    """Step 2: the fractional matrix **X** of shape (tasks, 3) from ξ."""
    expected = NUM_SUBSYSTEMS * num_tasks
    if xi.shape != (expected,):
        raise ValueError(f"solution must have length {expected}, got {xi.shape}")
    return xi.reshape(num_tasks, NUM_SUBSYSTEMS)
