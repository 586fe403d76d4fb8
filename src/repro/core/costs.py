"""Per-task delay and energy costs :math:`t_{ijl}`, :math:`E_{ijl}`.

This module evaluates, exactly as written in Section II, the six quantities
attached to each task: transmission time and energy plus computation time
(and, locally, computation energy) for each of the three candidate
subsystems *l*:

- l = 1: the owning mobile device,
- l = 2: the base station the owner is attached to,
- l = 3: the remote cloud.

The paper's formulas distinguish whether the external-data holder
:math:`L_{ij}` sits in the owner's cluster (one radio hop) or in another
cluster (an extra base-station↔base-station backhaul transfer).  For l = 3
the paper routes both data sources straight up to the cloud through their own
base stations, so no BS–BS hop appears there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.context import current_context
from repro.core.task import Task
from repro.system.topology import MECSystem
from repro.units import BITS_PER_BYTE

__all__ = [
    "ClusterCosts",
    "TaskCosts",
    "cluster_costs",
    "task_costs",
]

#: Number of candidate subsystems per task.
NUM_SUBSYSTEMS = 3


@dataclass(frozen=True)
class TaskCosts:
    """All Section II cost components for one task.

    Index 0/1/2 of each tuple corresponds to subsystem l = 1/2/3.

    :param transmission_time_s: :math:`t^{(R)}_{ijl}`.
    :param computation_time_s: :math:`t^{(C)}_{ijl}`.
    :param transmission_energy_j: :math:`E^{(R)}_{ijl}`.
    :param computation_energy_j: :math:`E^{(C)}_{ijl}` (zero for l = 2, 3:
        the paper neglects station/cloud compute energy).
    """

    transmission_time_s: Tuple[float, float, float]
    computation_time_s: Tuple[float, float, float]
    transmission_energy_j: Tuple[float, float, float]
    computation_energy_j: Tuple[float, float, float]

    @property
    def total_time_s(self) -> Tuple[float, float, float]:
        """:math:`t_{ijl} = t^{(C)}_{ijl} + t^{(R)}_{ijl}` (Eq. 5)."""
        return tuple(
            c + r for c, r in zip(self.computation_time_s, self.transmission_time_s)
        )

    @property
    def total_energy_j(self) -> Tuple[float, float, float]:
        """:math:`E_{ijl}` (Eq. 5): transmission plus, locally, computation."""
        return tuple(
            r + c
            for r, c in zip(self.transmission_energy_j, self.computation_energy_j)
        )


def task_costs(system: MECSystem, task: Task) -> TaskCosts:
    """Evaluate every :math:`t_{ijl}` / :math:`E_{ijl}` component for ``task``.

    :param system: the MEC system the task lives in.
    :param task: the task to price.
    :returns: the full cost breakdown.
    :raises KeyError: if the task references devices unknown to the system.
    """
    params = system.parameters
    owner = system.device(task.owner_device_id)
    station = system.station_of(task.owner_device_id)
    alpha = task.local_bytes
    beta = task.external_bytes
    total_input = alpha + beta
    result = params.result_size.result_bytes(total_input)

    if task.has_external_data:
        source = system.device(task.external_source)
        same_cluster = system.same_cluster(task.owner_device_id, task.external_source)
        ext_upload_time = source.wireless.upload_time_s(beta)
        ext_upload_energy = source.wireless.upload_energy_j(beta)
    else:
        source = None
        same_cluster = True
        ext_upload_time = 0.0
        ext_upload_energy = 0.0

    bs_bs_time = 0.0 if same_cluster else system.bs_bs_link.transfer_time_s(beta)
    bs_bs_energy = 0.0 if same_cluster else system.bs_bs_link.transfer_energy_j(beta)

    # --- l = 1: run on the owning device -------------------------------
    cycles_device = params.cycles.cycles_on_device(total_input)
    t_c1 = cycles_device / owner.cpu_frequency_hz
    # f·f rather than f**2: libm pow is not always correctly rounded, and
    # the vectorised table must agree with this reference bit for bit.
    e_c1 = params.kappa * cycles_device * (
        owner.cpu_frequency_hz * owner.cpu_frequency_hz
    )
    if task.has_external_data:
        # Retrieve ED: source uplink, (cross-cluster backhaul,) owner downlink.
        t_r1 = ext_upload_time + owner.wireless.download_time_s(beta) + bs_bs_time
        e_r1 = ext_upload_energy + owner.wireless.download_energy_j(beta) + bs_bs_energy
    else:
        t_r1 = 0.0
        e_r1 = 0.0

    # --- l = 2: run on the owner's base station ------------------------
    cycles_station = params.cycles.cycles_on_station(total_input)
    t_c2 = cycles_station / station.cpu_frequency_hz
    # LD and ED travel concurrently (the max in the paper's formula); the
    # result is pushed back down to the owner afterwards.
    t_r2 = (
        max(ext_upload_time + bs_bs_time, owner.wireless.upload_time_s(alpha))
        + owner.wireless.download_time_s(result)
    )
    e_r2 = (
        ext_upload_energy
        + owner.wireless.upload_energy_j(alpha)
        + owner.wireless.download_energy_j(result)
        + bs_bs_energy
    )

    # --- l = 3: run on the remote cloud --------------------------------
    cycles_cloud = params.cycles.cycles_on_cloud(total_input)
    t_c3 = cycles_cloud / system.cloud.cpu_frequency_hz
    wan_payload = total_input + result
    t_r3 = (
        max(ext_upload_time, owner.wireless.upload_time_s(alpha))
        + owner.wireless.download_time_s(result)
        + system.bs_cloud_link.transfer_time_s(wan_payload)
    )
    e_r3 = (
        ext_upload_energy
        + owner.wireless.upload_energy_j(alpha)
        + owner.wireless.download_energy_j(result)
        + system.bs_cloud_link.transfer_energy_j(wan_payload)
    )

    return TaskCosts(
        transmission_time_s=(t_r1, t_r2, t_r3),
        computation_time_s=(t_c1, t_c2, t_c3),
        transmission_energy_j=(e_r1, e_r2, e_r3),
        computation_energy_j=(e_c1, 0.0, 0.0),
    )


@dataclass(frozen=True)
class ClusterCosts:
    """Vectorised costs for a list of tasks (one cluster, usually).

    :param tasks: the tasks, in the row order of the arrays.
    :param time_s: array of shape (len(tasks), 3): :math:`t_{ijl}`.
    :param energy_j: array of shape (len(tasks), 3): :math:`E_{ijl}`.
    :param resource: array of shape (len(tasks),): :math:`C_{ij}`.
    :param deadline_s: array of shape (len(tasks),): :math:`T_{ij}`.
    """

    tasks: Tuple[Task, ...]
    time_s: np.ndarray
    energy_j: np.ndarray
    resource: np.ndarray
    deadline_s: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.tasks)
        if self.time_s.shape != (n, NUM_SUBSYSTEMS):
            raise ValueError(f"time_s must be ({n}, 3), got {self.time_s.shape}")
        if self.energy_j.shape != (n, NUM_SUBSYSTEMS):
            raise ValueError(f"energy_j must be ({n}, 3), got {self.energy_j.shape}")
        if self.resource.shape != (n,):
            raise ValueError(f"resource must be ({n},), got {self.resource.shape}")
        if self.deadline_s.shape != (n,):
            raise ValueError(f"deadline_s must be ({n},), got {self.deadline_s.shape}")

    @property
    def num_tasks(self) -> int:
        """Number of tasks priced in this cost table."""
        return len(self.tasks)

    def feasible_subsystems(self, row: int) -> Tuple[int, ...]:
        """Subsystem indices (0-based) meeting the deadline for task ``row``."""
        return tuple(
            l for l in range(NUM_SUBSYSTEMS) if self.time_s[row, l] <= self.deadline_s[row]
        )

    def owner_rows(self) -> Dict[int, np.ndarray]:
        """Row indices grouped by owning device id.

        The grouping is computed once and cached (this accessor is called
        per LP build); treat the returned mapping as read-only.
        """
        cached = self.__dict__.get("_owner_rows")
        if cached is None:
            groups: Dict[int, list] = {}
            for row, task in enumerate(self.tasks):
                groups.setdefault(task.owner_device_id, []).append(row)
            cached = {
                owner: np.asarray(rows, dtype=int) for owner, rows in groups.items()
            }
            # Frozen dataclass: memoise via __dict__ to bypass __setattr__.
            self.__dict__["_owner_rows"] = cached
        return cached


#: Per-system memo of priced tables.  Keyed weakly by the system (identity)
#: and strongly by the task tuple (value equality), so tables are shared by
#: every algorithm evaluating the same scenario and die with the scenario.
_TABLE_CACHE: "WeakKeyDictionary[MECSystem, Dict[tuple, ClusterCosts]]" = (
    WeakKeyDictionary()
)

#: Retained tables per system; old entries are evicted FIFO beyond this.
_TABLE_CACHE_PER_SYSTEM = 64

#: Generator-supplied task arrays, keyed weakly by system.  The array-native
#: generator already holds every task field as a flat array; registering them
#: here lets :func:`_cluster_costs_vectorized` skip its per-task gather loop
#: (the generate→costs fusion).  One entry per system: ``(tasks, arrays)``.
_TASK_ARRAY_HINTS: "WeakKeyDictionary[MECSystem, tuple]" = WeakKeyDictionary()


def register_task_arrays(system: MECSystem, tasks, arrays: dict) -> None:
    """Register the flat arrays a task list was materialised from.

    Called by :mod:`repro.workload.array_gen` after building a scenario's
    tasks.  ``arrays`` must hold ``owner``/``source`` (int64, source -1 for
    None), ``alpha``/``beta``/``resource``/``deadline`` (float64) and
    ``has_ext`` (bool), all parallel to ``tasks``.  The hint is advisory:
    the cost builder uses it only when the task tuple it is pricing is the
    *same objects* in the same order, and falls back to the loop otherwise.
    """
    _TASK_ARRAY_HINTS[system] = (tuple(tasks), arrays)


def _task_array_hint(system: MECSystem, tasks: Tuple[Task, ...]) -> Optional[dict]:
    """The registered arrays for exactly this task tuple, if any."""
    entry = _TASK_ARRAY_HINTS.get(system)
    if entry is None:
        return None
    stored, arrays = entry
    if stored is not tasks:
        if len(stored) != len(tasks):
            return None
        for stored_task, task in zip(stored, tasks):
            if stored_task is not task:
                return None
    return arrays


def _cluster_costs_scalar(system: MECSystem, tasks: Tuple[Task, ...]) -> ClusterCosts:
    """Reference implementation: one :func:`task_costs` call per row."""
    n = len(tasks)
    time_s = np.zeros((n, NUM_SUBSYSTEMS))
    energy_j = np.zeros((n, NUM_SUBSYSTEMS))
    resource = np.zeros(n)
    deadline = np.zeros(n)
    for row, task in enumerate(tasks):
        costs = task_costs(system, task)
        time_s[row, :] = costs.total_time_s
        energy_j[row, :] = costs.total_energy_j
        resource[row] = task.resource_demand
        deadline[row] = task.deadline_s
    return ClusterCosts(
        tasks=tasks,
        time_s=time_s,
        energy_j=energy_j,
        resource=resource,
        deadline_s=deadline,
    )


def _cluster_costs_vectorized(
    system: MECSystem, tasks: Tuple[Task, ...]
) -> ClusterCosts:
    """Batched evaluation of the Section II formulas over task arrays.

    Every arithmetic step mirrors :func:`task_costs` operation for
    operation (same order, same associativity), so the resulting arrays are
    bit-identical to the scalar reference — asserted by the test suite.
    """
    n = len(tasks)
    params = system.parameters

    # Per-device attribute table (tiny: one row per device).
    device_info = {}
    for device_id in system.devices:
        device = system.device(device_id)
        wireless = device.wireless
        device_info[device_id] = (
            wireless.upload_rate_bps,
            wireless.download_rate_bps,
            wireless.tx_power_w,
            wireless.rx_power_w,
            device.cpu_frequency_hz,
            system.station_of(device_id).cpu_frequency_hz,
            system.cluster_of(device_id),
        )

    hint = _task_array_hint(system, tasks)
    if hint is not None and list(system.devices) != list(range(len(device_info))):
        # Positional gather below needs device ids 0..n-1 in order.
        hint = None
    if hint is not None:
        # Generate→costs fusion: the array generator already produced every
        # task field as a flat array, so the gather is pure fancy indexing
        # over a per-device attribute table.  Values are the same float64
        # objects the loop below would copy element by element, so the
        # resulting table is bit-identical.
        device_rows = [device_info[d] for d in system.devices]
        dev_up = np.array([r[0] for r in device_rows])
        dev_down = np.array([r[1] for r in device_rows])
        dev_tx = np.array([r[2] for r in device_rows])
        dev_rx = np.array([r[3] for r in device_rows])
        dev_freq = np.array([r[4] for r in device_rows])
        dev_sfreq = np.array([r[5] for r in device_rows])
        dev_cluster = np.array([r[6] for r in device_rows], dtype=np.int64)
        owner = hint["owner"]
        alpha = hint["alpha"]
        beta = hint["beta"]
        resource = hint["resource"].copy()
        deadline = hint["deadline"].copy()
        own_up_rate = dev_up[owner]
        own_down_rate = dev_down[owner]
        own_tx = dev_tx[owner]
        own_rx = dev_rx[owner]
        own_freq = dev_freq[owner]
        station_freq = dev_sfreq[owner]
        has_ext = hint["has_ext"]
        src_idx = np.where(has_ext, hint["source"], 0)
        src_up_rate = np.where(has_ext, dev_up[src_idx], 1.0)
        src_tx = np.where(has_ext, dev_tx[src_idx], 0.0)
        cross = has_ext & (dev_cluster[src_idx] != dev_cluster[owner])
    else:
        alpha = np.empty(n)
        beta = np.empty(n)
        resource = np.empty(n)
        deadline = np.empty(n)
        own_up_rate = np.empty(n)
        own_down_rate = np.empty(n)
        own_tx = np.empty(n)
        own_rx = np.empty(n)
        own_freq = np.empty(n)
        station_freq = np.empty(n)
        src_up_rate = np.ones(n)
        src_tx = np.zeros(n)
        has_ext = np.zeros(n, dtype=bool)
        cross = np.zeros(n, dtype=bool)

        for row, task in enumerate(tasks):
            info = device_info[task.owner_device_id]
            alpha[row] = task.local_bytes
            beta[row] = task.external_bytes
            resource[row] = task.resource_demand
            deadline[row] = task.deadline_s
            (
                own_up_rate[row],
                own_down_rate[row],
                own_tx[row],
                own_rx[row],
                own_freq[row],
                station_freq[row],
                owner_cluster,
            ) = info
            if task.has_external_data:
                source = device_info[task.external_source]
                has_ext[row] = True
                src_up_rate[row] = source[0]
                src_tx[row] = source[2]
                cross[row] = source[6] != owner_cluster

    total = alpha + beta
    result_model = params.result_size
    if result_model.is_constant:
        result = np.full(n, float(result_model.constant_bytes))
    else:
        result = result_model.ratio * total

    bits = BITS_PER_BYTE
    # External-data retrieval legs (zero where the task is self-contained).
    ext_up_t = np.where(has_ext, beta * bits / src_up_rate, 0.0)
    ext_up_e = src_tx * ext_up_t
    bs_bs = system.bs_bs_link
    bs_bs_t = np.where(
        cross, bs_bs.latency_s + beta * bits / bs_bs.bandwidth_bps, 0.0
    )
    bs_bs_e = np.where(cross, bs_bs.energy_per_byte_j * beta, 0.0)

    cycles = params.cycles
    # --- l = 1: run on the owning device -------------------------------
    cycles_device = (cycles.cycles_per_byte * cycles.device_multiplier) * total
    t_c1 = cycles_device / own_freq
    e_c1 = params.kappa * cycles_device * (own_freq * own_freq)
    own_down_beta_t = beta * bits / own_down_rate
    t_r1 = np.where(has_ext, ext_up_t + own_down_beta_t + bs_bs_t, 0.0)
    e_r1 = np.where(has_ext, ext_up_e + own_rx * own_down_beta_t + bs_bs_e, 0.0)

    # --- l = 2: run on the owner's base station ------------------------
    cycles_station = (cycles.cycles_per_byte * cycles.station_multiplier) * total
    t_c2 = cycles_station / station_freq
    own_up_alpha_t = alpha * bits / own_up_rate
    own_up_alpha_e = own_tx * own_up_alpha_t
    own_down_res_t = result * bits / own_down_rate
    own_down_res_e = own_rx * own_down_res_t
    t_r2 = np.maximum(ext_up_t + bs_bs_t, own_up_alpha_t) + own_down_res_t
    e_r2 = ext_up_e + own_up_alpha_e + own_down_res_e + bs_bs_e

    # --- l = 3: run on the remote cloud --------------------------------
    cycles_cloud = (cycles.cycles_per_byte * cycles.cloud_multiplier) * total
    t_c3 = cycles_cloud / system.cloud.cpu_frequency_hz
    wan_payload = total + result
    bs_cloud = system.bs_cloud_link
    wan_t = np.where(
        wan_payload == 0.0,
        0.0,
        bs_cloud.latency_s + wan_payload * bits / bs_cloud.bandwidth_bps,
    )
    t_r3 = np.maximum(ext_up_t, own_up_alpha_t) + own_down_res_t + wan_t
    e_r3 = (
        ext_up_e
        + own_up_alpha_e
        + own_down_res_e
        + bs_cloud.energy_per_byte_j * wan_payload
    )

    time_s = np.column_stack((t_c1 + t_r1, t_c2 + t_r2, t_c3 + t_r3))
    energy_j = np.column_stack((e_r1 + e_c1, e_r2 + 0.0, e_r3 + 0.0))
    return ClusterCosts(
        tasks=tasks,
        time_s=time_s,
        energy_j=energy_j,
        resource=resource,
        deadline_s=deadline,
    )


def cluster_costs(system: MECSystem, tasks: Sequence[Task]) -> ClusterCosts:
    """Price every task and pack the results into arrays.

    The table is computed with the batched NumPy path and memoised per
    (system, tasks): the figure pipeline prices each scenario once instead
    of once per algorithm.  Reference mode
    (``RunContext(reference=True)``) prices row by row through
    :func:`task_costs` and memoises nothing, as the seed pipeline did.

    :param system: the MEC system.
    :param tasks: tasks to price (typically all tasks of one cluster).
    """
    task_tuple = tuple(tasks)
    if current_context().reference:
        return _cluster_costs_scalar(system, task_tuple)

    per_system = _TABLE_CACHE.get(system)
    if per_system is None:
        per_system = {}
        _TABLE_CACHE[system] = per_system
    hit = per_system.get(task_tuple)
    if hit is not None:
        return hit

    table = _cluster_costs_vectorized(system, task_tuple)
    while len(per_system) >= _TABLE_CACHE_PER_SYSTEM:
        per_system.pop(next(iter(per_system)))
    per_system[task_tuple] = table
    return table
