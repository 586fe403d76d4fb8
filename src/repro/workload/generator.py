"""Scenario generation: systems, tasks and shared-data universes.

The generator reproduces the experimental setup of Section V-A: devices with
uniform CPU frequencies in [1, 2] GHz on 4G or Wi-Fi at random, 4 GHz base
stations, a 2.4 GHz cloud, input sizes up to the profile's maximum, external
data 0–0.5× the local data, and (for divisible workloads) a shared-data
universe with overlapping per-device holdings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.context import current_context
from repro.core.task import Task
from repro.obs.tracer import staged
from repro.data.items import DataCatalog
from repro.data.ownership import OwnershipMap
from repro.data.universe import random_overlap_universe
from repro.system.computation import CyclesModel, ResultSizeModel
from repro.system.devices import BaseStation, Cloud, MobileDevice
from repro.system.radio import FOUR_G, WIFI
from repro.system.topology import MECSystem, SystemParameters
from repro.workload.array_gen import nth_outside, outside_skips
from repro.workload.profiles import WorkloadProfile

__all__ = ["Scenario", "generate_scenario", "generate_system", "generate_tasks"]

#: Average number of data items one divisible task touches.
_ITEMS_PER_TASK = 8


@dataclass(frozen=True)
class Scenario:
    """A fully generated experiment scenario.

    :param profile: the generating profile.
    :param seed: the RNG seed used.
    :param system: the MEC system.
    :param tasks: the generated tasks.
    :param catalog: the data-item catalog (divisible workloads only).
    :param ownership: per-device holdings (divisible workloads only).
    """

    profile: WorkloadProfile
    seed: int
    system: MECSystem
    tasks: Tuple[Task, ...]
    catalog: Optional[DataCatalog] = None
    ownership: Optional[OwnershipMap] = None

    @property
    def universe(self) -> frozenset:
        """All item ids the tasks collectively require (D of Section IV)."""
        out = set()
        for task in self.tasks:
            out |= task.required_items
        return frozenset(out)


def _station_positions(k: int, area_side_m: float) -> List[Tuple[float, float]]:
    """Base stations on a near-square grid over the area."""
    cols = int(math.ceil(math.sqrt(k)))
    rows = int(math.ceil(k / cols))
    positions = []
    for index in range(k):
        row, col = divmod(index, cols)
        positions.append(
            (
                (col + 0.5) * area_side_m / cols,
                (row + 0.5) * area_side_m / rows,
            )
        )
    return positions


def generate_system(
    profile: WorkloadProfile,
    seed: int = 0,
    ownership: Optional[OwnershipMap] = None,
    area_side_m: float = 2000.0,
) -> MECSystem:
    """Generate the MEC system of a profile.

    Devices are attached round-robin to stations and placed near them;
    frequencies, radio profiles and caps follow the profile.

    :param profile: scenario parameters.
    :param seed: RNG seed.
    :param ownership: optional pre-generated data holdings to bake into the
        devices' ``data_items``.
    :param area_side_m: side of the simulated square area.
    """
    station_positions = _station_positions(profile.num_stations, area_side_m)
    result_size = (
        ResultSizeModel.constant(profile.result_constant_bytes)
        if profile.result_constant_bytes is not None
        else ResultSizeModel.proportional(profile.result_ratio)
    )

    if not current_context().reference:
        from repro.workload.array_gen import generate_system_arrays

        return generate_system_arrays(
            profile,
            seed,
            ownership,
            area_side_m,
            station_positions,
            result_size,
            CyclesModel(),
        )

    rng = np.random.default_rng(seed)
    stations = [
        BaseStation(
            station_id=sid,
            max_resource=profile.station_max_resource,
            position=station_positions[sid],
        )
        for sid in range(profile.num_stations)
    ]

    devices = []
    attachment = {}
    cell_radius = area_side_m / (2.0 * math.ceil(math.sqrt(profile.num_stations)))
    freq_lo, freq_hi = profile.device_frequency_range_hz
    for device_id in range(profile.num_devices):
        station_id = device_id % profile.num_stations
        sx, sy = station_positions[station_id]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = cell_radius * math.sqrt(rng.uniform(0.0, 1.0))
        wireless = WIFI if rng.uniform() < profile.wifi_probability else FOUR_G
        items = ownership.items_of(device_id) if ownership is not None else frozenset()
        devices.append(
            MobileDevice(
                device_id=device_id,
                cpu_frequency_hz=float(rng.uniform(freq_lo, freq_hi)),
                wireless=wireless,
                max_resource=profile.device_max_resource,
                data_items=items,
                position=(sx + radius * math.cos(angle), sy + radius * math.sin(angle)),
            )
        )
        attachment[device_id] = station_id

    parameters = SystemParameters(cycles=CyclesModel(), result_size=result_size)
    return MECSystem(
        devices=devices,
        stations=stations,
        attachment=attachment,
        cloud=Cloud(),
        parameters=parameters,
    )


def _tasks_per_device(num_tasks: int, num_devices: int) -> List[int]:
    """Spread tasks as evenly as possible (the paper's equal-m assumption)."""
    base, extra = divmod(num_tasks, num_devices)
    return [base + (1 if device < extra else 0) for device in range(num_devices)]


class _SourceCandidates:
    """Per-scenario index maps for :func:`_pick_external_source`.

    The candidate sets depend only on the (static) topology, not on the
    task being generated, so they are indexed once per scenario instead of
    re-filtered per task.  No candidate list is materialised: the maps work
    over *positions* in ``system.devices`` iteration order (relabelled
    systems need not iterate in id order), and the k-th candidate a map
    yields is the device the per-task filter's list holds at index k, so
    ``rng.integers`` draws the same sources as ``rng.choice`` over that
    list.  State is O(devices) in total.
    """

    def __init__(self, system: MECSystem) -> None:
        self._ids = list(system.devices)
        self._position = {d: p for p, d in enumerate(self._ids)}
        self._members: dict = {}
        self._rank: list = []
        for position, device_id in enumerate(self._ids):
            members = self._members.setdefault(system.cluster_of(device_id), [])
            self._rank.append(len(members))
            members.append(position)
        self._skips = {
            cluster: outside_skips(members)
            for cluster, members in self._members.items()
        }

    def pick(
        self,
        owner_id: int,
        owner_cluster: int,
        cross_cluster: bool,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Draw one source: a device outside the owner's cluster, or a
        cluster-mate, falling back to any device other than the owner."""
        owner = self._position[owner_id]
        members = self._members[owner_cluster]
        if cross_cluster:
            count = len(self._ids) - len(members)
        else:
            count = len(members) - 1
        if count:
            idx = int(rng.integers(0, count))
            if cross_cluster:
                position = nth_outside(self._skips[owner_cluster], idx)
            else:
                position = members[idx if idx < self._rank[owner] else idx + 1]
        else:
            count = len(self._ids) - 1
            if not count:
                return None
            idx = int(rng.integers(0, count))
            position = idx if idx < owner else idx + 1
        return self._ids[position]


def _pick_external_source(
    system: MECSystem,
    owner_id: int,
    cross_cluster: bool,
    rng: np.random.Generator,
    pool: Optional[_SourceCandidates] = None,
) -> Optional[int]:
    """A device (≠ owner) to hold the task's external data, or None.

    With a candidate ``pool`` the per-task filtering is skipped and the
    uniform draw goes through ``rng.integers`` over the pool's index map —
    ``lst[rng.integers(0, len(lst))]`` consumes the bit stream exactly like
    ``rng.choice(lst)``, so both paths pick the same source.  The
    ``pool=None`` path is the reference implementation the equivalence
    tests compare against.
    """
    owner_cluster = system.cluster_of(owner_id)
    if pool is not None:
        return pool.pick(owner_id, owner_cluster, cross_cluster, rng)

    if cross_cluster:
        candidates = [
            d for d in system.devices if system.cluster_of(d) != owner_cluster
        ]
    else:
        candidates = [
            d
            for d in system.devices
            if d != owner_id and system.cluster_of(d) == owner_cluster
        ]
    if not candidates:
        candidates = [d for d in system.devices if d != owner_id]
    if not candidates:
        return None
    return int(rng.choice(candidates))


_EMPTY_ITEMS = frozenset()


def _fast_holistic_task(
    owner_id: int,
    index: int,
    alpha: float,
    beta: float,
    source: Optional[int],
    demand: float,
    deadline_s: float,
) -> Task:
    """Build a holistic :class:`Task` without re-running ``__post_init__``.

    The generator's draws satisfy every Task invariant by construction
    (non-negative sizes, positive deadline, source set iff beta > 0), so the
    hot path skips the dataclass ``__init__``.  Field values are exactly the
    ones the constructor would store — equality and hashing are unchanged.
    """
    task = object.__new__(Task)
    set_field = object.__setattr__
    set_field(task, "owner_device_id", owner_id)
    set_field(task, "index", index)
    set_field(task, "local_bytes", alpha)
    set_field(task, "external_bytes", beta)
    set_field(task, "external_source", source)
    set_field(task, "resource_demand", demand)
    set_field(task, "deadline_s", deadline_s)
    set_field(task, "divisible", False)
    set_field(task, "required_items", _EMPTY_ITEMS)
    set_field(task, "operation", "generic")
    return task


def _holistic_task(
    system: MECSystem,
    profile: WorkloadProfile,
    owner_id: int,
    index: int,
    rng: np.random.Generator,
    pool: Optional[_SourceCandidates] = None,
) -> Task:
    """One holistic task with paper-distribution sizes."""
    total = float(
        rng.uniform(profile.min_input_fraction, 1.0) * profile.max_input_bytes
    )
    ratio = float(rng.uniform(*profile.external_ratio_range))
    beta = total * ratio / (1.0 + ratio)
    alpha = total - beta
    source = None
    if beta > 0:
        cross = rng.uniform() < profile.external_cross_cluster_prob
        source = _pick_external_source(system, owner_id, cross, rng, pool)
        if source is None:
            alpha, beta = total, 0.0
    if pool is not None:
        return _fast_holistic_task(
            owner_id,
            index,
            alpha,
            beta,
            source,
            total * profile.resource_demand_per_byte,
            float(rng.uniform(*profile.deadline_range_s)),
        )
    return Task(
        owner_device_id=owner_id,
        index=index,
        local_bytes=alpha,
        external_bytes=beta,
        external_source=source,
        resource_demand=total * profile.resource_demand_per_byte,
        deadline_s=float(rng.uniform(*profile.deadline_range_s)),
        divisible=False,
    )


class _DivisibleUniverse:
    """Per-scenario catalog/ownership memo for :func:`_divisible_task`.

    The catalog and ownership map are immutable for the life of a
    scenario, so the sorted item list and the per-item owner sets are
    built once instead of per task.  ``all_items`` is the same sorted
    sequence the per-task code sorts, so ``rng.choice`` draws the same
    subsets; each holder's byte total accumulates in missing-item (outer
    loop) order either way, so swapping ``owners_of`` for this index
    cannot change any float.
    """

    def __init__(self, catalog: DataCatalog, ownership: OwnershipMap) -> None:
        items = sorted(catalog.item_ids)
        self.all_items = np.asarray(items)
        self.sizes = {item: catalog.size_of(item) for item in items}
        self.owners = {item: tuple(ownership.owners_of(item)) for item in items}


def _divisible_task(
    system: MECSystem,
    profile: WorkloadProfile,
    catalog: DataCatalog,
    ownership: OwnershipMap,
    owner_id: int,
    index: int,
    rng: np.random.Generator,
    universe: Optional[_DivisibleUniverse] = None,
) -> Task:
    """One divisible task over a random subset of the data universe."""
    if universe is not None:
        all_items = universe.all_items
    else:
        all_items = sorted(catalog.item_ids)
    count = int(rng.integers(_ITEMS_PER_TASK // 2, _ITEMS_PER_TASK * 3 // 2 + 1))
    count = min(count, len(all_items))
    required = frozenset(
        int(i) for i in rng.choice(all_items, size=count, replace=False)
    )
    owned = ownership.items_of(owner_id) & required
    missing = required - owned
    alpha = catalog.total_bytes(owned)
    beta = catalog.total_bytes(missing)
    source = None
    if beta > 0:
        # L_ij: the device holding the largest share of the missing data.
        holders = {}
        for item in missing:
            if universe is not None:
                owners = universe.owners[item]
                size = universe.sizes[item]
            else:
                owners = ownership.owners_of(item)
                size = catalog.size_of(item)
            for holder in owners:
                if holder != owner_id:
                    holders[holder] = holders.get(holder, 0.0) + size
        if holders:
            source = max(sorted(holders), key=lambda d: holders[d])
        else:
            alpha, beta = alpha + beta, 0.0  # nobody else holds it: treat as local
    return Task(
        owner_device_id=owner_id,
        index=index,
        local_bytes=alpha,
        external_bytes=beta,
        external_source=source,
        resource_demand=(alpha + beta) * profile.resource_demand_per_byte,
        deadline_s=float(rng.uniform(*profile.deadline_range_s)),
        divisible=True,
        required_items=required,
    )


def generate_tasks(
    system: MECSystem,
    profile: WorkloadProfile,
    seed: int = 0,
    catalog: Optional[DataCatalog] = None,
    ownership: Optional[OwnershipMap] = None,
) -> List[Task]:
    """Generate the profile's tasks over an existing system.

    :param system: the MEC system.
    :param profile: scenario parameters.
    :param seed: RNG seed.
    :param catalog: required when ``profile.divisible``.
    :param ownership: required when ``profile.divisible``.
    """
    if profile.divisible and (catalog is None or ownership is None):
        raise ValueError("divisible workloads need a catalog and ownership map")
    counts = _tasks_per_device(profile.num_tasks, profile.num_devices)

    context = current_context()
    if not context.reference and not profile.divisible:
        from repro.workload.array_gen import generate_holistic_tasks

        tasks = generate_holistic_tasks(system, profile, seed, counts)
        if tasks is not None:
            return tasks
        # Undecodable word stream (rare Lemire rejection or relabelled
        # device ids): fall back to the object path below.
        context.telemetry.metrics.incr("generate.array_bailout")

    rng = np.random.default_rng(seed + 1)
    tasks: List[Task] = []
    sources = None if context.reference else _SourceCandidates(system)
    universe = None
    if profile.divisible and not context.reference:
        universe = _DivisibleUniverse(catalog, ownership)
    for owner_id, count in enumerate(counts):
        for index in range(count):
            if profile.divisible:
                task = _divisible_task(
                    system, profile, catalog, ownership, owner_id, index, rng,
                    universe,
                )
            else:
                task = _holistic_task(system, profile, owner_id, index, rng, sources)
            tasks.append(task)
    return tasks


@staged("generate")
def generate_scenario(profile: WorkloadProfile, seed: int = 0) -> Scenario:
    """Generate a complete scenario (system, tasks, data) from a profile.

    :param profile: scenario parameters.
    :param seed: RNG seed; equal (profile, seed) pairs generate identical
        scenarios.
    """
    catalog = None
    ownership = None
    if profile.divisible:
        mean_item = profile.max_input_bytes / _ITEMS_PER_TASK
        catalog, ownership = random_overlap_universe(
            num_items=profile.num_data_items,
            device_ids=list(range(profile.num_devices)),
            mean_size_bytes=mean_item,
            replication=profile.item_replication,
            seed=seed + 2,
        )
    system = generate_system(profile, seed=seed, ownership=ownership)
    tasks = generate_tasks(
        system, profile, seed=seed, catalog=catalog, ownership=ownership
    )
    return Scenario(
        profile=profile,
        seed=seed,
        system=system,
        tasks=tuple(tasks),
        catalog=catalog,
        ownership=ownership,
    )
