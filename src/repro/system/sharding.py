"""Sharded views of a city-scale MEC system.

The paper's quasi-static cluster assumption already makes clusters
independent: a task runs on its own device, its own base station, or the
shared cloud (Section III-A).  A *shard* groups whole clusters, so a shard
is itself a standalone :class:`~repro.system.topology.MECSystem` — the
per-cluster solves inside it are exactly the monolithic solves — and the
only resources shards share are the cloud (and, in coordinated variants,
out-of-shard station capacity).  This module provides the partitioning
layer:

- :class:`ShardSpec` — which stations belong to which shard,
- :class:`ShardView` — one shard as a standalone ``MECSystem`` plus the
  rows of the global task list it owns,
- :class:`ShardManifest` — the shared-resource bookkeeping (cloud budget,
  halo devices/stations, cross-shard station capacity),
- :class:`ShardedSystem` — a monolithic system plus a spec, producing the
  views.

**Halos.**  A task's cost row depends on its external data source: the
source device's wireless profile and whether it shares the owner's cluster
(Section II-B cases).  Shard views therefore include out-of-shard source
devices — and their stations, so attachments stay valid — as a read-only
*halo*.  Halo stations never receive tasks (tasks are grouped by their
owner's cluster), which keeps the shard's cost rows bitwise equal to the
corresponding rows of the monolithic cost table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.system.topology import MECSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.task import Task

__all__ = ["ShardManifest", "ShardSpec", "ShardView", "ShardedSystem"]


@dataclass(frozen=True)
class ShardSpec:
    """A partition of station ids into shards.

    :param shards: per-shard tuples of station ids.  Shards must be
        non-empty and pairwise disjoint; ids within a shard are kept
        sorted.  Whether the spec *covers* a concrete system's stations is
        checked by :class:`ShardedSystem`, which binds a spec to a system.
    """

    shards: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a ShardSpec needs at least one shard")
        normalized: List[Tuple[int, ...]] = []
        seen: Dict[int, int] = {}
        for shard_id, stations in enumerate(self.shards):
            ordered = tuple(sorted(stations))
            if not ordered:
                raise ValueError(f"shard {shard_id} is empty")
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"shard {shard_id} repeats a station id")
            for station_id in ordered:
                if station_id in seen:
                    raise ValueError(
                        f"station {station_id} appears in shards "
                        f"{seen[station_id]} and {shard_id}"
                    )
                seen[station_id] = shard_id
            normalized.append(ordered)
        object.__setattr__(self, "shards", tuple(normalized))

    @classmethod
    def balanced(cls, station_ids: Iterable[int], num_shards: int) -> "ShardSpec":
        """A contiguous, near-even split of the sorted station ids.

        ``num_shards`` is clamped to ``[1, len(station_ids)]``; the first
        ``len % num_shards`` shards take one extra station.  Contiguity
        matters to the streaming tile generator
        (:mod:`repro.workload.streaming`), which maps round-robin device
        attachment onto contiguous station ranges.

        :param station_ids: the stations to partition.
        :param num_shards: requested shard count.
        """
        ordered = sorted(station_ids)
        if not ordered:
            raise ValueError("cannot shard an empty station set")
        count = max(1, min(num_shards, len(ordered)))
        base, extra = divmod(len(ordered), count)
        shards: List[Tuple[int, ...]] = []
        cursor = 0
        for shard_id in range(count):
            size = base + (1 if shard_id < extra else 0)
            shards.append(tuple(ordered[cursor : cursor + size]))
            cursor += size
        return cls(tuple(shards))

    @property
    def num_shards(self) -> int:
        """Number of shards in the partition."""
        return len(self.shards)

    @property
    def station_ids(self) -> Tuple[int, ...]:
        """Every station id covered by the spec (sorted)."""
        return tuple(sorted(sid for shard in self.shards for sid in shard))

    def shard_of(self, station_id: int) -> int:
        """The shard owning ``station_id``.

        :raises KeyError: for stations outside the spec.
        """
        lookup = self.__dict__.get("_shard_of")
        if lookup is None:
            lookup = {
                sid: shard_id
                for shard_id, shard in enumerate(self.shards)
                for sid in shard
            }
            # Frozen dataclass: memoise via __dict__ to bypass __setattr__.
            self.__dict__["_shard_of"] = lookup
        return lookup[station_id]


@dataclass(frozen=True)
class ShardManifest:
    """Shared-resource bookkeeping for one shard.

    :param shard_id: index of the shard in its :class:`ShardSpec`.
    :param core_stations: stations owned (and capacity-enforced) by this
        shard.
    :param core_devices: devices attached to the core stations.
    :param halo_devices: out-of-shard devices included read-only as
        external data sources of the shard's tasks.  Their stations join
        the shard's system as attachment targets only: they never receive
        this shard's tasks.
    :param cloud_capacity: this shard's view of the shared cloud budget
        (``inf`` = uncapped, the paper's model).  A finite budget is
        reconciled across shards by the Lagrangian coordinator
        (:func:`repro.core.sharded.lp_hta_sharded`).
    """

    shard_id: int
    core_stations: Tuple[int, ...]
    core_devices: Tuple[int, ...]
    halo_devices: Tuple[int, ...]
    cloud_capacity: float = float("inf")


@dataclass(frozen=True)
class ShardView:
    """One shard, ready to solve on its own.

    :param shard_id: index of the shard in its spec.
    :param system: the shard as a standalone system (core + halo).
    :param task_rows: indices into the *global* task list of the tasks this
        shard owns (owner device attached to a core station), in global
        order.
    :param manifest: the shared-resource manifest.
    """

    shard_id: int
    system: MECSystem
    task_rows: Tuple[int, ...]
    manifest: ShardManifest


class ShardedSystem:
    """A monolithic :class:`MECSystem` partitioned by a :class:`ShardSpec`.

    :param system: the global system.
    :param spec: the partition; must cover exactly the system's stations.
    """

    def __init__(self, system: MECSystem, spec: ShardSpec) -> None:
        spec_stations = set(spec.station_ids)
        system_stations = set(system.stations)
        if spec_stations != system_stations:
            missing = sorted(system_stations - spec_stations)
            extra = sorted(spec_stations - system_stations)
            raise ValueError(
                "shard spec must cover exactly the system's stations "
                f"(missing {missing}, unknown {extra})"
            )
        self._system = system
        self._spec = spec

    @property
    def system(self) -> MECSystem:
        """The underlying monolithic system."""
        return self._system

    @property
    def spec(self) -> ShardSpec:
        """The station partition."""
        return self._spec

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self._spec.num_shards

    def shard_of_device(self, device_id: int) -> int:
        """The shard owning ``device_id`` (through its station)."""
        return self._spec.shard_of(self._system.cluster_of(device_id))

    def views(
        self,
        tasks: Sequence[Task],
        cloud_capacity: float = float("inf"),
    ) -> Tuple[ShardView, ...]:
        """Build the per-shard views for a concrete task list.

        Shards whose stations have no attached devices produce no view
        (there is nothing to solve — a standalone system needs at least
        one device) but still appear in :meth:`manifests`.

        :param tasks: the global task list; rows are split by the owner
            device's shard.
        :param cloud_capacity: shared cloud budget recorded in each
            manifest (the budget itself is global, not per-shard).
        """
        system = self._system
        rows_by_shard: List[List[int]] = [[] for _ in range(self.num_shards)]
        for row, task in enumerate(tasks):
            rows_by_shard[self.shard_of_device(task.owner_device_id)].append(row)

        views: List[ShardView] = []
        for shard_id, core_stations in enumerate(self._spec.shards):
            core_station_set = set(core_stations)
            core_devices = [
                device_id
                for station_id in core_stations
                for device_id in system.cluster_members(station_id)
            ]
            if not core_devices:
                continue
            core_device_set = set(core_devices)
            halo_devices: List[int] = []
            halo_seen = set()
            for row in rows_by_shard[shard_id]:
                source = tasks[row].external_source
                if (
                    source is not None
                    and source not in core_device_set
                    and source not in halo_seen
                ):
                    halo_seen.add(source)
                    halo_devices.append(source)
            halo_devices.sort()
            halo_stations = {system.cluster_of(d) for d in halo_devices}

            device_ids = sorted(core_device_set | halo_seen)
            station_ids = sorted(core_station_set | halo_stations)
            sub_system = MECSystem(
                devices=[system.device(d) for d in device_ids],
                stations=[system.station(s) for s in station_ids],
                attachment={d: system.cluster_of(d) for d in device_ids},
                cloud=system.cloud,
                bs_bs_link=system.bs_bs_link,
                bs_cloud_link=system.bs_cloud_link,
                parameters=system.parameters,
            )
            manifest = ShardManifest(
                shard_id=shard_id,
                core_stations=tuple(core_stations),
                core_devices=tuple(sorted(core_device_set)),
                halo_devices=tuple(halo_devices),
                cloud_capacity=cloud_capacity,
            )
            views.append(
                ShardView(
                    shard_id=shard_id,
                    system=sub_system,
                    task_rows=tuple(rows_by_shard[shard_id]),
                    manifest=manifest,
                )
            )
        return tuple(views)

    def manifests(self, cloud_capacity: float = float("inf")) -> Tuple[ShardManifest, ...]:
        """Task-independent manifests for *every* shard (including empty
        ones — e.g. clusters drained by device departures)."""
        system = self._system
        out: List[ShardManifest] = []
        for shard_id, core_stations in enumerate(self._spec.shards):
            core_devices = tuple(
                device_id
                for station_id in core_stations
                for device_id in system.cluster_members(station_id)
            )
            out.append(
                ShardManifest(
                    shard_id=shard_id,
                    core_stations=tuple(core_stations),
                    core_devices=tuple(sorted(core_devices)),
                    halo_devices=(),
                    cloud_capacity=cloud_capacity,
                )
            )
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"ShardedSystem(shards={self.num_shards}, "
            f"stations={self._system.num_stations}, "
            f"devices={self._system.num_devices})"
        )
