"""Array-native scenario generation (the compiled hot path of ``generator``).

The object generator draws every random quantity through a scalar
``Generator`` method call — five per task, four per device — and runs each
value through dataclass construction.  At sweep and streaming-tile scale
the per-call overhead dominates.  This module prefetches the PCG64 *raw
word stream* in one ``random_raw`` call, decodes it with the exact
arithmetic numpy's scalar paths use, and defers dataclass materialisation
to a thin view loop over plain Python floats.

The decode model (verified empirically, and pinned by the differential
tests):

- ``rng.uniform(a, b)`` consumes one raw 64-bit word and computes
  ``a + (b - a) * u`` with ``u = (word >> 11) * 2**-53``.  Array fills are
  row-major identical to sequential scalar draws.
- ``rng.integers(0, n)`` for ``0 < n < 2**32`` uses numpy's *buffered*
  32-bit Lemire sampler: with an empty buffer it consumes one word, uses
  the low half and buffers the high half inside the bit generator; with a
  full buffer it consumes **no** word.  The candidate is
  ``(word32 * n) >> 32``, rejected when ``(word32 * n) & 0xFFFFFFFF``
  falls below ``(2**32 - n) % n``.  ``integers(0, 1)`` consumes nothing.
- ``uniform`` draws neither use nor disturb the 32-bit buffer.

Rejections are ~``n / 2**32`` rare; rather than replicate the resample
loop this module *bails out* (returns None) whenever
``(word32 * n) & 0xFFFFFFFF < n`` — a superset of the true rejection test
— and the caller falls back to the object path, which is bit-identical by
the repo's standing differential guarantee.  The same bail covers systems
whose device ids are not ``0..n-1`` in iteration order (relabelled
streaming tiles).

Divisible-task profiles always take the object path: their draws go
through ``rng.choice(..., replace=False)`` whose consumption pattern is
not worth compiling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.task import Task
from repro.system.devices import BaseStation, Cloud, MobileDevice
from repro.system.radio import FOUR_G, WIFI
from repro.system.topology import MECSystem, SystemParameters
from repro.workload.profiles import WorkloadProfile

__all__ = [
    "generate_holistic_tasks",
    "generate_system_arrays",
    "nth_outside",
    "outside_skips",
]

_U53 = 2.0**-53


def _decode_uniform_words(raw: np.ndarray) -> List[float]:
    """The double in [0, 1) each raw word yields, as plain Python floats."""
    return ((raw >> np.uint64(11)) * _U53).tolist()


def generate_system_arrays(
    profile: WorkloadProfile,
    seed: int,
    ownership,
    area_side_m: float,
    station_positions: Sequence[Tuple[float, float]],
    result_size,
    cycles,
) -> MECSystem:
    """Array-path twin of :func:`repro.workload.generator.generate_system`.

    One ``random_raw(4n)`` prefetch replaces the four scalar draws per
    device; the view loop keeps the scalar ``math.cos``/``math.sin`` calls
    (libm trig is what the object path used — numpy's SIMD trig may round
    differently) and replicates the ``MobileDevice`` validation inline.
    """
    rng = np.random.default_rng(seed)
    n = profile.num_devices
    raw = rng.bit_generator.random_raw(4 * n) if n else np.empty(0, dtype=np.uint64)
    u = _decode_uniform_words(raw)

    stations = [
        BaseStation(
            station_id=sid,
            max_resource=profile.station_max_resource,
            position=station_positions[sid],
        )
        for sid in range(profile.num_stations)
    ]

    two_pi = 2.0 * math.pi
    cell_radius = area_side_m / (2.0 * math.ceil(math.sqrt(profile.num_stations)))
    freq_lo, freq_hi = profile.device_frequency_range_hz
    wifi_p = profile.wifi_probability
    max_resource = profile.device_max_resource
    if max_resource < 0:
        raise ValueError("max_resource must be non-negative")

    devices = []
    attachment = {}
    new = object.__new__
    set_field = object.__setattr__
    empty_items = frozenset()
    for device_id in range(n):
        station_id = device_id % profile.num_stations
        sx, sy = station_positions[station_id]
        base = 4 * device_id
        angle = 0.0 + (two_pi - 0.0) * u[base]
        radius = cell_radius * math.sqrt(0.0 + (1.0 - 0.0) * u[base + 1])
        wireless = WIFI if 0.0 + (1.0 - 0.0) * u[base + 2] < wifi_p else FOUR_G
        freq = float(freq_lo + (freq_hi - freq_lo) * u[base + 3])
        if freq <= 0:
            raise ValueError("cpu_frequency_hz must be positive")
        items = ownership.items_of(device_id) if ownership is not None else empty_items
        device = new(MobileDevice)
        set_field(device, "device_id", device_id)
        set_field(device, "cpu_frequency_hz", freq)
        set_field(device, "wireless", wireless)
        set_field(device, "max_resource", max_resource)
        set_field(device, "data_items", items)
        set_field(
            device,
            "position",
            (sx + radius * math.cos(angle), sy + radius * math.sin(angle)),
        )
        devices.append(device)
        attachment[device_id] = station_id

    parameters = SystemParameters(cycles=cycles, result_size=result_size)
    return MECSystem(
        devices=devices,
        stations=stations,
        attachment=attachment,
        cloud=Cloud(),
        parameters=parameters,
    )


_EMPTY_ITEMS = frozenset()


def outside_skips(members: Sequence[int]) -> List[int]:
    """The index map of the complement of ``members`` in ``0..n-1``.

    ``members`` must be sorted and distinct.  The returned
    ``shifted[j] = members[j] - j`` is non-decreasing, and
    :func:`nth_outside` turns it into the idx-th non-member without
    materialising the O(n) complement: every member at or below the
    answer pushes it up by one, and those are exactly the ``j`` with
    ``shifted[j] <= idx``.
    """
    return [m - j for j, m in enumerate(members)]


def nth_outside(shifted: Sequence[int], idx: int) -> int:
    """The idx-th (0-based) value of ``0..n-1`` not in the members whose
    :func:`outside_skips` map is ``shifted``."""
    return idx + bisect_right(shifted, idx)


def generate_holistic_tasks(
    system: MECSystem,
    profile: WorkloadProfile,
    seed: int,
    counts: Sequence[int],
) -> Optional[List[Task]]:
    """Array-path twin of the holistic loop in ``generate_tasks``.

    Decodes the prefetched word stream task by task — two uniforms, an
    optional cross-cluster uniform, an optional buffered-Lemire source
    index, a deadline uniform — tracking the bit generator's 32-bit buffer
    parity through the loop.  Registers the resulting task arrays with
    :mod:`repro.core.costs` so the cost-table build skips its per-task
    gather loop.

    :returns: the task list, or None when the stream cannot be decoded
        statically (possible Lemire rejection, non-canonical device ids) —
        the caller falls back to the object path.
    """
    num_devices = profile.num_devices
    device_ids = list(system.devices)
    if len(device_ids) != num_devices or device_ids != list(range(num_devices)):
        return None

    total_tasks = sum(counts)
    rng = np.random.default_rng(seed + 1)
    raw = (
        rng.bit_generator.random_raw(5 * total_tasks)
        if total_tasks
        else np.empty(0, dtype=np.uint64)
    )
    u = _decode_uniform_words(raw)
    lo32 = (raw & np.uint64(0xFFFFFFFF)).tolist()
    hi32 = (raw >> np.uint64(32)).tolist()

    clusters = [system.cluster_of(d) for d in device_ids]
    members: Dict[int, List[int]] = {}
    for d in device_ids:
        members.setdefault(clusters[d], []).append(d)
    rank: Dict[int, int] = {}
    for cluster_members in members.values():
        for position, d in enumerate(cluster_members):
            rank[d] = position
    skips = {cluster: outside_skips(m) for cluster, m in members.items()}

    min_frac = profile.min_input_fraction
    max_bytes = profile.max_input_bytes
    ratio_lo, ratio_hi = profile.external_ratio_range
    p_cross = profile.external_cross_cluster_prob
    dead_lo, dead_hi = profile.deadline_range_s
    demand_per_byte = profile.resource_demand_per_byte

    owners: List[int] = []
    indices: List[int] = []
    alphas: List[float] = []
    betas: List[float] = []
    sources: List[Optional[int]] = []
    demands: List[float] = []
    deadlines: List[float] = []

    offset = 0
    buffered: Optional[int] = None
    for owner_id, count in enumerate(counts):
        owner_cluster = clusters[owner_id]
        cluster_members = members[owner_cluster]
        cluster_skips = skips[owner_cluster]
        n_same = len(cluster_members) - 1
        n_cross = num_devices - len(cluster_members)
        owner_rank = rank[owner_id]
        for index in range(count):
            total = float(
                (min_frac + (1.0 - min_frac) * u[offset]) * max_bytes
            )
            ratio = ratio_lo + (ratio_hi - ratio_lo) * u[offset + 1]
            beta = total * ratio / (1.0 + ratio)
            alpha = total - beta
            offset += 2
            source: Optional[int] = None
            if beta > 0:
                cross = 0.0 + (1.0 - 0.0) * u[offset] < p_cross
                offset += 1
                fallback = False
                n = n_cross if cross else n_same
                if n == 0:
                    n = num_devices - 1
                    fallback = True
                if n == 1:
                    # integers(0, 1) consumes no words at all.
                    idx = 0
                elif n > 1:
                    if buffered is None:
                        word32 = lo32[offset]
                        buffered = hi32[offset]
                        offset += 1
                    else:
                        word32 = buffered
                        buffered = None
                    product = word32 * n
                    if product & 0xFFFFFFFF < n:
                        # Conservative Lemire-rejection test: the sampler
                        # *might* redraw here, so the static decode is off.
                        return None
                    idx = product >> 32
                if n == 0:
                    source = None
                elif fallback:
                    source = idx if idx < owner_id else idx + 1
                elif cross:
                    source = nth_outside(cluster_skips, idx)
                else:
                    source = cluster_members[idx if idx < owner_rank else idx + 1]
                if source is None:
                    alpha, beta = total, 0.0
            deadline = float(dead_lo + (dead_hi - dead_lo) * u[offset])
            offset += 1
            owners.append(owner_id)
            indices.append(index)
            alphas.append(alpha)
            betas.append(beta)
            sources.append(source)
            demands.append(total * demand_per_byte)
            deadlines.append(deadline)

    tasks: List[Task] = []
    new = object.__new__
    set_field = object.__setattr__
    for i in range(total_tasks):
        task = new(Task)
        set_field(task, "owner_device_id", owners[i])
        set_field(task, "index", indices[i])
        set_field(task, "local_bytes", alphas[i])
        set_field(task, "external_bytes", betas[i])
        set_field(task, "external_source", sources[i])
        set_field(task, "resource_demand", demands[i])
        set_field(task, "deadline_s", deadlines[i])
        set_field(task, "divisible", False)
        set_field(task, "required_items", _EMPTY_ITEMS)
        set_field(task, "operation", "generic")
        tasks.append(task)

    from repro.core import costs

    costs.register_task_arrays(
        system,
        tasks,
        {
            "owner": np.asarray(owners, dtype=np.int64),
            "alpha": np.asarray(alphas, dtype=np.float64),
            "beta": np.asarray(betas, dtype=np.float64),
            "source": np.asarray(
                [-1 if s is None else s for s in sources], dtype=np.int64
            ),
            "has_ext": np.asarray([b > 0 for b in betas], dtype=bool),
            "resource": np.asarray(demands, dtype=np.float64),
            "deadline": np.asarray(deadlines, dtype=np.float64),
        },
    )
    return tasks
