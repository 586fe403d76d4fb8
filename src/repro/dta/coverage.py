"""Data-division algorithms: optimal coverages of the shared data D.

Section IV divides the queried data :math:`D` into disjoint per-device
subsets :math:`C_i \\subseteq UD_i = D \\cap D_i` so every device only
touches data it already owns (no raw-data transmission).  Two greedy
objectives:

- **DTA-Workload** (Definition 1, Section IV-A): minimise
  :math:`\\max_i |C_i|` — balance the per-device workload.  The paper's
  greedy repeatedly picks the device with the *smallest* non-empty remaining
  coverage and gives it all of it.  (As printed, the argmin would loop
  forever on devices with empty coverage; restricting to non-empty sets is
  the only terminating reading — see DESIGN.md.)
- **DTA-Number** (Definition 2, Section IV-B): minimise the number of
  involved devices — the classic greedy Set Cover (pick the device covering
  the most remaining items), ratio :math:`O(\\ln n)`.

Exact solvers for both objectives are included for small instances, so the
test suite and the ablation benches can measure the greedy algorithms'
empirical ratios: min–max coverage via binary search over a max-flow
feasibility problem, and minimum set number via subset enumeration.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.context import current_context
from repro.data.items import DataCatalog
from repro.data.ownership import OwnershipMap
from repro.obs.tracer import staged

__all__ = [
    "Coverage",
    "dta_number",
    "dta_number_naive",
    "dta_workload",
    "dta_workload_naive",
    "exact_min_max_coverage",
    "exact_min_set_number",
]


@dataclass(frozen=True)
class Coverage:
    """A disjoint per-device division of a data universe.

    :param universe: D, the items that had to be covered.
    :param sets: device id → the items it processes (only non-empty sets).
    """

    universe: FrozenSet[int]
    sets: Mapping[int, FrozenSet[int]]

    def __post_init__(self) -> None:
        for device_id, items in self.sets.items():
            if not items:
                raise ValueError(f"device {device_id} has an empty coverage set")

    @property
    def involved_devices(self) -> int:
        """Number of devices that process at least one item."""
        return len(self.sets)

    def max_set_size(self) -> int:
        """:math:`\\max_i |C_i|` — the Definition 1 objective."""
        if not self.sets:
            return 0
        return max(len(items) for items in self.sets.values())

    def max_set_bytes(self, catalog: DataCatalog) -> float:
        """Largest per-device coverage in bytes."""
        if not self.sets:
            return 0.0
        return max(catalog.total_bytes(items) for items in self.sets.values())

    def device_of(self, item_id: int) -> Optional[int]:
        """The device assigned item ``item_id`` (None if outside D)."""
        for device_id, items in self.sets.items():
            if item_id in items:
                return device_id
        return None

    def violations(self, ownership: OwnershipMap) -> List[str]:
        """Definition 1/2 structural checks; empty list means valid.

        Checks (1) each set is owned by its device, (2) sets are disjoint,
        and (2') their union is exactly the universe.
        """
        problems: List[str] = []
        seen: Dict[int, int] = {}
        for device_id, items in self.sets.items():
            extra = items - ownership.items_of(device_id)
            if extra:
                problems.append(
                    f"device {device_id} assigned items it does not own: {sorted(extra)[:5]}"
                )
            outside = items - self.universe
            if outside:
                problems.append(
                    f"device {device_id} assigned items outside D: {sorted(outside)[:5]}"
                )
            for item in items:
                if item in seen:
                    problems.append(
                        f"item {item} assigned to both {seen[item]} and {device_id}"
                    )
                seen[item] = device_id
        missing = self.universe - set(seen)
        if missing:
            problems.append(f"uncovered items: {sorted(missing)[:5]}")
        return problems


def _require_coverable(universe: FrozenSet[int], ownership: OwnershipMap) -> None:
    """The universe must be jointly owned, or no coverage exists."""
    missing = ownership.uncovered(universe)
    if missing:
        raise ValueError(
            f"universe has {len(missing)} items owned by no device "
            f"(e.g. {sorted(missing)[:5]}); no coverage exists"
        )


def dta_workload_naive(
    universe: FrozenSet[int], ownership: OwnershipMap
) -> Coverage:
    """DTA-Workload greedy, per-round full rescan (the reference path).

    Each round recomputes every unselected device's remaining coverage and
    picks the smallest non-empty one — O(rounds × devices) set
    intersections.  :func:`dta_workload` routes here in reference mode; the
    optimised path maintains the coverages incrementally instead.
    """
    _require_coverable(universe, ownership)
    remaining = set(universe)
    sets: Dict[int, FrozenSet[int]] = {}
    # Sorted device ids make argmin ties deterministic.
    device_ids = sorted(ownership.device_ids)
    while remaining:
        best_device = None
        best_items: FrozenSet[int] = frozenset()
        best_size = None
        for device_id in device_ids:
            if device_id in sets:
                continue
            items = ownership.items_of(device_id) & remaining
            if not items:
                continue
            if best_size is None or len(items) < best_size:
                best_device, best_items, best_size = device_id, frozenset(items), len(items)
        if best_device is None:  # pragma: no cover - guarded by _require_coverable
            raise RuntimeError("uncoverable remainder despite coverable universe")
        sets[best_device] = best_items
        remaining -= best_items
    return Coverage(universe=frozenset(universe), sets=sets)


def _dta_workload_lazy(
    universe: FrozenSet[int], ownership: OwnershipMap
) -> Coverage:
    """DTA-Workload via incremental coverages and a size-keyed lazy heap.

    Instead of re-intersecting every device against ``remaining`` each
    round, the per-device remaining coverages are maintained in place: when
    a device is selected, its items are removed from the other owners'
    coverages through an inverted item → owners index, and each shrunken
    device is re-keyed on a ``(size, device_id)`` min-heap.  Entries whose
    recorded size no longer matches the device's current coverage are stale
    and skipped on pop.  Total work is O(Σ_i |UD_i| log) instead of the
    rescan's O(rounds × devices) intersections.

    The heap key ``(size, device_id)`` reproduces the reference argmin
    exactly: smallest coverage first, ties to the smallest device id, so
    the selection sequence — and therefore the output — is identical to
    :func:`dta_workload_naive`.
    """
    _require_coverable(universe, ownership)
    remaining = set(universe)
    sets: Dict[int, FrozenSet[int]] = {}
    current: Dict[int, Set[int]] = {}
    owners: Dict[int, List[int]] = {}
    for device_id in sorted(ownership.device_ids):
        items = ownership.items_of(device_id) & remaining
        if items:
            current[device_id] = set(items)
            for item in items:
                owners.setdefault(item, []).append(device_id)
    heap = [(len(items), device_id) for device_id, items in current.items()]
    heapq.heapify(heap)
    while remaining:
        if not heap:  # pragma: no cover - guarded by _require_coverable
            raise RuntimeError("uncoverable remainder despite coverable universe")
        size, device_id = heapq.heappop(heap)
        items = current.get(device_id)
        if items is None or len(items) != size:
            continue  # stale: device selected/emptied or coverage shrank
        taken = frozenset(items)
        sets[device_id] = taken
        del current[device_id]
        remaining -= taken
        affected = set()
        for item in taken:
            for other in owners.pop(item):
                other_items = current.get(other)
                if other_items is not None:
                    other_items.discard(item)
                    affected.add(other)
        for other in affected:
            other_items = current[other]
            if other_items:
                heapq.heappush(heap, (len(other_items), other))
            else:
                del current[other]  # empty coverages are never selectable
    return Coverage(universe=frozenset(universe), sets=sets)


@staged("dta")
def dta_workload(universe: FrozenSet[int], ownership: OwnershipMap) -> Coverage:
    """DTA-Workload greedy (Section IV-A): smallest non-empty coverage first.

    Routes to the incremental lazy-heap implementation, or to the per-round
    rescan reference (:func:`dta_workload_naive`) in reference mode.  Both
    produce the identical coverage.

    :param universe: D, the items to divide.
    :param ownership: per-device holdings.
    :returns: a valid coverage.
    :raises ValueError: if some item of D is owned by nobody.
    """
    if current_context().reference:
        return dta_workload_naive(universe, ownership)
    return _dta_workload_lazy(universe, ownership)


def dta_number_naive(
    universe: FrozenSet[int], ownership: OwnershipMap
) -> Coverage:
    """DTA-Number greedy, per-round full rescan (the reference path).

    Each round recomputes every unselected device's marginal coverage and
    picks the largest.  :func:`dta_number` routes here in reference mode;
    the optimised path uses CELF-style lazy evaluation instead.
    """
    _require_coverable(universe, ownership)
    remaining = set(universe)
    sets: Dict[int, FrozenSet[int]] = {}
    device_ids = sorted(ownership.device_ids)
    while remaining:
        best_device = None
        best_items: FrozenSet[int] = frozenset()
        for device_id in device_ids:
            if device_id in sets:
                continue
            items = ownership.items_of(device_id) & remaining
            if len(items) > len(best_items):
                best_device, best_items = device_id, frozenset(items)
        if best_device is None:  # pragma: no cover - guarded by _require_coverable
            raise RuntimeError("uncoverable remainder despite coverable universe")
        sets[best_device] = best_items
        remaining -= best_items
    return Coverage(universe=frozenset(universe), sets=sets)


def _dta_number_lazy(
    universe: FrozenSet[int], ownership: OwnershipMap
) -> Coverage:
    """DTA-Number with CELF-style lazy marginal-gain evaluation.

    The classic accelerated greedy for submodular maximisation (Leskovec et
    al., KDD 2007): cached gains are upper bounds because marginal coverage
    only shrinks as ``remaining`` does, so a max-heap entry re-evaluated at
    the top of the heap that *stays* on top is the true argmax — most
    devices are never re-evaluated at all.  The O(ln n) approximation
    argument of Algorithm 1 depends only on picking a max-gain device each
    round, which this does.

    The heap key ``(-gain, device_id)`` reproduces the reference argmax
    exactly (largest gain, ties to the smallest device id), so the
    selection sequence — and the output — is identical to
    :func:`dta_number_naive`.
    """
    _require_coverable(universe, ownership)
    remaining = set(universe)
    sets: Dict[int, FrozenSet[int]] = {}
    items_of = ownership.items_of
    heap = []
    for device_id in sorted(ownership.device_ids):
        items = items_of(device_id) & remaining
        if items:
            # (neg gain, device id, evaluation stamp, evaluated coverage);
            # device_id is unique, so later fields never enter comparisons.
            heap.append((-len(items), device_id, 0, frozenset(items)))
    heapq.heapify(heap)
    rounds = 0
    while remaining:
        if not heap:  # pragma: no cover - guarded by _require_coverable
            raise RuntimeError("uncoverable remainder despite coverable universe")
        _, device_id, stamp, items = heapq.heappop(heap)
        if stamp == rounds:  # gain evaluated against the current remainder
            sets[device_id] = items
            remaining -= items
            rounds += 1
            continue
        fresh = items_of(device_id) & remaining
        if fresh:
            heapq.heappush(heap, (-len(fresh), device_id, rounds, frozenset(fresh)))
    return Coverage(universe=frozenset(universe), sets=sets)


@staged("dta")
def dta_number(universe: FrozenSet[int], ownership: OwnershipMap) -> Coverage:
    """DTA-Number greedy (Section IV-B, Algorithm 1): greedy Set Cover.

    Routes to the CELF lazy-greedy implementation, or to the per-round
    rescan reference (:func:`dta_number_naive`) in reference mode.  Both
    produce the identical coverage.

    :param universe: D, the items to divide.
    :param ownership: per-device holdings.
    :returns: a valid coverage using few devices (ratio O(ln n)).
    :raises ValueError: if some item of D is owned by nobody.
    """
    if current_context().reference:
        return dta_number_naive(universe, ownership)
    return _dta_number_lazy(universe, ownership)


def _maxflow_feasible(
    universe: Tuple[int, ...],
    ownership: OwnershipMap,
    device_ids: Tuple[int, ...],
    cap: int,
) -> Optional[Dict[int, FrozenSet[int]]]:
    """Assignment with every device handling ≤ cap items, via max-flow.

    Returns the per-device sets if a full assignment exists, else None.
    """
    graph = nx.DiGraph()
    source, sink = "s", "t"
    for item in universe:
        graph.add_edge(source, ("item", item), capacity=1)
    for device_id in device_ids:
        graph.add_edge(("dev", device_id), sink, capacity=cap)
    for item in universe:
        for owner in ownership.owners_of(item):
            if owner in device_ids:
                graph.add_edge(("item", item), ("dev", owner), capacity=1)
    value, flow = nx.maximum_flow(graph, source, sink)
    if value < len(universe):
        return None
    sets: Dict[int, set] = {}
    for item in universe:
        for target, amount in flow[("item", item)].items():
            if amount > 0 and isinstance(target, tuple) and target[0] == "dev":
                sets.setdefault(target[1], set()).add(item)
    return {device: frozenset(items) for device, items in sets.items() if items}


def exact_min_max_coverage(
    universe: FrozenSet[int], ownership: OwnershipMap
) -> Coverage:
    """Exact solution of P3 (min–max coverage size), via flow feasibility.

    Binary-searches the optimal ``maxsize`` and certifies each candidate
    with a bipartite max-flow (item → owning device, device capacity =
    maxsize).  Exponential nowhere — usable at moderate sizes — but the
    greedy is the algorithm under study; this is the measuring stick.

    :param universe: D, the items to divide.
    :param ownership: per-device holdings.
    :raises ValueError: if some item of D is owned by nobody.
    """
    _require_coverable(universe, ownership)
    items = tuple(sorted(universe))
    if not items:
        return Coverage(universe=frozenset(), sets={})
    device_ids = tuple(sorted(ownership.device_ids))
    low, high = 1, len(items)
    best: Optional[Dict[int, FrozenSet[int]]] = None
    while low <= high:
        mid = (low + high) // 2
        sets = _maxflow_feasible(items, ownership, device_ids, mid)
        if sets is not None:
            best = sets
            high = mid - 1
        else:
            low = mid + 1
    if best is None:  # pragma: no cover - cap=len(items) is always feasible
        raise RuntimeError("flow certification failed unexpectedly")
    return Coverage(universe=frozenset(universe), sets=best)


def exact_min_set_number(
    universe: FrozenSet[int],
    ownership: OwnershipMap,
    max_devices: int = 20,
) -> Coverage:
    """Exact minimum-set-number coverage by subset enumeration (small n).

    :param universe: D, the items to divide.
    :param ownership: per-device holdings.
    :param max_devices: refuse instances with more candidate devices.
    :raises ValueError: if uncoverable, or too many devices to enumerate.
    """
    _require_coverable(universe, ownership)
    if not universe:
        return Coverage(universe=frozenset(), sets={})
    candidates = [
        device_id
        for device_id in sorted(ownership.device_ids)
        if ownership.items_of(device_id) & universe
    ]
    if len(candidates) > max_devices:
        raise ValueError(
            f"{len(candidates)} candidate devices exceeds the enumeration "
            f"limit ({max_devices}); use dta_number"
        )
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            union = frozenset()
            for device_id in combo:
                union |= ownership.items_of(device_id) & universe
            if union >= universe:
                # Materialise disjoint sets: first owner in the combo wins.
                remaining = set(universe)
                sets: Dict[int, FrozenSet[int]] = {}
                for device_id in combo:
                    take = ownership.items_of(device_id) & remaining
                    if take:
                        sets[device_id] = frozenset(take)
                        remaining -= take
                return Coverage(universe=frozenset(universe), sets=sets)
    raise RuntimeError("unreachable: coverable universe with no covering subset")
