"""Benchmark-side span tracing and wall-time attribution.

The benchmark adds no spans inside ``src/repro``.  Instead, a traced run
replaces each layer's public functions with thin wrappers that record a
span around every call.  A function is wrapped under every name its
callers look it up by: several modules bind functions with
``from x import f``, so :func:`install` scans every loaded ``repro``
module for attributes that are the original function object and rebinds
each of them.

Spans recorded inside pool workers travel back to the parent on the
program's own :class:`~repro.context.Telemetry` sink: the wrapped worker
entry point appends them to the ``spans`` log it already returns, and the
parent's existing merge gives each worker call its own track.  Workers
are forked after :func:`install`, so they inherit the wrappers.

Attribution (:func:`attribute`) turns spans into self times that sum to
the traced wall exactly:

- within one lane (the parent process, or one worker call) each instant
  belongs to the innermost open span — its self time;
- while any worker lane is busy, the parent lane is blocked inside the
  dispatch span that submitted the work, and that instant belongs to the
  worker spans instead (they are the dispatch span's children);
- an instant shared by several busy worker lanes is split evenly between
  them, so two workers running for one second attribute one second, not
  two.

With one lane this is the usual self time: a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKER_SPAN = "parallel.worker"
DISPATCH_SPAN = "parallel.dispatch"
ROOT_SPAN = "other"

#: Every wrapped function, by span name.  Targets are ``module:qualname``
#: of the defining module; :func:`install` rebinds every alias too.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "workload.generate": ("repro.workload.generator:generate_scenario",),
    "sharded.views": (
        "repro.workload.streaming:generate_tile",
        "repro.system.sharding:ShardedSystem.views",
    ),
    "costs": (
        "repro.core.costs:cluster_costs",
        "repro.core.costs:task_costs",
    ),
    "lp_builder": (
        "repro.core.lp_builder:build_p2",
        "repro.core.lp_builder:build_p2_structured",
    ),
    "lp.solve": (
        "repro.lp.structured:solve_structured",
        "repro.lp.structured:solve_structured_batch",
        "repro.lp.backends:solve",
        "repro.lp.interior_point:solve_interior_point_batch",
    ),
    "lp_cache": (
        "repro.caching.lp_cache:fingerprint_problem",
        "repro.caching.lp_cache:fingerprint_grouped",
        "repro.caching.lp_cache:LPSolveCache.lookup",
        "repro.caching.lp_cache:LPSolveCache.insert",
        "repro.caching.lp_cache:LPSolveCache.lookup_batch",
        "repro.caching.lp_cache:LPSolveCache.insert_batch",
    ),
    "hta": (
        "repro.core.hta:lp_hta",
        "repro.core.hta:lp_hta_batch",
        "repro.core.hta:lp_hta_cluster",
    ),
    "baselines": (
        "repro.core.baselines:hgos",
        "repro.core.baselines:all_to_cloud",
        "repro.core.baselines:all_offload",
        "repro.core.baselines:local_first",
        "repro.core.baselines:random_assignment",
        "repro.core.game:best_response_offloading",
    ),
    "assignment.stats": ("repro.core.assignment:Assignment.stats",),
    "dta.coverage": (
        "repro.dta.accounting:prepare_dta",
        "repro.dta.coverage:dta_workload",
        "repro.dta.coverage:dta_number",
    ),
    "dta.rearrange": ("repro.dta.rearrange:rearrange_tasks",),
    "dta.accounting": (
        "repro.dta.accounting:run_dta",
        "repro.dta.accounting:evaluate_plans",
        "repro.dta.accounting:evaluate_plan",
    ),
    "des.replay": ("repro.des.replay:replay_assignment",),
    "recovery.detect": ("repro.faults.recovery:detect_threats",),
    "recovery.apply": ("repro.faults.recovery:apply_recovery",),
    "mobility.attach": (
        "repro.mobility.handover:attachment_at",
        "repro.online.scheduler:_rebuild",
    ),
    "online.plan": (
        "repro.online.scheduler:simulate_online",
        "repro.registry:resolve_assignment",
    ),
    DISPATCH_SPAN: (
        "repro.experiments.parallel:run_cells",
        "repro.experiments.parallel:run_tiles",
    ),
}

#: Pool entry points: their spans open a worker lane (see module doc).
WORKER_ENTRIES: Tuple[str, ...] = (
    "repro.experiments.parallel:_evaluate_column_with_telemetry",
    "repro.experiments.parallel:_evaluate_tiles_with_telemetry",
)
#: Attribute marking span records that this module appended to a worker's
#: telemetry (the program's own tracer never sets it).
_MARK = ("perfbench", 1)

#: Per-call extra counts, keyed by the wrapped target.
_COUNTERS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "repro.core.hta:lp_hta_cluster": lambda result: {
        "cancelled": len(result[1].cancelled_tasks)
    },
}

Span = Tuple[str, float, float, int, Tuple[Tuple[str, Any], ...]]


class Recorder:
    """Spans of one process: ``(name, start, end, depth, attrs)``."""

    def __init__(self) -> None:
        self.depth = 0
        self.spans: List[Span] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counter: Optional[Callable[[Any], Dict[str, int]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth = self.depth
            self.depth = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.depth = depth
            attrs = tuple(sorted(counter(result).items())) if counter else ()
            self.spans.append((name, start, end, depth, attrs))
            return result

        return wrapper

    def wrap_worker_entry(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a pool entry point so its spans ride back on its telemetry.

        The call is the top of a worker lane: the recorder starts empty and
        everything recorded during the call is appended to the returned
        telemetry's span log.
        """
        from repro.obs.spans import SpanRecord

        @functools.wraps(fn)
        def entry(cells: Any) -> Any:
            self.spans = []
            self.depth = 1
            start = time.perf_counter()
            results, telemetry = fn(cells)
            end = time.perf_counter()
            self.depth = 0
            self.spans.append((WORKER_SPAN, start, end, 0, ()))
            for name, s, e, depth, attrs in self.spans:
                telemetry.spans.append(
                    SpanRecord(
                        name=name, start_s=s, duration_s=e - s, depth=depth,
                        track=0, attrs=(_MARK,) + attrs,
                    )
                )
            self.spans = []
            return results, telemetry

        return entry


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _import_all_repro() -> None:
    """Import every ``repro`` submodule so alias scanning sees them all."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(recorder: Recorder) -> int:
    """Wrap every layer function under all its names; returns the count.

    Must run before worker pools start (fork inherits the wrappers).
    """
    _import_all_repro()
    modules = [
        module for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    plan: List[Tuple[Any, str, Callable[..., Any]]] = []
    for name, targets in LAYER_TARGETS.items():
        for target in targets:
            plan.append((target, name, recorder.wrap(
                name, _resolve(target)[2], _COUNTERS.get(target)
            )))
    for target in WORKER_ENTRIES:
        plan.append(
            (target, WORKER_SPAN, recorder.wrap_worker_entry(_resolve(target)[2]))
        )
    rebound = 0
    for target, _, wrapper in plan:
        owner, attr, original = _resolve(target)
        if isinstance(owner, type):
            # Methods are looked up on the class; one rebinding covers all.
            setattr(owner, attr, wrapper)
            rebound += 1
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    rebound += 1
    return rebound


def worker_spans(telemetry: Any) -> Dict[int, List[Span]]:
    """Spans that workers shipped back, grouped into lanes by track."""
    lanes: Dict[int, List[Span]] = defaultdict(list)
    for record in telemetry.spans:
        if _MARK not in record.attrs:
            continue
        attrs = tuple(a for a in record.attrs if a != _MARK)
        lanes[record.track].append(
            (
                record.name, record.start_s,
                record.start_s + record.duration_s, record.depth, attrs,
            )
        )
    return dict(lanes)


def _leaf_segments(spans: Sequence[Span]) -> List[Tuple[float, float, str]]:
    """Split one lane's nested spans into innermost-span segments."""
    ordered = sorted(spans, key=lambda s: (s[1], -s[2], s[3]))
    out: List[Tuple[float, float, str]] = []
    # Stack entries: [name, end, cursor] — cursor is where the span's
    # uncovered time resumes after its latest child.
    stack: List[List[Any]] = []

    def close_until(t: float) -> None:
        while stack and stack[-1][1] <= t:
            name, end, cursor = stack.pop()
            if end > cursor:
                out.append((cursor, end, name))
            if stack:
                stack[-1][2] = max(stack[-1][2], end)

    for name, start, end, _depth, _attrs in ordered:
        close_until(start)
        if stack and start > stack[-1][2]:
            out.append((stack[-1][2], start, stack[-1][0]))
            stack[-1][2] = start
        stack.append([name, end, start])
    close_until(float("inf"))
    return out


def attribute(
    parent: Sequence[Span], workers: Dict[int, Sequence[Span]]
) -> Dict[str, float]:
    """Self time per span name; the values sum to the parent root's span.

    See the module docstring for the rules.  ``parent`` must contain one
    outermost span (the timed run, named :data:`ROOT_SPAN`).
    """
    events: List[Tuple[float, int, int, str]] = []
    for start, end, name in _leaf_segments(parent):
        events.append((start, 1, 0, name))
        events.append((end, -1, 0, name))
    for spans in workers.values():
        for start, end, name in _leaf_segments(spans):
            events.append((start, 1, 1, name))
            events.append((end, -1, 1, name))
    # Closings sort before openings at equal times: zero-length overlaps
    # never count as shared time.
    events.sort(key=lambda e: (e[0], e[1]))
    active: List[Dict[str, int]] = [defaultdict(int), defaultdict(int)]
    busy = [0, 0]
    totals: Dict[str, float] = defaultdict(float)
    last: Optional[float] = None
    for t, delta, lane, name in events:
        if last is not None and t > last:
            dt = t - last
            # Worker lanes win; the parent lane counts only when no worker
            # is busy.  Each lane-type has at most one parent segment
            # active, and k worker segments split the instant k ways.
            holders = active[1] if busy[1] else active[0]
            count = busy[1] if busy[1] else busy[0]
            if count:
                share = dt / count
                for holder, n in holders.items():
                    if n:
                        totals[holder] += share * n
        active[lane][name] += delta
        busy[lane] += delta
        last = t
    return dict(totals)
