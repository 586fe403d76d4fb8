"""One cold run of one workload, in the fresh interpreter it was started in.

``run.py`` starts this script once per sample and reads the JSON object it
prints as its last line.  The script imports the program the way
``mecrepro`` does, sets the workload up, times the closed loop, tears it
down and checks the outputs.  ``--setup-only`` stops before the timed run
(a set-up sample); ``--trace 1`` wraps every layer (see ``tracing.py``)
and reports the attributed self times.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload online-faults --seed 0 \\
        --t0-ns "$(python3 -c 'import time; print(time.perf_counter_ns())')"
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Any, Dict, List

import tracing
from run import THREADS
from speed import SpeedSampler, clock
from workloads import FULL, TINY, WORKLOADS, Outcome, vm_hwm_mb, work_counts


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    from repro.des import HAVE_NUMBA
    from repro.experiments.parallel import _mp_context

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numba": bool(HAVE_NUMBA),
        "start_method": _mp_context(None).get_start_method(),
        "threads": {name: os.environ.get(name) for name in THREADS},
    }


def probe_s(rounds: int = 5) -> float:
    """Seconds a fixed CPU probe (interpreter loop plus NumPy) takes now.

    Median of ``rounds`` after one warm-up round; the probe is the same
    code on every commit, so its time tracks only the machine's speed.
    """
    import numpy as np

    times = []
    for _ in range(rounds + 1):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(150_000):
            acc += (i * i) % 7
            table[i & 1023] = acc
        values = np.arange(1.0, 40_001.0)
        for _ in range(60):
            values = np.sqrt(values * 1.0001 + 1.0)
            values.sort()
        times.append(time.perf_counter() - start)
    return sorted(times[1:])[rounds // 2]


def _steal_ticks() -> int:
    """Machine-wide CPU time stolen by the hypervisor so far, in ticks."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


#: Span name → the metric holding its self time.  These metrics sum to
#: ``trace.wall_s``.
SELF_TIME_METRICS = {
    tracing.ROOT_SPAN: "other_s",
    "workload.generate": "workload.generate_s",
    "sharded.views": "sharded.views_s",
    "costs": "costs.s",
    "lp_builder": "lp_builder.s",
    "lp.solve": "lp.solve_s",
    "lp_cache": "lp_cache.s",
    "hta": "hta.self_s",
    "baselines": "baselines.s",
    "assignment.stats": "assignment.stats_s",
    "dta.coverage": "dta.coverage_s",
    "dta.rearrange": "dta.rearrange_s",
    "dta.accounting": "dta.accounting_s",
    "des.replay": "des.replay_s",
    "recovery.detect": "recovery.detect_s",
    "recovery.apply": "recovery.apply_s",
    "mobility.attach": "mobility.attach_s",
    "online.plan": "online.plan_s",
    tracing.DISPATCH_SPAN: "parallel.dispatch_s",
    tracing.WORKER_SPAN: "parallel.worker_s",
}

#: Span name → the metric counting its calls.
CALL_METRICS = {
    "workload.generate": "workload.scenarios",
    "costs": "costs.calls",
    "lp_builder": "lp_builder.blocks",
    "dta.rearrange": "dta.calls",
    "des.replay": "des.replays",
}

#: Every rung ``repro.core.hta`` and ``repro.lp.backends`` can count.
FALLBACK_RUNGS = (
    "batch-to-sequential",
    "interior-point",
    "interior-point-dense",
    "simplex",
    "scipy",
    "greedy",
)


def layer_metrics(
    recorder: tracing.Recorder,
    root: tracing.Span,
    telemetry: Any,
    workers: int,
) -> Dict[str, float]:
    """The per-layer numbers of one traced run (see README.md)."""
    worker_lanes = tracing.worker_spans(telemetry)
    parent = list(recorder.spans) + [root]
    self_s = tracing.attribute(parent, worker_lanes)
    unattributed = set(self_s) - set(SELF_TIME_METRICS)
    if unattributed:
        raise RuntimeError(f"spans without a metric: {sorted(unattributed)}")
    spans = parent + [span for lane in worker_lanes.values() for span in lane]
    calls: Dict[str, int] = defaultdict(int)
    cancelled = 0
    for name, _, _, _, attrs in spans:
        calls[name] += 1
        cancelled += dict(attrs).get("cancelled", 0)
    worker_calls = [
        (start, end)
        for lane in worker_lanes.values()
        for name, start, end, _, _ in lane
        if name == tracing.WORKER_SPAN
    ]
    busy = sum(end - start for start, end in worker_calls)
    # Parent time inside dispatch calls that handed work to the pool.
    waited = sum(
        end - start
        for name, start, end, _, _ in recorder.spans
        if name == tracing.DISPATCH_SPAN
        and any(start <= t <= end for t, _ in worker_calls)
    )
    tel = telemetry
    counters = tel.metrics.counters
    lookups = (
        tel.cache_hits + tel.cache_misses + tel.batch_cache_hits + tel.batch_cache_misses
    )
    metrics: Dict[str, float] = {"trace.wall_s": root[2] - root[1]}
    metrics.update(
        (metric, self_s.get(span, 0.0)) for span, metric in SELF_TIME_METRICS.items()
    )
    metrics.update((metric, calls[span]) for span, metric in CALL_METRICS.items())
    metrics.update({
        "workload.memo_hits": tel.scenario_memo_hits,
        "workload.memo_misses": tel.scenario_memo_misses,
        "workload.array_bailouts": counters.get("generate.array_bailout", 0.0),
        "lp.solves": tel.solves,
        "lp.batch_solves": tel.batch_solves,
        "lp.batched_blocks": tel.batched_blocks,
        "lp.iterations": tel.lp_iterations,
        "lp.iterations_per_solve": tel.lp_iterations / tel.solves if tel.solves else 0.0,
        "lp.fallbacks": tel.lp_fallbacks,
        "lp_cache.hits": tel.cache_hits,
        "lp_cache.misses": tel.cache_misses,
        "lp_cache.batch_hits": tel.batch_cache_hits,
        "lp_cache.batch_misses": tel.batch_cache_misses,
        "lp_cache.hit_ratio": (
            (tel.cache_hits + tel.batch_cache_hits) / lookups if lookups else 0.0
        ),
        "hta.cancelled": cancelled,
        "des.events": counters.get("des.events", 0.0),
        "recovery.events": tel.faults_detected,
        "recovery.reassignments": tel.reassignments,
        "recovery.dropped": tel.tasks_dropped,
        "recovery.recovered": tel.tasks_recovered,
        "parallel.worker_busy_s": busy,
        "parallel.parent_wait_s": waited,
        "parallel.utilization": busy / (workers * waited) if waited else 0.0,
        "runtime.retries": tel.cell_retries,
        "runtime.quarantines": tel.cells_quarantined,
    })
    rungs = {
        name[len("lp.fallback."):] for name in counters if name.startswith("lp.fallback.")
    }
    if rungs - set(FALLBACK_RUNGS):
        raise RuntimeError(f"unlisted fallback rungs {sorted(rungs - set(FALLBACK_RUNGS))}")
    for rung in FALLBACK_RUNGS:
        metrics[f"lp.fallback.{rung}"] = counters.get(f"lp.fallback.{rung}", 0.0)
    return {name: float(value) for name, value in metrics.items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=(FULL, TINY), default=FULL)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--t0-ns", type=int, required=True,
        help="time.perf_counter_ns() of the parent just before it started "
        "this process (the start of set-up)",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.cli  # noqa: F401 - what ``mecrepro`` imports before any command

    import_s = time.perf_counter() - start
    workload = WORKLOADS[args.workload](args.size, traced=bool(args.trace))
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    state = workload.setup(args.seed)
    setup_s = (time.perf_counter_ns() - args.t0_ns) / 1e9
    result: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "setup_s": setup_s, "import_s": import_s,
        "pool_start_s": state.get("pool_start_s", 0.0),
        "inputs_s": state.get("inputs_s", 0.0),
        # Scales set-up time (run.py): taken right after set-up.
        "probe_s": probe_s(),
    }
    if args.setup_only:
        workload.close(state)
        print(json.dumps(result))
        return 0

    if recorder is not None:
        recorder.spans = []
    sampler = None
    setup_peak_mb = vm_hwm_mb()
    if recorder is None:
        # Traced times are reported as measured, unscaled.
        sampler = SpeedSampler()
    steal = _steal_ticks()
    cpu = time.process_time()
    with sampler or nullcontext():
        begin = clock()
        outcome: Outcome = workload.run(state)
        end = clock()
    cpu = time.process_time() - cpu
    steal = _steal_ticks() - steal
    peak = workload.peak_rss_mb(state)
    if sampler is not None:
        # Take the sampler's arrays, resident in this process from just
        # before the run on, out of this process's part of the peak.
        own = vm_hwm_mb()
        peak += max(setup_peak_mb, own - sampler.buffer_mb) - own
        result.update(
            speed_s=sampler.median_s(),
            speed_n=len(sampler.samples_s),
            calls_speed_s=sampler.call_medians_s(outcome.calls_start_s, outcome.calls_s),
        )
    workload.close(state)
    workload.finish(state, outcome)
    telemetry = state["ctx"].telemetry
    result.update(
        wall_s=end - begin,
        cpu_s=cpu,
        steal_s=steal / os.sysconf("SC_CLK_TCK"),
        peak_rss_mb=peak,
        calls_s=outcome.calls_s,
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.failures,
        digest=outcome.digest,
        counts=work_counts(telemetry),
        scheduling_counts=list(workload.scheduling_counts),
        extra=outcome.extra,
        env=environment(),
    )
    if recorder is not None:
        root = (tracing.ROOT_SPAN, begin, end, -1, ())
        result["layers"] = layer_metrics(
            recorder, root, telemetry, outcome.extra.get("workers", 1)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
