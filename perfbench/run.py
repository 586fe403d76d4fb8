"""The repository benchmark: cold runs of one workload, checked and measured.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-figures --seed 0 --seconds 30 --trace 0

Every sample is a fresh interpreter (``child.py``) started with BLAS and
OpenMP pinned to one thread, so each one pays the program's real cold
start.  ``--trace 0`` repeats untimed-setup + timed-run samples until the
next one would overrun ``--seconds``, adds set-up-only samples until there
are five set-up samples, and reports the end-to-end metrics:

- ``setup_s``: interpreter start, ``repro`` imports, worker-pool start and
  input construction, up to the first timed call (median of all samples);
- ``wall_s``: the timed closed loop (median);
- ``peak_rss_mb``: high-water RSS of the process plus its pool workers
  (median);
- ``decision_p50_ms`` / ``decision_p95_ms``: latency of each client call,
  from the raw samples of every run (see README.md for what a call is in
  each workload).

Times are in reference seconds: each sample's times are scaled by how
much slower than idle the host ran, from a kernel sampled during the run
(``speed.py``); set-up times by a fixed CPU probe taken right after
set-up (README.md).

``--trace 1`` runs one untraced sample and then traced samples, and
reports the per-layer metrics (README.md).  ``error_rate`` is
``failed / attempted`` of the result line.

The correctness gate covers every sample: outputs checked inside the
sample (published figures, tile totals, C1–C3 of every planning
decision), digests that must agree between samples and with earlier runs
of the same seed and code in this checkout (kept in ``.perfbench/``), and the work counts that must repeat exactly.  Any failure prints the result with
``"correct": false`` and exits 1.  The last line of standard output is
always the JSON result; everything before it is a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("paper-figures", "city-8shard", "online-faults")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A run must end within this many seconds, samples included.
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
#: Time of ``child.probe_s`` on the machine the reference seconds refer to
#: (2 vCPUs at 2.0 GHz, Python 3.11, NumPy with one BLAS thread, idle host).
PROBE_REF_S = 0.028
#: Median ``speed.SpeedSampler`` kernel time on the same machine, idle.
SPEED_REF_S = 0.0009


class BenchError(RuntimeError):
    """A sample could not run (crash, timeout, missing program)."""


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of raw samples (linear interpolation, inclusive)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_sample(
    workload: str,
    seed: int,
    size: str,
    trace: bool,
    setup_only: bool,
    timeout_s: float,
) -> Dict[str, Any]:
    """Start ``child.py`` in a fresh interpreter and parse its result."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--size", size, "--trace", "1" if trace else "0",
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0-ns", str(time.perf_counter_ns())]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample exceeded {timeout_s:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{workload} sample exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} sample printed nothing")
    return json.loads(lines[-1])


def code_hash() -> str:
    """Digest of the program and benchmark source: state from other code
    is ignored."""
    digest = hashlib.sha256()
    sources = list((ROOT / "src" / "repro").rglob("*.py")) + list(HERE.glob("*.py"))
    for path in sorted(sources):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _load_state(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def check_repeats(
    samples: Sequence[Dict[str, Any]], previous: Optional[Dict[str, Any]]
) -> List[str]:
    """Digests and exact work counts must agree across samples and runs."""
    failures = []
    reference = previous or {
        "digest": samples[0]["digest"], "counts": _exact_counts(samples[0])
    }
    for index, sample in enumerate(samples):
        if sample["digest"] != reference["digest"]:
            failures.append(f"sample {index}: output digest differs from an earlier run")
        counts = _exact_counts(sample)
        moved = sorted(
            name for name in set(counts) | set(reference["counts"])
            if counts.get(name) != reference["counts"].get(name)
        )
        if moved:
            failures.append(f"sample {index}: exact work counts moved: {moved}")
    return failures


def _exact_counts(sample: Dict[str, Any]) -> Dict[str, float]:
    skip = set(sample["scheduling_counts"])
    return {k: v for k, v in sample["counts"].items() if k not in skip}


def slowdown(sample: Dict[str, Any]) -> float:
    """How much slower than the reference machine the timed run ran, from
    the kernel sampled during it (README)."""
    return sample["speed_s"] / SPEED_REF_S


def call_slowdowns(sample: Dict[str, Any]) -> List[float]:
    """How much slower than the reference machine each call ran, from the
    kernel sampled during or around it."""
    return [speed / SPEED_REF_S for speed in sample["calls_speed_s"]]


def end_to_end(
    samples: Sequence[Dict[str, Any]], setups: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics in reference seconds, medians or raw quantiles.

    Each sample's times are divided by its slowdown (:func:`slowdown`),
    which takes out the machine's speed at the time of the sample.
    """
    calls = [
        c / d for s in samples for c, d in zip(s["calls_s"], call_slowdowns(s))
    ]
    setup = [s["setup_s"] / (s["probe_s"] / PROBE_REF_S) for s in setups]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "wall_s": {
            "value": statistics.median(s["wall_s"] / slowdown(s) for s in samples),
            "unit": "s", "n": len(samples),
        },
        "peak_rss_mb": {
            "value": statistics.median(s["peak_rss_mb"] for s in samples),
            "unit": "MB", "n": len(samples),
        },
        "decision_p50_ms": {"value": quantile(calls, 0.50) * 1e3, "unit": "ms", "n": len(calls)},
        "decision_p95_ms": {"value": quantile(calls, 0.95) * 1e3, "unit": "ms", "n": len(calls)},
    }


def raw_times(
    samples: Sequence[Dict[str, Any]], setups: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """The same medians in plain seconds, the probe and the sampled
    kernel time, for the report."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "probe_ms": statistics.median(s["probe_s"] * 1e3 for s in setups),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "steal_s": sum(s["steal_s"] for s in samples),
        "speed_ms": statistics.median(s["speed_s"] * 1e3 for s in samples),
    }


#: Per-layer metrics that are ratios; the rest are seconds (names ending
#: in ``_s`` or ``.s``) or counts.
_RATIOS = (
    "trace.overhead_frac",
    "lp.iterations_per_solve",
    "lp_cache.hit_ratio",
    "parallel.utilization",
)


def _unit(name: str) -> str:
    if name in _RATIOS:
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer(
    untraced: Sequence[Dict[str, Any]], traced: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: means over the traced samples.

    Means keep the identity of each sample: the self times plus
    ``other_s`` sum to ``trace.wall_s``.
    """
    names = list(traced[0]["layers"])
    out: Dict[str, Dict[str, Any]] = {}
    for name in names:
        value = statistics.fmean(s["layers"][name] for s in traced)
        out[name] = {"value": value, "unit": _unit(name), "n": len(traced)}
    everything = list(untraced) + list(traced)
    out["setup.import_s"] = {
        "value": statistics.median(s["import_s"] for s in everything), "unit": "s",
        "n": len(everything),
    }
    out["setup.inputs_s"] = {
        "value": statistics.median(s["inputs_s"] for s in everything), "unit": "s",
        "n": len(everything),
    }
    out["parallel.pool_start_s"] = {
        "value": statistics.median(s["pool_start_s"] for s in everything), "unit": "s",
        "n": len(everything),
    }
    plain = statistics.median(s["wall_s"] for s in untraced)
    out["trace.overhead_frac"] = {
        "value": out["trace.wall_s"]["value"] / plain - 1.0, "unit": "ratio",
        "n": len(traced),
    }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the same workloads on small inputs, for the benchmark's tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)

    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    last_s = 0.0

    def sample(trace: bool = False, setup_only: bool = False) -> Dict[str, Any]:
        nonlocal last_s
        begin = time.perf_counter()
        result = run_sample(
            args.workload, args.seed, args.size, trace, setup_only, remaining()
        )
        last_s = time.perf_counter() - begin
        return result

    def another_fits() -> bool:
        # One more sample like the last one still ends within --seconds.
        elapsed = time.perf_counter() - started
        return elapsed + last_s <= min(args.seconds, DEADLINE_S - 10.0)

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        untraced.append(sample())
        if args.trace:
            traced.append(sample(trace=True))
            while another_fits():
                traced.append(sample(trace=True))
        else:
            while another_fits():
                untraced.append(sample())
        setups = list(untraced)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(sample(setup_only=True))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = untraced + traced
    failures = [f for s in samples for f in s["failures"]]
    state_path = (
        STATE_DIR / f"{args.workload}-{args.size}-seed{args.seed}-{code_hash()}.json"
    )
    failures += check_repeats(samples, _load_state(state_path))
    if not failures:
        STATE_DIR.mkdir(exist_ok=True)
        first = samples[0]
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(
            {"digest": first["digest"], "counts": _exact_counts(first)}, sort_keys=True
        ))
        tmp.replace(state_path)

    metrics = (
        per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    )
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "samples": len(samples), "traced_samples": len(traced),
        "error_rate": failed / attempted if attempted else 0.0,
        "env": samples[0]["env"], "extra": samples[0]["extra"],
        "counts": samples[0]["counts"],
        "counts_scheduling_dependent": samples[0]["scheduling_counts"],
        "digest": samples[0]["digest"], "failures": failures,
        "metrics": metrics,
        "raw": raw_times(untraced, setups),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']:6s} n={metric['n']}")
    print(f"{'error_rate':34s} {report['error_rate']:14.6g} ratio  n={attempted}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
