"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    """Last-line results of one untraced and one traced tiny run."""
    out = {}
    for trace in (0, 1):
        done = _bench(request.param, trace)
        assert done.returncode == 0, done.stderr
        out[trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return request.param, out


def test_result_line_has_every_metric_with_its_unit(results):
    _, out = results
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = out[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == want
        for metric in line["metrics"].values():
            assert math.isfinite(metric["value"])


def test_end_to_end_metrics_are_never_zero(results):
    _, out = results
    for metric in out[0]["metrics"].values():
        assert metric["value"] > 0


def test_self_times_and_other_sum_to_traced_wall(results):
    _, out = results
    metrics = {name: m["value"] for name, m in out[1]["metrics"].items()}
    assert metrics["other_s"] >= 0
    parts = [metrics[name] for name in child.SELF_TIME_METRICS.values()]
    assert all(part >= 0 for part in parts)
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_every_layer_span_has_a_self_time_metric():
    spans = set(tracing.LAYER_TARGETS) | {tracing.ROOT_SPAN, tracing.WORKER_SPAN}
    assert spans == set(child.SELF_TIME_METRICS)


def test_attribution_single_lane_is_self_time():
    spans = [
        ("other", 0.0, 10.0, -1, ()),
        ("hta", 1.0, 9.0, 0, ()),
        ("lp.solve", 2.0, 5.0, 1, ()),
        ("costs", 6.0, 7.0, 1, ()),
    ]
    got = tracing.attribute(spans, {})
    assert got == pytest.approx({"other": 2.0, "hta": 4.0, "lp.solve": 3.0, "costs": 1.0})


def test_attribution_splits_busy_workers_and_covers_dispatch():
    parent = [("other", 0.0, 10.0, -1, ()), ("parallel.dispatch", 1.0, 9.0, 0, ())]
    workers = {
        1: [("parallel.worker", 2.0, 6.0, 0, ()), ("lp.solve", 2.0, 5.0, 1, ())],
        2: [("parallel.worker", 4.0, 8.0, 0, ()), ("costs", 4.0, 8.0, 1, ())],
    }
    got = tracing.attribute(parent, workers)
    # 2-4: one worker solving; 4-5: solve and costs share; 5-6: worker glue
    # and costs share; 6-8: costs alone; dispatch keeps 1-2 and 8-9.
    assert got == pytest.approx({
        "other": 2.0, "parallel.dispatch": 2.0, "lp.solve": 2.5,
        "costs": 3.0, "parallel.worker": 0.5,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_figure_gate_rejects_a_perturbed_expected_series():
    from repro.experiments.figures import run_figure

    expected = json.loads(workloads.FIGURES_JSON.read_text())
    results = {"fig2b": run_figure("fig2b", seeds=(0, 1, 2), jobs=1)}
    assert workloads.check_figures(results, expected) == []
    perturbed = json.loads(json.dumps(expected))
    values = perturbed["fig2b"]["series"]["LP-HTA"]
    values[0] = math.nextafter(values[0], math.inf)
    failures = workloads.check_figures(results, perturbed)
    assert failures and "LP-HTA" in failures[0]


def test_repeat_gate_rejects_moved_digest_and_counts():
    sample = {
        "digest": {"energy": "1.0"}, "counts": {"solves": 5, "memo": 3},
        "scheduling_counts": ["memo"],
    }
    previous = {"digest": {"energy": "1.0"}, "counts": {"solves": 5}}
    assert run.check_repeats([sample], previous) == []
    moved_memo = dict(sample, counts={"solves": 5, "memo": 9})
    assert run.check_repeats([moved_memo], previous) == []
    moved = dict(sample, counts={"solves": 6, "memo": 3})
    assert run.check_repeats([moved], previous)
    changed = dict(sample, digest={"energy": "1.5"})
    assert run.check_repeats([changed], previous)


def test_decision_check_catches_an_overloaded_station():
    from repro.core.assignment import Assignment, Subsystem
    from repro.core.costs import cluster_costs
    from repro.workload import PAPER_DEFAULTS, generate_scenario

    scenario = generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=60), 0)
    tasks = list(scenario.tasks)
    costs = cluster_costs(scenario.system, tasks)
    everything_on_stations = Assignment(costs, [Subsystem.STATION] * len(tasks))
    assert workloads.decision_violations(scenario.system, everything_on_stations)


def test_sampler_gives_long_calls_their_own_speed_and_short_ones_the_nearest():
    sampler = speed.SpeedSampler()
    sampler.at_s = [0.1 * i for i in range(40)]
    sampler.samples_s = [1.0] * 20 + [2.0] * 20
    # A 1.5 s call holds 15 slow samples; a 10 ms call takes the five
    # samples nearest to it, all fast.
    long_call, short_call = sampler.call_medians_s([2.0, 0.5], [1.5, 0.01])
    assert (long_call, short_call) == (2.0, 1.0)


def test_sampler_time_is_left_out_of_the_clock():
    with speed.SpeedSampler(period_s=0.01) as sampler:
        begin, started = speed.clock(), time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
        measured = speed.clock() - begin
    assert sampler.samples_s
    assert measured == pytest.approx(0.3 - sum(sampler.samples_s), abs=0.01)


def test_quantile_interpolates_raw_samples():
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.95) == pytest.approx(4.8)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
