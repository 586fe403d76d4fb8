"""The known structured-IPM stragglers, replayed from committed fixtures.

``tests/data/p2_stragglers.npz`` holds every P2 cluster of two benchmark
workloads whose unrelaxed structured solve hits the iteration cap: two
clusters of the city at seed 0, shard 5, and twelve of the online
LP-HTA scheduler under faults (regenerate with
``scripts/make_straggler_fixtures.py``).  They pin the straggler baseline:
the batch replays each one's sequential trajectory to the cap, and the
fallback ladder answers from the interior-point rung without re-running
the failed structured solve.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.core.hta as hta
from repro.context import RunContext
from repro.core.costs import ClusterCosts
from repro.core.hta import LPHTAOptions, _solve_p2_batch
from repro.core.lp_builder import build_p2_structured
from repro.core.task import Task
from repro.lp.result import LPStatus
from repro.lp.structured import solve_structured, solve_structured_batch

FIXTURE = Path(__file__).parent / "data" / "p2_stragglers.npz"


def _load_jobs():
    """The fixture's clusters as ``_solve_p2_batch`` jobs, plus labels."""
    data = np.load(FIXTURE)
    labels = [str(label) for label in data["labels"]]
    jobs = []
    for i in range(len(labels)):
        resource = data[f"{i}/resource"]
        deadline = data[f"{i}/deadline_s"]
        tasks = tuple(
            Task(
                owner_device_id=int(owner), index=row, local_bytes=0.0,
                external_bytes=0.0, external_source=None,
                resource_demand=float(resource[row]),
                deadline_s=float(deadline[row]),
            )
            for row, owner in enumerate(data[f"{i}/owners"])
        )
        costs = ClusterCosts(
            tasks=tasks,
            time_s=data[f"{i}/time_s"],
            energy_j=data[f"{i}/energy_j"],
            resource=resource,
            deadline_s=deadline,
        )
        caps = {
            int(d): float(cap)
            for d, cap in zip(data[f"{i}/device_ids"], data[f"{i}/device_caps"])
        }
        jobs.append((costs, caps, float(data[f"{i}/station_cap"])))
    return labels, jobs


@pytest.fixture(scope="module")
def stragglers():
    return _load_jobs()


def test_fixture_holds_the_known_stragglers(stragglers):
    labels, jobs = stragglers
    assert labels.count("city-seed0-shard5") == 2
    assert labels.count("online-faults") == 12
    for label, (costs, caps, cap) in zip(labels, jobs):
        if label.startswith("city"):
            lp = build_p2_structured(costs, caps, cap).lp
            assert (lp.num_vars, lp.num_coupling) == (60, 11)


def test_batch_replays_each_straggler_to_the_cap(stragglers):
    _, jobs = stragglers
    blocks = [
        build_p2_structured(costs, caps, cap, relax_deadline_bounds=False).lp
        for costs, caps, cap in jobs
    ]
    batched = solve_structured_batch(blocks)
    for block, result in zip(blocks, batched):
        sequential = solve_structured(block)
        assert result.status is sequential.status is LPStatus.ITERATION_LIMIT
        assert result.iterations == sequential.iterations == 200
        assert result.x is None and sequential.x is None


def test_ladder_answers_from_interior_point_without_a_rerun(
    stragglers, monkeypatch
):
    _, jobs = stragglers
    reruns = []

    def no_rerun(lp, *args, **kwargs):
        reruns.append(lp)
        return solve_structured(lp, *args, **kwargs)

    monkeypatch.setattr(hta, "solve_structured", no_rerun)
    context = RunContext()
    results = _solve_p2_batch(jobs, LPHTAOptions(), context)
    assert reruns == []
    assert all(r.status is LPStatus.OPTIMAL for r in results)
    assert {r.backend for r in results} == {"interior-point"}
    metrics = context.telemetry.metrics
    assert metrics.counter("lp.fallback.batch-to-sequential") == len(jobs)
    assert metrics.counter("lp.fallback.interior-point") == len(jobs)
    # One batched solve per block plus one interior-point solve each.
    assert context.telemetry.solves == 2 * len(jobs)
