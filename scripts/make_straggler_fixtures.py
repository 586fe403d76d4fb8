"""Regenerate ``tests/data/p2_stragglers.npz``: the known structured-IPM
stragglers.

A straggler is a P2 cluster whose unrelaxed structured solve hits the
iteration cap, so the batched Step 1 hands it down the fallback ladder.
Two workloads are known to hold them:

- the city of ``perfbench``'s ``city-8shard`` workload at seed 0, shard 5:
  8 shards × (625 stations, 6250 devices), 2 tasks per device
  (2 clusters);
- the LP-HTA epoch scheduler of ``mecrepro online --mobile --seed 0
  --rate 5 --horizon 2000 --epoch 10``, with the resilience experiment's
  fault plan at λ = 0.05 and ``recovery="reassign"`` (12 clusters).

The script replays both, records every cluster whose Step-1 answer did not
come from the primary structured solver, and stores each one's cost table,
task owners and capacities, so tests can rebuild the exact P2 blocks
without replaying the workloads.  Run it from the repository root::

    PYTHONPATH=src python scripts/make_straggler_fixtures.py

It takes about ten seconds and prints one line per workload.
"""

import argparse
from pathlib import Path
from typing import List, Tuple

import numpy as np

import repro.core.hta as hta
import repro.core.sharded as sharded
from repro.context import RunContext, use_context
from repro.experiments.parallel import TileCell, run_tiles
from repro.faults.model import FaultConfig, generate_fault_plan
from repro.mobility import RandomWaypointModel
from repro.online import OnlineOptions, PoissonArrivals, simulate_online
from repro.system.sharding import ShardSpec
from repro.workload import PAPER_DEFAULTS, generate_system

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "p2_stragglers.npz"


class _Recorder:
    """Wraps ``_solve_p2_batch`` and keeps the jobs the ladder resolved."""

    def __init__(self) -> None:
        self.jobs: List[Tuple[str, tuple]] = []
        self.label = ""
        self._inner = hta._solve_p2_batch

    def __call__(self, jobs, options, context):
        results = self._inner(jobs, options, context)
        for job, result in zip(jobs, results):
            if result.backend != "structured-ipm":
                self.jobs.append((self.label, job))
        return results


def _city(recorder: _Recorder) -> None:
    shards, stations, devices = 8, 625, 6250
    profile = PAPER_DEFAULTS.with_updates(
        num_devices=devices * shards,
        num_stations=stations * shards,
        num_tasks=devices * shards * 2,
    )
    spec = ShardSpec.balanced(range(profile.num_stations), shards)
    recorder.label = "city-seed0-shard5"
    with use_context(RunContext()):
        run_tiles([TileCell(profile=profile, spec=spec, shard_id=5, seed=0)], jobs=1)


def _online(recorder: _Recorder) -> None:
    horizon = 2000.0
    system = generate_system(PAPER_DEFAULTS, seed=0)
    arrivals = PoissonArrivals(
        system, PAPER_DEFAULTS, rate_per_s=5.0, seed=1
    ).generate(horizon)
    mobility = RandomWaypointModel(
        sorted(system.devices), area_side_m=2000.0,
        speed_range_mps=(2.0, 15.0), seed=2,
        initial_positions={d: dev.position for d, dev in system.devices.items()},
    )
    plan = generate_fault_plan(
        system,
        FaultConfig(
            horizon_s=horizon, intensity_per_s=0.05, mean_outage_s=6.0,
            departure_ratio=0.004, crash_ratio=0.002,
        ),
        seed=0,
    )
    recorder.label = "online-faults"
    simulate_online(
        system, arrivals,
        OnlineOptions(epoch_length_s=10.0, recovery="reassign"),
        mobility=mobility, context=RunContext(), fault_plan=plan,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    recorder = _Recorder()
    hta._solve_p2_batch = recorder
    sharded._solve_p2_batch = recorder
    for run in (_city, _online):
        before = len(recorder.jobs)
        run(recorder)
        print(f"{recorder.label}: {len(recorder.jobs) - before} stragglers")

    arrays = {"labels": np.array([label for label, _ in recorder.jobs])}
    for i, (_, (costs, caps, station_cap)) in enumerate(recorder.jobs):
        device_ids = sorted(caps)
        arrays[f"{i}/time_s"] = costs.time_s
        arrays[f"{i}/energy_j"] = costs.energy_j
        arrays[f"{i}/resource"] = costs.resource
        arrays[f"{i}/deadline_s"] = costs.deadline_s
        arrays[f"{i}/owners"] = np.array([t.owner_device_id for t in costs.tasks])
        arrays[f"{i}/device_ids"] = np.array(device_ids)
        arrays[f"{i}/device_caps"] = np.array([caps[d] for d in device_ids])
        arrays[f"{i}/station_cap"] = np.array(station_cap)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(args.out, **arrays)
    print(f"wrote {len(recorder.jobs)} clusters to {args.out}")


if __name__ == "__main__":
    main()
