"""Streaming scenario tiles: structure, identity and solve equivalence."""

import dataclasses

import pytest

from repro.context import RunContext, use_context
from repro.core.hta import lp_hta
from repro.core.task import Task
from repro.system.sharding import ShardSpec
from repro.workload import PAPER_DEFAULTS, generate_scenario
from repro.workload.streaming import (
    generate_tile,
    materialize_tiles,
    stream_scenario_tiles,
)


@pytest.fixture(scope="module")
def profile():
    return PAPER_DEFAULTS.with_updates(
        num_devices=14, num_stations=4, num_tasks=40
    )


class TestSingleShardIdentity:
    def test_tile_is_the_dense_scenario(self, profile):
        dense = generate_scenario(profile, seed=5)
        tile = generate_tile(
            profile, ShardSpec.balanced(range(4), 1), 0, seed=5
        )
        assert tile.tasks == dense.tasks
        assert list(tile.system.devices) == list(dense.system.devices)
        assert list(tile.system.stations) == list(dense.system.stations)
        assert tile.tile_seed == 5


class TestTileStructure:
    @pytest.fixture(scope="class")
    def tiles(self, profile):
        return list(stream_scenario_tiles(profile, num_shards=3, seed=0))

    def test_devices_partition_round_robin(self, profile, tiles):
        ids = sorted(d for tile in tiles for d in tile.system.devices)
        assert ids == list(range(profile.num_devices))
        for tile in tiles:
            stations = set(tile.system.stations)
            for device_id in tile.system.devices:
                # Dense attachment rule: device d sits on station d % k.
                assert tile.system.cluster_of(device_id) == device_id % 4
                assert device_id % 4 in stations

    def test_task_counts_match_dense_split(self, profile, tiles):
        assert sum(tile.num_tasks for tile in tiles) == profile.num_tasks
        dense = generate_scenario(profile, seed=0)
        dense_per_device = {}
        for task in dense.tasks:
            dense_per_device[task.owner_device_id] = (
                dense_per_device.get(task.owner_device_id, 0) + 1
            )
        for tile in tiles:
            for device_id in tile.system.devices:
                owned = sum(
                    1
                    for task in tile.tasks
                    if task.owner_device_id == device_id
                )
                assert owned == dense_per_device.get(device_id, 0)

    def test_external_sources_stay_in_tile(self, tiles):
        for tile in tiles:
            members = set(tile.system.devices)
            for task in tile.tasks:
                if task.external_source is not None:
                    assert task.external_source in members

    def test_item_slices_disjoint_when_divisible(self, profile):
        divisible = profile.with_updates(divisible=True)
        tiles = list(stream_scenario_tiles(divisible, num_shards=3, seed=0))
        seen = set()
        for tile in tiles:
            items = set(tile.catalog.item_ids)
            assert not items & seen
            seen |= items
        assert len(seen) == divisible.num_data_items

    def test_too_many_shards_for_items_rejected(self, profile):
        tiny = profile.with_updates(divisible=True, num_data_items=2)
        with pytest.raises(ValueError, match="at least one data item"):
            generate_tile(tiny, ShardSpec.balanced(range(4), 3), 0)

    def test_gapped_spec_rejected(self, profile):
        with pytest.raises(ValueError, match="contiguous"):
            generate_tile(profile, ShardSpec(((0, 2), (1, 3))), 0)


def _fields(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _replace_relabel(tile):
    """Relabel the tile's local scenario by ``dataclasses.replace``: the
    straightforward copy the constructor relabel must reproduce."""
    local = generate_scenario(tile.tile_profile, tile.tile_seed)
    k = tile.profile.num_stations
    first = min(tile.system.stations)
    width = tile.system.num_stations
    item_offset = (
        min(tile.catalog.item_ids) if tile.catalog is not None else 0
    )
    device_map = {
        d: (d // width) * k + first + (d % width) for d in local.system.devices
    }
    devices = [
        dataclasses.replace(
            device,
            device_id=device_map[d],
            data_items=frozenset(i + item_offset for i in device.data_items),
        )
        for d, device in local.system.devices.items()
    ]
    stations = [
        dataclasses.replace(station, station_id=first + s)
        for s, station in local.system.stations.items()
    ]
    tasks = [
        dataclasses.replace(
            task,
            owner_device_id=device_map[task.owner_device_id],
            external_source=(
                None if task.external_source is None
                else device_map[task.external_source]
            ),
            required_items=frozenset(
                i + item_offset for i in task.required_items
            ),
        )
        for task in local.tasks[: tile.num_tasks]
    ]
    attachment = {
        device_map[d]: first + local.system.cluster_of(d)
        for d in local.system.devices
    }
    return devices, stations, tasks, attachment


class TestRelabel:
    @pytest.mark.parametrize("divisible", [False, True])
    def test_tiles_equal_replace_relabel(self, profile, divisible):
        profile = profile.with_updates(divisible=divisible)
        for tile in stream_scenario_tiles(profile, num_shards=3, seed=4):
            devices, stations, tasks, attachment = _replace_relabel(tile)
            assert [_fields(d) for d in tile.system.devices.values()] == [
                _fields(d) for d in devices
            ]
            assert [_fields(s) for s in tile.system.stations.values()] == [
                _fields(s) for s in stations
            ]
            assert [_fields(t) for t in tile.tasks] == [_fields(t) for t in tasks]
            assert {
                d: tile.system.cluster_of(d) for d in tile.system.devices
            } == attachment

    def test_relabelled_hashes_are_fresh(self, profile, monkeypatch):
        import repro.workload.streaming as streaming

        def hashed_scenario(*args, **kwargs):
            # Memoise every local task's hash before the relabel runs: a
            # relabel that carried the memo over would hash stale fields.
            scenario = generate_scenario(*args, **kwargs)
            for task in scenario.tasks:
                hash(task)
            return scenario

        monkeypatch.setattr(streaming, "generate_scenario", hashed_scenario)
        tiles = list(stream_scenario_tiles(profile, num_shards=3, seed=4))
        assert sum(tile.num_tasks for tile in tiles) == profile.num_tasks
        for tile in tiles:
            for task in tile.tasks:
                assert hash(task) == hash(Task(*_fields(task)))


class TestSolveEquivalence:
    def test_tile_solves_match_materialized(self, profile):
        tiles = list(stream_scenario_tiles(profile, num_shards=3, seed=0))
        merged = materialize_tiles(profile, num_shards=3, seed=0)
        with use_context(RunContext()):
            merged_report = lp_hta(merged.system, list(merged.tasks))
            merged_by_key = {
                (task.owner_device_id, task.index): decision
                for task, decision in zip(
                    merged.tasks, merged_report.assignment.decisions
                )
            }
            for tile in tiles:
                report = lp_hta(tile.system, list(tile.tasks))
                for task, decision in zip(
                    tile.tasks, report.assignment.decisions
                ):
                    key = (task.owner_device_id, task.index)
                    assert merged_by_key[key] == decision

    def test_materialized_single_shard_is_dense(self, profile):
        dense = generate_scenario(profile, seed=2)
        merged = materialize_tiles(profile, num_shards=1, seed=2)
        assert merged.tasks == dense.tasks
        assert list(merged.system.devices) == list(dense.system.devices)


class TestDeterminism:
    def test_tiles_pure_in_their_inputs(self, profile):
        spec = ShardSpec.balanced(range(4), 3)
        first = generate_tile(profile, spec, 1, seed=7)
        again = generate_tile(profile, spec, 1, seed=7)
        assert first.tasks == again.tasks
        assert list(first.system.devices) == list(again.system.devices)

    def test_distinct_shards_get_distinct_streams(self, profile):
        spec = ShardSpec.balanced(range(4), 2)
        a = generate_tile(profile, spec, 0, seed=7)
        b = generate_tile(profile, spec, 1, seed=7)
        assert a.tile_seed != b.tile_seed
        assert not set(a.system.devices) & set(b.system.devices)
