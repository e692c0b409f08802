"""Tests for the execution subsystem (executor, cache, serialization).

The two properties the subsystem promises:

* **Determinism** — a sweep on worker processes is bit-for-bit identical
  to the in-process sweep of the same settings.
* **Cache round trip** — a second invocation of the same sweep against
  the same cache performs zero simulations and yields identical results.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.exec.cache as exec_cache
from repro.exec import (
    ARTIFACT_FORMAT_VERSION,
    ClusterExecutor,
    ResultCache,
    StaleArtifactError,
    add_executor_options,
    config_key,
    executor_for,
    executor_from_args,
)
from repro.experiments.sweep import SweepResult, SweepSettings, run_speed_sweep
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import (
    AggregateResult,
    ScenarioResult,
    aggregate_results,
)
from repro.scenario.runner import run_replications, run_scenario
from repro.version import __version__


def tiny_config(**overrides) -> ScenarioConfig:
    params = dict(protocol="MTS", n_nodes=10, field_size=(500.0, 500.0),
                  max_speed=5.0, sim_time=4.0, seed=3)
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture(scope="module")
def tiny_result() -> ScenarioResult:
    """One completed simulation shared by the serialization tests."""
    return run_scenario(tiny_config())


def write_loose(cache: ResultCache, key: str, data: bytes):
    """Plant a loose ``<2-char>/<key>.json`` entry, as older releases
    wrote them (nothing in the package writes that layout any more)."""
    path = cache.root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def entry_bytes(cache: ResultCache, config: ScenarioConfig) -> bytes:
    """The raw packed bytes of ``config``'s (first) entry."""
    location = cache._pack_index()[config_key(config)][0]
    return exec_cache._read_span(*location)


@pytest.fixture(scope="module")
def smoke_serial() -> SweepResult:
    """The smoke-grid sweep on the in-process executor (the reference)."""
    return run_speed_sweep(SweepSettings.smoke())


class TestSerialization:
    def test_config_json_round_trip(self):
        config = tiny_config(flows=[(0, 5)], mts_max_paths=3)
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_config_round_trip_with_static_positions(self):
        config = ScenarioConfig(protocol="AODV", n_nodes=3,
                                mobility_model="static",
                                static_positions=[(0.0, 0.0), (100.0, 0.0),
                                                  (200.0, 0.0)],
                                flows=[(0, 2)], sim_time=2.0)
        restored = ScenarioConfig.from_json(config.to_json())
        assert restored == config
        assert restored.static_positions[0] == (0.0, 0.0)

    def test_config_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioConfig.from_dict({"protocol": "MTS", "warp_speed": 9})

    def test_result_json_round_trip_is_exact(self, tiny_result):
        restored = ScenarioResult.from_json(tiny_result.to_json())
        assert restored == tiny_result
        assert all(isinstance(node, int)
                   for node in restored.relay_counts)
        assert all(isinstance(flow, tuple) for flow in restored.flows)

    def test_aggregate_json_round_trip_is_exact(self, tiny_result):
        aggregate = aggregate_results([tiny_result])
        restored = AggregateResult.from_json(aggregate.to_json())
        assert restored == aggregate
        # Canonical metric order survives the sorted-key JSON round trip.
        assert list(restored.mean) == list(aggregate.mean)

    def test_sweep_json_round_trip_is_exact(self, smoke_serial):
        restored = SweepResult.from_json(smoke_serial.to_json())
        assert restored.settings == smoke_serial.settings
        assert restored.runs == smoke_serial.runs
        assert json.dumps(restored.rows()) == json.dumps(smoke_serial.rows())

    def test_sweep_save_load(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        assert SweepResult.load(path).rows() == smoke_serial.rows()

    def test_config_key_is_stable_and_ignores_trace(self):
        config = tiny_config()
        assert config_key(config) == config_key(tiny_config())
        assert config_key(config) == config_key(config.replace(trace=True))
        assert config_key(config) != config_key(config.replace(seed=4))

    def test_config_key_not_aliased_by_stale_n_flows(self):
        # With explicit flows, n_flows is ignored by the builder; two
        # behaviourally identical configs must share one cache entry.
        a = tiny_config(flows=[(0, 5)])
        b = tiny_config(flows=[(0, 5)], n_flows=4)
        assert a == b
        assert config_key(a) == config_key(b)


class TestExecutors:
    def test_serial_executor_matches_direct_runs(self):
        configs = [tiny_config(seed=1), tiny_config(seed=2)]
        executor = ClusterExecutor()
        results = executor.run(configs)
        assert executor.cells_streamed == 2
        assert [r.seed for r in results] == [1, 2]
        assert results[0] == run_scenario(configs[0])

    def test_progress_callback_sees_every_run(self):
        seen = []
        ClusterExecutor().run([tiny_config(seed=1), tiny_config(seed=2)],
                              progress=lambda i, c, r: seen.append((i, c.seed)))
        assert sorted(seen) == [(0, 1), (1, 2)]

    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ClusterExecutor(shards=0)

    def test_default_executor_runs_in_process(self, tmp_path, monkeypatch):
        executor = executor_for(None, None)
        assert executor.shards == 1 and executor.cache is None

        def no_process(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("the in-process path started a process")

        monkeypatch.setattr("repro.exec.scheduler.WorkerPool", no_process)
        cached = executor_for(None, ResultCache(tmp_path))
        cached.run([tiny_config(seed=1)])
        assert cached.cache is not None and len(cached.cache) == 1
        assert cached.workers_launched == 0

    def test_executor_and_cache_are_exclusive(self, tmp_path):
        executor = ClusterExecutor(cache=ResultCache(tmp_path / "a"))
        with pytest.raises(ValueError, match="not both"):
            executor_for(executor, ResultCache(tmp_path / "b"))
        with pytest.raises(ValueError, match="not both"):
            run_scenario(tiny_config(), executor=executor,
                         cache=ResultCache(tmp_path / "a"))
        assert executor_for(executor, None) is executor

    def test_workers_option_builds_the_executor(self, tmp_path):
        import argparse
        parser = argparse.ArgumentParser()
        add_executor_options(parser)
        serial = executor_from_args(parser.parse_args([]))
        assert (serial.shards, serial.cache) == (1, None)
        pooled = executor_from_args(parser.parse_args(
            ["--workers", "3", "--cache", str(tmp_path / "cache")]))
        assert pooled.shards == 3
        assert isinstance(pooled.cache, ResultCache)
        # 0 = one worker per core.
        auto = executor_from_args(parser.parse_args(["--workers", "0"]))
        assert auto.shards == (os.cpu_count() or 1)
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "-1"])

    def test_parallel_sweep_identical_to_serial(self, smoke_serial):
        """Two pool workers and the in-process path produce identical
        SweepResult.rows() for SweepSettings.smoke()."""
        with ClusterExecutor(shards=2) as executor:
            parallel = run_speed_sweep(SweepSettings.smoke(),
                                       executor=executor)
        assert (json.dumps(parallel.rows())
                == json.dumps(smoke_serial.rows()))
        # Identical beyond the aggregates: every individual run matches.
        assert parallel.runs == smoke_serial.runs

    def test_run_replications_accepts_executor(self):
        aggregate, results = run_replications(tiny_config(), replications=2,
                                              executor=ClusterExecutor())
        assert aggregate.replications == 2
        assert len(results) == 2


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        assert cache.get(config) is None
        cache.put(config, tiny_result)
        assert config in cache
        assert cache.get(config) == tiny_result
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        path.write_text("not json at all")
        assert cache.get(config) is None
        # A fresh put repairs the entry.
        cache.put(config, tiny_result)
        assert cache.get(config) == tiny_result

    def test_clear_removes_entries(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        cache.put(tiny_config(), tiny_result)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_second_sweep_invocation_runs_zero_simulations(
            self, tmp_path, smoke_serial):
        """ISSUE requirement: a repeated sweep against the same cache is
        served entirely from disk."""
        cache = ResultCache(tmp_path / "cache")
        first = ClusterExecutor(cache=cache)
        warmed = run_speed_sweep(SweepSettings.smoke(), executor=first)
        assert first.cells_streamed == len(SweepSettings.smoke().grid())

        second = ClusterExecutor(cache=cache)
        replayed = run_speed_sweep(SweepSettings.smoke(), executor=second)
        assert second.cells_streamed == 0
        assert cache.hits == len(SweepSettings.smoke().grid())
        assert json.dumps(replayed.rows()) == json.dumps(warmed.rows())
        assert json.dumps(replayed.rows()) == json.dumps(smoke_serial.rows())

    def test_cache_shared_between_scenario_and_sweep_layers(self, tmp_path):
        """A single cell simulated via run_scenario is reused by the sweep."""
        settings = SweepSettings.smoke()
        cache = ResultCache(tmp_path / "cache")
        protocol, speed, replication = settings.grid()[0]
        run_scenario(settings.cell_config(protocol, speed, replication),
                     cache=cache)
        executor = ClusterExecutor(cache=cache)
        run_speed_sweep(settings, executor=executor)
        assert executor.cells_streamed == len(settings.grid()) - 1


    def test_lookup_lists_the_pack_directory_once(self, tmp_path,
                                                  tiny_result, monkeypatch):
        """A batch lookup lists ``packs/`` once, not once per config —
        yet still sees segments written since the previous call."""
        cache = ResultCache(tmp_path / "cache")
        configs = [tiny_config(seed=seed) for seed in range(1, 7)]
        for config in configs[:4]:
            cache.put(config, tiny_result)           # four segments
        listings = []
        original = ResultCache._pack_files

        def counting(self):
            listings.append(self.root)
            return original(self)

        monkeypatch.setattr(ResultCache, "_pack_files", counting)
        hits, misses = cache.lookup(configs)
        assert sorted(hits) == [0, 1, 2, 3] and misses == [4, 5]
        assert len(listings) == 1
        # A segment flushed by another writer shows up on the next call.
        ResultCache(cache.root).put(configs[4], tiny_result)
        listings.clear()
        hits, misses = cache.lookup(configs)
        assert misses == [5] and len(listings) == 1


class TestCacheMaintenance:
    """The hygiene layer under the ``repro-cache`` CLI."""

    def warm_cache(self, tmp_path, tiny_result, n=3) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for seed in range(1, n + 1):
            cache.put(tiny_config(seed=seed), tiny_result)
        return cache

    def orphan_temp(self, cache: ResultCache, age_seconds: float = 0.0,
                    pid: int = 99999):
        """Fake what a writer that crashed mid-put leaves behind."""
        shard_dir = cache.root / "ab"
        shard_dir.mkdir(exist_ok=True)
        tmp = shard_dir / f".{'ab' + 62 * '0'}.{pid}.tmp"
        tmp.write_text("{\"partial\":")
        if age_seconds:
            os.utime(tmp, (time.time() - age_seconds,) * 2)
        return tmp

    def test_orphan_temp_files_are_invisible_to_reads(self, tmp_path,
                                                      tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        self.orphan_temp(cache)
        assert len(cache) == 1
        assert cache.get(tiny_config(seed=1)) == tiny_result
        assert len(cache.temp_files()) == 1

    def test_sweep_temp_files_respects_min_age(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        fresh = self.orphan_temp(cache, pid=11111)   # maybe a live writer
        self.orphan_temp(cache, age_seconds=7200.0, pid=22222)
        assert cache.sweep_temp_files(min_age_seconds=3600.0) == 1
        assert cache.temp_files() == [fresh]         # fresh one survives
        assert cache.sweep_temp_files() == 1
        assert cache.temp_files() == []

    def test_stats_counts_versions_and_temps(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        self.orphan_temp(cache)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.current == 3
        assert stats.temp_files == 1
        assert stats.unreadable == 0
        assert stats.total_bytes > 0

    def test_verify_flags_corrupt_and_mismatched_entries(self, tmp_path,
                                                         tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        assert cache.verify() == []
        # Corrupt one segment, mis-key another entry (valid JSON, filed
        # under the wrong index key).
        paths = cache._pack_files()
        paths[0].write_text("not json")
        data = exec_cache._read_span(
            paths[1], *exec_cache._read_pack_index(paths[1]).popitem()[1])
        paths[1].unlink()
        cache._write_pack([("ff" * 32, data)])
        problems = cache.verify()
        assert sorted(p.kind for p in problems) == ["corrupt", "corrupt"]

    def test_verify_flags_other_version_entries_as_stale(self, tmp_path,
                                                         tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        config = tiny_config(seed=1)
        payload = json.loads(entry_bytes(cache, config))
        payload["repro_version"] = "0.0.1"
        cache.clear()
        cache._write_pack([(config_key(config),
                            json.dumps(payload).encode("utf-8"))])
        problems = cache.verify()
        assert [p.kind for p in problems] == ["stale"]

    def test_prune_removes_bad_entries_and_orphans(self, tmp_path,
                                                   tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        cache._pack_files()[0].write_text("broken")
        self.orphan_temp(cache)
        dry = cache.prune(dry_run=True)
        assert (dry.corrupt, dry.temp_files) == (1, 1)
        assert len(cache._pack_files()) == 3         # nothing removed yet
        report = cache.prune()
        assert (report.corrupt, report.stale, report.temp_files) == (1, 0, 1)
        assert len(cache) == 2
        assert cache.verify() == []

    def test_gc_by_age_and_size(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        paths = cache._pack_files()
        os.utime(paths[0], (time.time() - 10 * 86400,) * 2)
        assert cache.gc(max_age_seconds=86400.0, dry_run=True) == [paths[0]]
        assert len(cache) == 3
        assert cache.gc(max_age_seconds=86400.0) == [paths[0]]
        assert len(cache) == 2
        # Shrink to a budget that fits exactly one entry.
        entry_size = paths[1].stat().st_size
        removed = cache.gc(max_total_bytes=entry_size)
        assert len(removed) == 1
        assert len(cache) == 1
        with pytest.raises(ValueError):
            cache.gc()

    def test_merge_from_combines_roots(self, tmp_path, tiny_result):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put(tiny_config(seed=1), tiny_result)
        b.put(tiny_config(seed=1), tiny_result)      # identical bytes
        b.put(tiny_config(seed=2), tiny_result)
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge_from(a).copied == 1
        stats = merged.merge_from(b)
        assert (stats.copied, stats.identical, stats.conflicts) == (1, 1, 0)
        assert len(merged) == 2
        assert merged.get(tiny_config(seed=2)) == tiny_result
        with pytest.raises(ValueError, match="itself"):
            merged.merge_from(merged)

    def test_merge_from_rejects_missing_source(self, tmp_path, tiny_result):
        # A typo'd shard-cache path must fail loudly, not "merge" an
        # empty directory it just created and report success.
        dest = ResultCache(tmp_path / "dest")
        dest.put(tiny_config(seed=1), tiny_result)
        with pytest.raises(ValueError, match="not an existing"):
            dest.merge_from(tmp_path / "cahce-1")
        assert not (tmp_path / "cahce-1").exists()

    def test_merge_from_reports_conflicts_and_keeps_destination(
            self, tmp_path, tiny_result):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        config = tiny_config(seed=1)
        a.put(config, tiny_result).unlink()
        b.put(config, tiny_result)
        changed = entry_bytes(b, config) + b" "     # same key, new bytes
        a._write_pack([(config_key(config), changed)])
        stats = a.merge_from(b)
        assert (stats.copied, stats.conflicts) == (0, 1)
        assert entry_bytes(a, config) == changed     # destination kept


class TestPackedCache:
    """Batched cache I/O: packed segments under ``<root>/packs/``.

    The contract: packed segments are the only layout any writer
    produces — same content-addressed key, same version guard, same O(1)
    probe — and a whole batch lands durably with a single fsync.
    """

    def packed_cache(self, tmp_path, tiny_result, n=3) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        cache.put_many([(tiny_config(seed=seed), tiny_result)
                        for seed in range(1, n + 1)])
        return cache

    def test_put_many_packed_round_trip(self, tmp_path, tiny_result):
        cache = self.packed_cache(tmp_path, tiny_result)
        assert len(cache) == 3
        assert cache._loose_files() == []            # nothing loose
        assert len(cache._pack_files()) == 1         # one segment, one fsync
        for seed in (1, 2, 3):
            config = tiny_config(seed=seed)
            assert config in cache
            assert cache.has_current(config)
            assert cache.get(config) == tiny_result

    def test_put_many_loose_matches_put(self, tmp_path, tiny_result):
        """A batch stores exactly the bytes one-entry puts store."""
        single = ResultCache(tmp_path / "single")
        batch = ResultCache(tmp_path / "batch")
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        paths = [single.put(config, tiny_result) for config in configs]
        assert len(set(paths)) == 2                  # a pack of one each
        assert batch.put_many([(config, tiny_result) for config in configs]) \
            == batch._pack_files()[0]
        for config in configs:
            assert entry_bytes(batch, config) == entry_bytes(single, config)
        with pytest.raises(ValueError):
            batch.put_many([])

    def test_packed_bytes_identical_to_loose(self, tmp_path, tiny_result):
        config = tiny_config(seed=1)
        packed = ResultCache(tmp_path / "packed")
        packed.put(config, tiny_result)
        data = entry_bytes(packed, config)
        assert data == exec_cache._entry_text(
            config_key(config), config, tiny_result).encode("utf-8")
        # A current loose entry left by an older release migrates verbatim.
        legacy = ResultCache(tmp_path / "legacy")
        write_loose(legacy, config_key(config), data)
        assert legacy.pack_all() == (1, 1)
        assert entry_bytes(legacy, config) == data

    def test_pack_all_migrates_loose_entries_byte_exact(self, tmp_path,
                                                        tiny_result):
        source = ResultCache(tmp_path / "source")
        cache = ResultCache(tmp_path / "cache")
        before = {}
        for seed in range(1, 4):
            config = tiny_config(seed=seed)
            source.put(config, tiny_result)
            before[config_key(config)] = entry_bytes(source, config)
            write_loose(cache, config_key(config), before[config_key(config)])
        assert len(cache) == 0                       # loose is never served
        assert cache.pack_all(batch_size=2) == (2, 3)
        assert cache._loose_files() == []            # loose files consumed
        assert len(cache) == 3                       # same logical entries
        assert cache.get(tiny_config(seed=2)) == tiny_result
        after = {key: exec_cache._read_span(*locations[0])
                 for key, locations in cache._pack_index().items()}
        assert after == before                       # byte-exact migration

    def test_resimulated_entry_supersedes_a_stale_one(self, tmp_path,
                                                      tiny_result):
        """Writes never overwrite: a stale entry and its re-simulated
        successor share a key in two segments, and readers pick the
        current one whichever segment sorts first."""
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config(seed=1)
        cache.put(config, tiny_result)
        payload = json.loads(entry_bytes(cache, config))
        payload["repro_version"] = "0.0.1"
        cache.clear()
        cache._write_pack([(config_key(config),
                            json.dumps(payload).encode("utf-8"))])
        assert cache.get(config) is None
        assert not cache.has_current(config)
        cache.put(config, tiny_result)
        assert len(cache._pack_files()) == 2
        assert cache.get(config) == tiny_result
        assert cache.has_current(config)

    def test_corrupt_pack_header_reads_as_miss_and_is_flagged(
            self, tmp_path, tiny_result):
        cache = self.packed_cache(tmp_path, tiny_result, n=2)
        cache._pack_files()[0].write_bytes(b"not a header\ngarbage")
        assert cache.get(tiny_config(seed=1)) is None
        assert not cache.has_current(tiny_config(seed=1))
        problems = cache.verify()
        assert [p.kind for p in problems] == ["corrupt"]
        assert "pack header" in problems[0].detail

    def test_corrupt_packed_entry_pruned_by_segment_rewrite(
            self, tmp_path, tiny_result):
        cache = self.packed_cache(tmp_path, tiny_result, n=3)
        pack = cache._pack_files()[0]
        # Truncate the segment: the last entry's span runs past EOF.
        pack.write_bytes(pack.read_bytes()[:-20])
        problems = cache.verify()
        assert [p.kind for p in problems] == ["corrupt"]
        assert problems[0].key is not None           # one entry, not the pack
        report = cache.prune()
        assert report.corrupt == 1
        # The segment was rewritten with only its sound entries.
        assert cache.verify() == []
        assert len(cache) == 2
        assert sum(1 for seed in (1, 2, 3)
                   if cache.get(tiny_config(seed=seed)) == tiny_result) == 2

    def test_stats_and_gc_over_packed_segments(self, tmp_path, tiny_result):
        cache = self.packed_cache(tmp_path, tiny_result, n=3)
        cache.put(tiny_config(seed=9), tiny_result)  # a pack of one too
        stats = cache.stats()
        assert stats.entries == 4
        assert stats.current == 4
        assert (stats.packs, stats.loose_files) == (2, [])
        # GC ages a segment out as one unit (its entries share a batch).
        pack = max(cache._pack_files(), key=lambda path: path.stat().st_size)
        os.utime(pack, (time.time() - 10 * 86400,) * 2)
        assert cache.gc(max_age_seconds=86400.0) == [pack]
        assert len(cache) == 1

    def test_merge_from_packed_source(self, tmp_path, tiny_result):
        source = self.packed_cache(tmp_path, tiny_result, n=2)
        dest = ResultCache(tmp_path / "dest")
        dest.put(tiny_config(seed=1), tiny_result)   # same logical entry
        stats = dest.merge_from(source)
        assert (stats.copied, stats.identical, stats.conflicts) == (1, 1, 0)
        assert dest.get(tiny_config(seed=2)) == tiny_result

    def test_clear_removes_packed_entries(self, tmp_path, tiny_result):
        cache = self.packed_cache(tmp_path, tiny_result, n=3)
        cache.put(tiny_config(seed=9), tiny_result)
        assert cache.clear() == 4
        assert len(cache) == 0


class TestHasCurrentProbe:
    """The O(1) entry-header probe behind campaign status polling.

    The contract under test: :meth:`ResultCache.has_current` applies the
    same format/version guards as :meth:`ResultCache.get` while never
    reading — let alone deserializing — the ``result`` payload.
    """

    def test_probe_matches_get_and_leaves_counters_alone(self, tmp_path,
                                                         tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        assert not cache.has_current(config)
        cache.put(config, tiny_result)
        assert cache.has_current(config)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_probe_never_deserializes_the_result(self, tmp_path, tiny_result,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, tiny_result)
        cache._pack_index()        # the segment index is metadata, read once

        def boom(*_args, **_kwargs):
            raise AssertionError("has_current touched the entry payload")

        # With every parsing path booby-trapped, only a bounded header
        # comparison can still answer truthfully.
        monkeypatch.setattr(exec_cache.json, "loads", boom)
        monkeypatch.setattr(ScenarioResult, "from_dict", boom)
        assert cache.has_current(config)

    def test_probe_reads_a_bounded_head_not_the_whole_file(self, tmp_path,
                                                           tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        text = path.read_text()
        assert len(text) > exec_cache._PROBE_HEADER_BYTES
        # Corrupt bytes past the probe window: invisible to the probe
        # (proof it never reads the payload), fatal to a full get().
        path.write_text(text[:-40] + "#" * 40)
        assert cache.has_current(config)
        assert cache.get(config) is None

    def test_probe_version_guard_not_weakened(self, tmp_path, tiny_result,
                                              monkeypatch):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, tiny_result)
        # An entry written by today's version must read as absent to a
        # future simulator, exactly like get() treats it as a miss.
        monkeypatch.setattr(exec_cache, "__version__", "9.9.9")
        assert not cache.has_current(config)

    @staticmethod
    def legacy_entry(cache, config, tiny_result, **changes) -> bytes:
        """Plant ``config``'s entry as a pre-header loose file: a plain
        sorted-key dump, as written before the guard header existed."""
        cache.put(config, tiny_result)
        current = entry_bytes(cache, config)
        payload = json.loads(current)
        legacy = {field: payload[field]
                  for field in ("version", "repro_version", "key",
                                "config", "result")}
        legacy.update(changes)
        cache.clear()
        write_loose(cache, config_key(config),
                    json.dumps(legacy, sort_keys=True).encode("utf-8"))
        return current

    def test_probe_accepts_legacy_entry_layout(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        current = self.legacy_entry(cache, config, tiny_result)
        # No reader serves a loose entry; verify names it instead.
        assert not cache.has_current(config)
        assert [p.kind for p in cache.verify()] == ["loose"]
        # The one-time migration re-emits it in today's headered layout.
        assert cache.pack_all() == (1, 1)
        assert cache.has_current(config)
        assert cache.get(config) == tiny_result
        assert entry_bytes(cache, config) == current

    def test_probe_rejects_stale_legacy_entry(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        self.legacy_entry(cache, config, tiny_result,
                          repro_version="0.0.1")
        assert cache.pack_all() == (1, 1)
        assert not cache.has_current(config)
        assert cache.get(config) is None
        assert [p.kind for p in cache.verify()] == ["stale"]


class TestLooseMigration:
    """``repro-cache pack`` is the one-time migration of loose entries."""

    def test_verify_reports_pack_migrates_and_readers_agree(self, tmp_path,
                                                           tiny_result):
        source = ResultCache(tmp_path / "source")
        cache = ResultCache(tmp_path / "cache")
        current, pre_header, stale = (tiny_config(seed=seed)
                                      for seed in (1, 2, 3))
        for config in (current, pre_header, stale):
            source.put(config, tiny_result)
        write_loose(cache, config_key(current), entry_bytes(source, current))
        payload = json.loads(entry_bytes(source, pre_header))
        del payload["format_version"]
        write_loose(cache, config_key(pre_header),
                    json.dumps(payload, sort_keys=True).encode("utf-8"))
        payload = json.loads(entry_bytes(source, stale))
        payload["repro_version"] = "0.0.1"
        write_loose(cache, config_key(stale),
                    json.dumps(payload).encode("utf-8"))

        # Before: every loose entry is named, none is served or pruned.
        problems = cache.verify()
        assert [p.kind for p in problems] == ["loose"] * 3
        assert sorted(p.path for p in problems) == cache._loose_files()
        assert len(cache.stats().loose_files) == 3
        assert cache.prune().problems == problems
        assert len(cache._loose_files()) == 3
        assert cache.get(current) is None

        assert cache.pack_all() == (1, 3)
        assert cache._loose_files() == []
        assert [p.kind for p in cache.verify()] == ["stale"]
        for config in (current, pre_header, stale):
            served = cache.get(config)
            assert cache.has_current(config) == (served is not None)
            assert served == (None if config is stale else tiny_result)
        # The pre-header entry now holds exactly what the writer emits.
        assert entry_bytes(cache, pre_header) \
            == entry_bytes(source, pre_header)


class TestGcEdgeCases:
    """Byte-budget tie-breaking, combined criteria, and dry-run parity."""

    def warm(self, tmp_path, tiny_result, n=3) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for seed in range(1, n + 1):
            cache.put(tiny_config(seed=seed), tiny_result)
        return cache

    def test_byte_budget_with_tied_mtimes_is_deterministic(self, tmp_path,
                                                           tiny_result):
        cache = self.warm(tmp_path, tiny_result)
        paths = cache._pack_files()
        stamp = time.time() - 100
        for path in paths:
            os.utime(path, (stamp, stamp))
        sizes = [path.stat().st_size for path in paths]
        # Budget keeps exactly two entries.  With every mtime tied, the
        # (mtime, size, path) eviction sort falls through to the path,
        # so the doomed set is the same on any filesystem.
        budget = sizes[1] + sizes[2]
        assert cache.gc(max_total_bytes=budget, dry_run=True) == [paths[0]]
        assert cache.gc(max_total_bytes=budget) == [paths[0]]
        assert cache._pack_files() == paths[1:]

    def test_combined_age_and_byte_budget(self, tmp_path, tiny_result):
        cache = self.warm(tmp_path, tiny_result, n=4)
        paths = cache._pack_files()
        now = time.time()
        os.utime(paths[0], (now - 10 * 86400,) * 2)   # age-expired
        os.utime(paths[1], (now - 300,) * 2)
        os.utime(paths[2], (now - 200,) * 2)
        os.utime(paths[3], (now - 100,) * 2)
        budget = paths[2].stat().st_size + paths[3].stat().st_size
        doomed = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget)
        # The age pass removed paths[0]; the byte pass then evicted the
        # oldest *survivor* — an age-expired entry is never double
        # counted against the budget.
        assert doomed == [paths[0], paths[1]]
        assert cache._pack_files() == paths[2:]

    def test_dry_run_predicts_the_exact_doomed_set(self, tmp_path,
                                                   tiny_result):
        cache = self.warm(tmp_path, tiny_result)
        paths = cache._pack_files()
        os.utime(paths[1], (time.time() - 5 * 86400,) * 2)
        budget = paths[0].stat().st_size
        dry = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget,
                       dry_run=True)
        assert len(cache) == 3                       # nothing deleted
        wet = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget)
        assert wet == dry
        assert len(cache) == 1


class TestArtifactStamps:
    """Atomic sweep-artifact saves + the provenance stamp contract."""

    def test_save_is_atomic_and_leaves_no_temp(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        assert list(tmp_path.glob(".*.tmp")) == []
        assert SweepResult.load(path).rows() == smoke_serial.rows()

    def test_interrupted_save_never_truncates_the_artifact(
            self, smoke_serial, tmp_path, monkeypatch):
        # The bug this PR fixes: save() used to truncate-then-write in
        # place, so a crash mid-write destroyed the previous artifact.
        # A crash at the rename must leave the old bytes untouched.
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        original = path.read_bytes()

        def boom(_src, _dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(exec_cache.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            smoke_serial.save(path)
        assert path.read_bytes() == original

    def test_sweep_artifact_is_stamped(self, smoke_serial):
        payload = smoke_serial.to_dict()
        assert payload["artifact_format"] == ARTIFACT_FORMAT_VERSION
        assert payload["repro_version"] == __version__

    def test_stale_stamp_refused_then_allowed(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        payload = json.loads(path.read_text())
        payload["repro_version"] = "0.0.1"
        path.write_text(json.dumps(payload))
        with pytest.raises(StaleArtifactError, match="allow-stale"):
            SweepResult.load(path)
        with pytest.warns(UserWarning, match="loaded anyway"):
            restored = SweepResult.load(path, allow_stale=True)
        assert restored.rows() == smoke_serial.rows()

    def test_unstamped_artifact_warns_and_loads(self, smoke_serial,
                                                tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        payload = json.loads(path.read_text())
        payload.pop("artifact_format")
        payload.pop("repro_version")
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="no version stamp"):
            restored = SweepResult.load(path)
        assert restored.rows() == smoke_serial.rows()
