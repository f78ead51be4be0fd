"""Tests for the on-disk unit-result cache and its keying."""

import pytest

from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec


def unit_of(spec: ScenarioSpec, index: int = 0):
    return spec.work_units()[index]


class TestCacheKeying:
    def test_key_is_stable_across_spec_rebuilds(self):
        a = unit_of(ScenarioSpec(name="s", params={"n": 10}, trials=2, seed=5))
        b = unit_of(ScenarioSpec(name="s", params={"n": 10}, trials=2, seed=5))
        assert a.cache_key("1") == b.cache_key("1")

    def test_key_changes_with_every_spec_ingredient(self):
        base = ScenarioSpec(name="s", params={"n": 10}, trials=1, seed=5)
        key = unit_of(base).cache_key("1")
        variants = [
            ScenarioSpec(name="other", params={"n": 10}, trials=1, seed=5),
            ScenarioSpec(name="s", params={"n": 11}, trials=1, seed=5),
            ScenarioSpec(name="s", params={"n": 10, "k": 3}, trials=1, seed=5),
            ScenarioSpec(name="s", params={"n": 10}, trials=1, seed=6),
        ]
        for variant in variants:
            assert unit_of(variant).cache_key("1") != key
        # A scenario-version bump also invalidates.
        assert unit_of(base).cache_key("2") != key
        # Trial index distinguishes units of the same point.
        multi = ScenarioSpec(name="s", params={"n": 10}, trials=2, seed=5)
        assert multi.work_units()[0].cache_key("1") != multi.work_units()[1].cache_key("1")

    def test_spec_hash_covers_grid(self):
        a = ScenarioSpec(name="s", grid={"n": [1, 2]}).spec_hash()
        b = ScenarioSpec(name="s", grid={"n": [1, 3]}).spec_hash()
        assert a != b

    def test_key_covers_graph_backend_policy(self):
        """A python-backend result must never be served to a fast invocation."""
        from repro.graphs import backend

        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        with backend.using("python"):
            python_key = unit.cache_key("1")
        with backend.using("fast"):
            fast_key = unit.cache_key("1")
        with backend.using("auto"):
            auto_key = unit.cache_key("1")
        assert len({python_key, fast_key, auto_key}) == 3
        # The policy is stable, so re-deriving under the same policy hits.
        with backend.using("python"):
            assert unit.cache_key("1") == python_key

    def test_key_covers_backend_env_var(self, monkeypatch):
        from repro.graphs import backend

        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        default_key = unit.cache_key("1")
        monkeypatch.setenv(backend.ENV_VAR, "python")
        assert unit.cache_key("1") != default_key

    def test_key_folds_in_every_environment_pin(self, monkeypatch):
        """The config table's pin list is the cache key's: a new pin re-keys."""
        from repro.runner import config

        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        key = unit.cache_key("1")
        pins = config.pins()
        monkeypatch.setattr(config, "pins", lambda: dict(pins, extra_pin="on"))
        assert unit.cache_key("1") != key
        assert unit.key_material("1").endswith("\nextra_pin=on")

    def test_invalid_backend_env_raises_not_silently_falls_back(self, monkeypatch):
        import pytest

        from repro.core.errors import ConfigError
        from repro.graphs import backend

        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        monkeypatch.setenv(backend.ENV_VAR, "numpy")
        with pytest.raises(ConfigError, match="REPRO_GRAPH_BACKEND"):
            unit.cache_key("1")


class TestCacheStorage:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        assert cache.get(unit, "1") is None
        assert cache.misses == 1
        cache.put(unit, "1", {"metric": 1.5})
        assert cache.get(unit, "1") == {"metric": 1.5}
        assert cache.hits == 1
        assert cache.entry_count() == 1

    def test_version_bump_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        cache.put(unit, "1", {"metric": 1.0})
        assert cache.get(unit, "2") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path = cache.put(unit, "1", {"metric": 1.0})
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(unit, "1") is None

    def test_non_numeric_metric_value_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path = cache.put(unit, "1", {"metric": 1.0})
        path.write_text(
            path.read_text(encoding="utf-8").replace("1.0", "null"), encoding="utf-8"
        )
        assert cache.get(unit, "1") is None

    def test_corrupt_entry_counted_apart_and_evicted(self, tmp_path, caplog):
        """Corrupt entries are not misses: counted, logged, removed from disk."""
        import logging

        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path = cache.put(unit, "1", {"metric": 1.0})
        path.write_text("{not json", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert cache.get(unit, "1") is None
        assert cache.corrupt == 1
        assert cache.misses == 0 and cache.hits == 0
        assert not path.exists()  # evicted, so the recompute can replace it
        assert any("evicted corrupt cache entry" in r.message for r in caplog.records)
        # The slot now behaves as an ordinary (countable) miss...
        assert cache.get(unit, "1") is None
        assert cache.misses == 1
        # ...and a recompute fills it back in cleanly.
        cache.put(unit, "1", {"metric": 2.0})
        assert cache.get(unit, "1") == {"metric": 2.0}
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 1)

    def test_malformed_metrics_mapping_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path = cache.put(unit, "1", {"metric": 1.0})
        path.write_text(
            path.read_text(encoding="utf-8").replace("1.0", "null"), encoding="utf-8"
        )
        assert cache.get(unit, "1") is None
        assert cache.corrupt == 1 and cache.misses == 0
        assert not path.exists()

    def test_outcomes_mirrored_into_telemetry(self, tmp_path):
        from repro.obs import telemetry

        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        with telemetry.collecting() as collector:
            cache.get(unit, "1")  # miss
            path = cache.put(unit, "1", {"metric": 1.0})
            cache.get(unit, "1")  # hit
            path.write_text("{not json", encoding="utf-8")
            cache.get(unit, "1")  # corrupt (evicted)
        counters = collector.snapshot()["counters"]
        assert counters["runner.cache.miss"] == 1
        assert counters["runner.cache.hit"] == 1
        assert counters["runner.cache.corrupt_evicted"] == 1

    def test_clear_by_scenario(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(unit_of(ScenarioSpec(name="a")), "1", {"m": 1.0})
        cache.put(unit_of(ScenarioSpec(name="b")), "1", {"m": 2.0})
        assert cache.clear("a") == 1
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_clear_uses_same_sanitized_directory_as_put(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        unit = unit_of(ScenarioSpec(name="weird/name .."))
        path = cache.put(unit, "1", {"m": 1.0})
        assert (tmp_path / "cache") in path.parents
        assert cache.clear("weird/name ..") == 1
        assert cache.get(unit, "1") is None

    def test_dotty_scenario_name_cannot_escape_cache_root(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (tmp_path / "outside.json").write_text("{}", encoding="utf-8")
        unit = unit_of(ScenarioSpec(name=".."))
        path = cache.put(unit, "1", {"m": 1.0})
        assert (tmp_path / "cache") in path.parents
        cache.clear("..")
        assert (tmp_path / "outside.json").exists()


class TestUnreadableEntries:
    """Only "not found" is a miss; any other OSError is counted apart."""

    def test_unreadable_entry_is_not_a_miss_and_not_evicted(self, tmp_path, caplog):
        import logging

        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path = cache.path_for(unit, "1")
        # A directory squatting on the entry path raises IsADirectoryError
        # (an OSError that is not FileNotFoundError) on open -- the same
        # failure class as EACCES/EMFILE, but reproducible when the test
        # suite runs as root.
        path.mkdir(parents=True)
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert cache.get(unit, "1") is None
        assert cache.unreadable == 1
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 0)
        assert path.exists()  # never evicted: the bytes may be fine
        assert any("unreadable cache entry" in r.message for r in caplog.records)

    def test_unreadable_mirrored_into_telemetry(self, tmp_path):
        from repro.obs import telemetry

        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        cache.path_for(unit, "1").mkdir(parents=True)
        with telemetry.collecting() as collector:
            cache.get(unit, "1")
        counters = collector.snapshot()["counters"]
        assert counters["runner.cache.unreadable"] == 1
        assert "runner.cache.miss" not in counters


class TestCrashedWriteTemps:
    """``put`` crashes between mkstemp and os.replace leave ``.tmp-*`` files."""

    @staticmethod
    def _plant_stale_temp(cache, unit):
        path = cache.put(unit, "1", {"m": 1.0})
        stale = path.parent / ".tmp-deadbeef.json"
        stale.write_text('{"half": ', encoding="utf-8")
        return path, stale

    def test_simulated_crash_mid_put_leaves_only_a_dot_temp(self, tmp_path, monkeypatch):
        import os as _os

        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))

        def crash(src, dst):
            raise KeyboardInterrupt  # the worker died right here

        monkeypatch.setattr("repro.runner.cache.os.replace", crash)
        with pytest.raises(KeyboardInterrupt):
            cache.put(unit, "1", {"m": 1.0})
        monkeypatch.undo()
        # The atomic-write contract held: no entry appeared...
        assert cache.entry_count() == 0
        # ...and put()'s own BaseException cleanup already removed the temp,
        # so the sweep below is for the harder crash (SIGKILL) where even
        # that handler never ran.
        assert list(cache.root.glob("*/.tmp-*")) == []

    def test_entry_count_ignores_stale_temps(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        self._plant_stale_temp(cache, unit)
        # Whether pathlib's glob matches dotfiles varies by version; an
        # orphaned temp must never masquerade as a cached result either way.
        assert cache.entry_count() == 1

    def test_clear_sweeps_stale_temps_without_counting_them(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = unit_of(ScenarioSpec(name="s", params={"n": 10}))
        path, stale = self._plant_stale_temp(cache, unit)
        assert cache.clear() == 1  # the real entry, not the temp
        assert not path.exists()
        assert not stale.exists()

    def test_clear_by_scenario_sweeps_that_directory_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit_a = unit_of(ScenarioSpec(name="a"))
        unit_b = unit_of(ScenarioSpec(name="b"))
        _, stale_a = self._plant_stale_temp(cache, unit_a)
        _, stale_b = self._plant_stale_temp(cache, unit_b)
        assert cache.clear("a") == 1
        assert not stale_a.exists()
        assert stale_b.exists()
