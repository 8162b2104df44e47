"""Artifact-cache behavior: keying, persistence, corruption recovery."""

import os

import pytest

from repro.analysis import liveness_engine, set_liveness_engine
from repro.exec import ArtifactCache, code_version
from repro.machine import set_sim_engine, sim_engine
from repro.regalloc import regalloc_engine, set_regalloc_engine


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"), version="v-test")


class TestKeying:
    def test_identical_input_hits(self, cache):
        key = cache.key("func main(): int { return 1 }", "harness:baseline")
        cache.put(key, {"cycles": 42})
        hit, value = cache.get(key)
        assert hit and value == {"cycles": 42}
        assert cache.hits == 1 and cache.misses == 0

    def test_source_change_misses(self, cache):
        cache.put(cache.key("source A", "config"), "a")
        hit, _ = cache.get(cache.key("source B", "config"))
        assert not hit

    def test_config_change_misses(self, cache):
        cache.put(cache.key("source", "config A"), "a")
        hit, _ = cache.get(cache.key("source", "config B"))
        assert not hit

    def test_version_change_misses(self, tmp_path):
        root = str(tmp_path / "cache")
        old = ArtifactCache(root, version="v1")
        old.put(old.key("source", "config"), "stale")
        new = ArtifactCache(root, version="v2")
        hit, _ = new.get(new.key("source", "config"))
        assert not hit

    def test_key_is_order_sensitive(self, cache):
        assert cache.key("ab", "c") != cache.key("a", "bc")

    def test_default_version_is_code_digest(self, tmp_path):
        assert ArtifactCache(str(tmp_path)).version == code_version()

    def test_code_version_stable_within_process(self):
        assert code_version() == code_version()

    @pytest.mark.parametrize("get_engine, set_engine, names", [
        (liveness_engine, set_liveness_engine, ("bitset", "sets")),
        (sim_engine, set_sim_engine, ("predecode", "interp", "batch")),
        (regalloc_engine, set_regalloc_engine,
         ("chaitin", "ssa", "ssa-everywhere")),
    ], ids=["liveness", "sim", "regalloc"])
    def test_key_follows_engine_switched_after_construction(
            self, cache, get_engine, set_engine, names):
        # the engines are read when a key is computed, not when the
        # cache is built: an artifact stored under one engine is never
        # returned under another
        previous = get_engine()
        try:
            set_engine(names[0])
            first = cache.key("src", "cfg")
            cache.put(first, "from " + names[0])
            for name in names[1:]:
                set_engine(name)
                key = cache.key("src", "cfg")
                assert key != first
                assert cache.get(key) == (False, None)
            set_engine(names[0])
            assert cache.get(cache.key("src", "cfg")) == \
                (True, "from " + names[0])
        finally:
            set_engine(previous)


class TestPersistence:
    def test_survives_new_handle(self, tmp_path):
        root = str(tmp_path / "cache")
        first = ArtifactCache(root, version="v")
        key = first.key("src", "cfg")
        first.put(key, [1, 2, 3])
        second = ArtifactCache(root, version="v")
        hit, value = second.get(second.key("src", "cfg"))
        assert hit and value == [1, 2, 3]

    def test_len_counts_entries(self, cache):
        assert len(cache) == 0
        cache.put(cache.key("a", "c"), 1)
        cache.put(cache.key("b", "c"), 2)
        assert len(cache) == 2

    def test_clear_empties(self, cache):
        key = cache.key("src", "cfg")
        cache.put(key, "x")
        cache.clear()
        hit, _ = cache.get(key)
        assert not hit and len(cache) == 0

    def test_put_replaces_corrupt_incumbent(self, cache):
        key = cache.key("src", "cfg")
        cache.put(key, "good")
        with open(cache._path(key), "wb") as handle:
            handle.write(b"torn write")
        cache.put(key, "good")
        assert cache.stores == 2
        assert cache.get(key) == (True, "good")


class TestCorruptionRecovery:
    def test_garbage_entry_is_a_miss(self, cache):
        key = cache.key("src", "cfg")
        cache.put(key, {"ok": True})
        with open(cache._path(key), "wb") as handle:
            handle.write(b"\x00not a pickle at all")
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.errors == 1

    def test_corrupt_entry_is_dropped_then_rewritable(self, cache):
        key = cache.key("src", "cfg")
        cache.put(key, "good")
        with open(cache._path(key), "wb") as handle:
            handle.write(b"truncated")
        cache.get(key)
        assert not os.path.exists(cache._path(key))
        cache.put(key, "recompiled")
        assert cache.get(key) == (True, "recompiled")

    def test_truncated_pickle_recovered(self, cache):
        key = cache.key("src", "cfg")
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        hit, _ = cache.get(key)
        assert not hit and cache.errors == 1
