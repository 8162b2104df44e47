"""Artifact-cache behavior: keying, persistence, corruption recovery,
and the engine-named keys of the harness and difftest jobs."""

import os

import pytest

from repro.difftest import config_lattice, run_fuzz
from repro.difftest.runner import _lattice_descriptor
from repro.exec import ArtifactCache, SweepStats, code_version
from repro.exec.stages import compile_program
from repro.exec.wholeprog import _job_config
from repro.harness import ExperimentRunner
from repro.harness.ablation import _cell_key
from repro.harness.experiment import VariantResult, _variant_descriptor
from repro.machine import MachineConfig, PAPER_MACHINE_512, Simulator
from repro.workloads.suite import build_routine


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


#: what every golden key below is computed over
GOLDEN_SOURCE = "func main(): int { return 1 }"


class TestGoldenKeys:
    """Default-engine keys are pinned to literal digests, so warm local
    caches and restored CI caches keep hitting after a refactor of how
    the descriptors are built."""

    @pytest.fixture
    def golden(self, tmp_path):
        return ArtifactCache(str(tmp_path), version="v")

    def test_harness_cell(self, golden):
        config = _variant_descriptor("integrated", PAPER_MACHINE_512, True,
                                     "chaitin")
        assert golden.key(GOLDEN_SOURCE, config) == (
            "ad7c73fc685463090a86cffaf2fa1cac"
            "4130bbca0a92850e9f0af036a4d160d7")

    def test_harness_reference(self, golden):
        assert golden.key(GOLDEN_SOURCE, "harness:reference") == (
            "0355f44b384609c6994a51c96bab071a"
            "e0305664a7e4b880ac826a35f371eb01")

    def test_ablation_cell(self, golden):
        key = _cell_key(golden, GOLDEN_SOURCE, "ccm",
                        MachineConfig(ccm_bytes=1024), "chaitin")
        assert key == ("4c75e0e6ae7fad77c4ad040314affa6d"
                       "ac1fad40712b8076b1f4d7874867cb84")

    def test_difftest_lattice(self, golden):
        assert golden.key(GOLDEN_SOURCE,
                          _lattice_descriptor(config_lattice())) == (
            "c018c778eb7596482044b146aac1e8d3"
            "25f975a16f1f6826b93986d6b66f47a5")
        allocators = config_lattice(
            allocators=("chaitin", "ssa", "ssa-noremat"))
        assert golden.key(GOLDEN_SOURCE,
                          _lattice_descriptor(allocators)) == (
            "2998aa50440841375e41ca48f5cb55c7"
            "9b4b55687a7a61c0041a2b17d4247340")

    def test_wholeprog_job(self, golden):
        config = _job_config(PAPER_MACHINE_512, (("leaf", 16), ("mid", 48)))
        assert golden.key(GOLDEN_SOURCE, config) == (
            "8bedda195d450dbecb6dc626b51b2997"
            "ede3e668c485f93a2694caa80ebd0051")

    def test_non_default_engines_get_their_own_keys(self, golden):
        machine = MachineConfig(ccm_bytes=1024)
        assert len({_variant_descriptor("baseline", machine, True, name)
                    for name in ("chaitin", "ssa", "ssa-everywhere")}) == 3
        assert len({_cell_key(golden, GOLDEN_SOURCE, "ccm", machine, name)
                    for name in ("chaitin", "ssa", "ssa-everywhere")}) == 3


class TestEngineAliasing:
    """One process, one artifact directory: a job run under another
    engine never replays an artifact the default engine produced."""

    WORKLOAD, VARIANT, CCM = "colbur", "integrated", 512

    def _fresh_row(self, allocator):
        prog = build_routine(self.WORKLOAD)
        compile_program(prog, PAPER_MACHINE_512, self.VARIANT, allocator)
        run = Simulator(prog, PAPER_MACHINE_512,
                        poison_caller_saved=True).run()
        return VariantResult(
            self.WORKLOAD, self.VARIANT, self.CCM, run.value, run.stats,
            {name: fn.frame_size for name, fn in prog.functions.items()},
            {name: fn.ccm_high_water
             for name, fn in prog.functions.items()}).to_json()

    def _row(self, root, **kwargs):
        runner = ExperimentRunner(artifacts=ArtifactCache(root), **kwargs)
        row = runner.run(self.WORKLOAD, self.VARIANT, self.CCM).to_json()
        return row, runner.stats

    def test_harness_allocator_switch_misses(self, tmp_path):
        root = str(tmp_path / "cache")
        chaitin_row, stats = self._row(root)
        assert stats.cache_hits == 0 and "reference" in stats.stages
        ssa_row, stats = self._row(root, allocator="ssa")
        # the cell misses, but the unallocated reference is shared
        assert stats.cache_hits == 0
        assert "reference" not in stats.stages
        assert len(ArtifactCache(root)) == 3
        assert ssa_row == self._fresh_row("ssa")
        assert ssa_row != chaitin_row
        # and each engine's entry is still there for its own runs
        assert self._row(root)[0] == chaitin_row
        again, stats = self._row(root, allocator="ssa")
        assert again == ssa_row and stats.cache_hits == 1

    def test_difftest_sim_engine_switch_misses(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        configs = config_lattice((64,))

        def hits(**kwargs):
            stats = SweepStats()
            report = run_fuzz([3], configs, artifacts=cache, stats=stats,
                              **kwargs)
            assert report.seeds_run == 1 and not report.divergences
            return stats.cache_hits

        assert hits() == 0
        assert hits(sim_engine="interp") == 0
        assert hits() == 1
        assert hits(sim_engine="interp") == 1


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
