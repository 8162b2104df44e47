"""Parallel sweep engine: ordering, equivalence with the serial path,
and warm-cache behavior for both the harness and the difftest lattice."""

import json

import pytest

from repro.difftest.runner import DiffConfig, run_fuzz
from repro.exec import ArtifactCache, JobPool, SweepStats
from repro.harness.experiment import ExperimentRunner

WORKLOADS = ["decomp", "urand", "svd"]

#: small but representative lattice so the 10-seed batches stay fast
CONFIGS = [
    DiffConfig("baseline", True, False, 64),
    DiffConfig("postpass", True, False, 64),
    DiffConfig("postpass_cg", True, True, 64),
    DiffConfig("integrated", True, False, 64),
    DiffConfig("integrated", False, True, 0),
]


def _square(n):
    return n * n


def _maybe_fail(n):
    if n == 2:
        raise ValueError("boom")
    return n


def _map(fn, items, jobs):
    with JobPool(jobs) as pool:
        return list(pool.map(fn, items))


class TestRunJobs:
    """``JobPool.map``: one flat batch of jobs."""

    def test_serial_order(self):
        assert _map(_square, [3, 1, 2], jobs=1) == \
            [(3, 9), (1, 1), (2, 4)]

    def test_parallel_preserves_submission_order(self):
        assert _map(_square, list(range(20)), jobs=4) == \
            [(n, n * n) for n in range(20)]

    def test_parallel_matches_serial(self):
        items = list(range(10))
        assert _map(_square, items, jobs=4) == _map(_square, items, jobs=1)

    def test_stop_when_halts_early(self):
        seen = []

        def stop():
            return len(seen) >= 2

        with JobPool(1) as pool:
            for item, result in pool.map(_square, range(100),
                                         stop_when=stop):
                seen.append(item)
        assert seen == [0, 1]

    def test_job_exception_propagates_serial(self):
        with pytest.raises(ValueError):
            _map(_maybe_fail, [1, 2, 3], jobs=1)

    def test_job_exception_propagates_parallel(self):
        with pytest.raises(ValueError):
            _map(_maybe_fail, [1, 2, 3], jobs=4)

    def test_single_item_never_forks(self):
        assert _map(_square, [7], jobs=8) == [(7, 49)]


def _sweep_json(jobs, artifacts=None):
    runner = ExperimentRunner(jobs=jobs, artifacts=artifacts)
    rows = []
    for variant in ("baseline", "postpass_cg"):
        results = runner.run_all(variant, 512, WORKLOADS)
        rows.extend(results[name].to_json() for name in WORKLOADS)
    return json.dumps(rows, sort_keys=True), runner.stats


class TestHarnessEquivalence:
    def test_parallel_sweep_bit_identical_to_serial(self):
        serial, _ = _sweep_json(jobs=1)
        parallel, _ = _sweep_json(jobs=4)
        assert serial == parallel

    def test_warm_artifact_cache_bit_identical_and_hot(self, tmp_path):
        artifacts = ArtifactCache(str(tmp_path / "cache"))
        cold, cold_stats = _sweep_json(jobs=1, artifacts=artifacts)
        assert cold_stats.cache_hits == 0
        warm, warm_stats = _sweep_json(
            jobs=1, artifacts=ArtifactCache(str(tmp_path / "cache")))
        assert warm == cold
        assert warm_stats.cache_hit_rate == 1.0

    def test_run_all_rows_in_suite_order(self):
        runner = ExperimentRunner(jobs=4)
        results = runner.run_all("baseline", 512, WORKLOADS)
        assert list(results) == WORKLOADS


def _fuzz_json(jobs, artifacts=None, stats=None):
    report = run_fuzz(range(10), CONFIGS, jobs=jobs, artifacts=artifacts,
                      stats=stats)
    payload = report.to_json()
    payload.pop("elapsed_s")        # wall clock is the one volatile field
    return json.dumps(payload, sort_keys=True)


class TestDifftestEquivalence:
    def test_ten_seed_batch_identical_at_j1_and_j4(self):
        assert _fuzz_json(jobs=1) == _fuzz_json(jobs=4)

    def test_warm_cache_identical_and_hot(self, tmp_path):
        artifacts = ArtifactCache(str(tmp_path / "cache"))
        cold = _fuzz_json(jobs=1, artifacts=artifacts)
        warm_stats = SweepStats()
        warm = _fuzz_json(jobs=1,
                          artifacts=ArtifactCache(str(tmp_path / "cache")),
                          stats=warm_stats)
        assert warm == cold
        assert warm_stats.cache_hits == 10
        assert warm_stats.cache_hit_rate == 1.0

    def test_progress_called_in_seed_order(self):
        order = []
        run_fuzz(range(6), CONFIGS[:2], jobs=4,
                 progress=lambda seed, result: order.append(seed))
        assert order == list(range(6))


class TestSweepStats:
    def test_stage_timings_collected(self):
        stats = SweepStats()
        run_fuzz(range(2), CONFIGS[:2], jobs=1, stats=stats)
        assert stats.jobs_total == 2
        payload = stats.to_json()
        assert payload["stages"]["check"]["calls"] == 2
        assert payload["stages"]["check"]["wall_s"] > 0
        assert payload["artifact_cache"]["hit_rate"] == 0.0
