"""Concurrency stress for the artifact store and pool teardown.

The cache's multi-writer story (write-once-verify publication, atomic
renames, advisory-locked LRU eviction) is exercised here with real
processes racing on one directory:

* two writers hammering the same keys must never produce a torn or
  wrong entry, and first-publish-wins must hold;
* a reader racing a concurrent evictor must only ever observe a clean
  miss or the correct value — never an exception, never garbage.

The :class:`~repro.exec.JobPool` bounded-shutdown contract rides along:
``close()`` must reap every worker within its drain window, clean or
not, so a Ctrl-C'd sweep or a SIGTERM'd daemon cannot orphan processes.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.exec import ArtifactCache, JobPool
from repro.exec.artifacts import parse_bytes

KEYS = [f"{i:02x}" * 32 for i in range(8)]       # 8 distinct 64-hex keys


def _value_for(key):
    """The one true value of a content-addressed key (deterministic, a
    few hundred bytes so sizes are meaningful for budgets)."""
    return {"key": key, "payload": key * 8, "rows": list(range(32))}


# -- module-level workers (must pickle / re-import under multiprocessing) -----


def _writer_proc(root, keys, rounds, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    for _ in range(rounds):
        for key in keys:
            cache.put(key, _value_for(key))


def _evictor_proc(root, budget, stop_after_s, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        cache.evict(budget)


def _churn_writer_proc(root, keys, stop_after_s, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        for key in keys:
            cache.put(key, _value_for(key))


def _reader_proc(root, keys, stop_after_s, barrier, failures):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        for key in keys:
            try:
                hit, value = cache.get(key)
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.put(f"get({key[:8]}) raised {exc!r}")
                return
            if hit and value != _value_for(key):
                failures.put(f"get({key[:8]}) returned a wrong value")
                return
    # torn entries would surface as recovered corruption; atomic
    # publication means there must be none
    if cache.errors:
        failures.put(f"reader recovered {cache.errors} corrupt entries")


def _run(procs, timeout=60):
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout)
        assert not p.is_alive(), "stress worker wedged"
        assert p.exitcode == 0


@pytest.fixture
def mp():
    try:
        ctx = multiprocessing.get_context("fork")
        # probe that primitives actually work on this host
        ctx.Barrier(1)
    except (ValueError, OSError):
        pytest.skip("host lacks working multiprocessing primitives")
    return ctx


class TestConcurrentWriters:
    def test_racing_writers_one_key_never_corrupt(self, tmp_path, mp):
        root = str(tmp_path / "cache")
        barrier = mp.Barrier(2)
        _run([mp.Process(target=_writer_proc,
                         args=(root, KEYS[:1], 50, barrier))
              for _ in range(2)])
        cache = ArtifactCache(root, version="stress")
        hit, value = cache.get(KEYS[0])
        assert hit and value == _value_for(KEYS[0])
        assert cache.errors == 0

    def test_first_publish_wins_under_contention(self, tmp_path, mp):
        root = str(tmp_path / "cache")
        barrier = mp.Barrier(3)
        _run([mp.Process(target=_writer_proc,
                         args=(root, KEYS, 20, barrier))
              for _ in range(3)])
        cache = ArtifactCache(root, version="stress")
        assert len(cache) == len(KEYS)
        for key in KEYS:
            hit, value = cache.get(key)
            assert hit and value == _value_for(key)
        assert cache.errors == 0

    def test_reader_mid_eviction_sees_miss_or_value(self, tmp_path, mp):
        """The acceptance scenario: writers churn entries, an evictor
        sweeps them away on a tiny budget, and a reader must only ever
        see clean misses or correct values."""
        root = str(tmp_path / "cache")
        seconds = 2.0
        failures = mp.Queue()
        barrier = mp.Barrier(3)
        _run([
            mp.Process(target=_churn_writer_proc,
                       args=(root, KEYS, seconds, barrier)),
            mp.Process(target=_evictor_proc,
                       args=(root, 1024, seconds, barrier)),
            mp.Process(target=_reader_proc,
                       args=(root, KEYS, seconds, barrier, failures)),
        ])
        assert failures.empty(), failures.get()


class TestBudgetedEviction:
    def _fill(self, cache, n):
        keys = KEYS[:n]
        for key in keys:
            cache.put(key, _value_for(key))
        return keys

    def test_lru_order_is_the_mtime_clock(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), version="stress")
        keys = self._fill(cache, 4)
        sizes = {key: os.path.getsize(cache._path(key)) for key in keys}
        # pin mtimes explicitly: keys[0] oldest .. keys[3] newest
        for age, key in enumerate(keys):
            t = 1_000_000 + age * 100
            os.utime(cache._path(key), (t, t))
        keep_two = sizes[keys[2]] + sizes[keys[3]]
        removed = cache.evict(keep_two)
        assert removed == 2
        assert cache.evicted == 2
        assert not os.path.exists(cache._path(keys[0]))
        assert not os.path.exists(cache._path(keys[1]))
        assert cache.get(keys[2])[0] and cache.get(keys[3])[0]
        assert cache.total_bytes() <= keep_two

    def test_hit_refreshes_the_lru_clock(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), version="stress")
        keys = self._fill(cache, 2)
        old = 1_000_000
        for key in keys:
            os.utime(cache._path(key), (old, old))
        cache.get(keys[0])            # refresh: now keys[1] is the LRU
        cache.evict(os.path.getsize(cache._path(keys[0])))
        assert cache.get(keys[0])[0]
        assert not os.path.exists(cache._path(keys[1]))

    def test_put_triggers_eviction_at_budget(self, tmp_path):
        entry_size = None
        probe = ArtifactCache(str(tmp_path / "probe"), version="stress")
        probe.put(KEYS[0], _value_for(KEYS[0]))
        entry_size = probe.total_bytes()
        budget = entry_size * 3
        cache = ArtifactCache(str(tmp_path / "real"), version="stress",
                              budget_bytes=budget)
        for key in KEYS:
            cache.put(key, _value_for(key))
            time.sleep(0.002)         # keep the mtime clock monotonic
        # the opportunistic sweep keeps the store near the budget; one
        # manual sweep settles any residue from the final put
        cache.evict()
        assert cache.total_bytes() <= budget
        assert cache.evicted >= len(KEYS) - 3

    def test_eviction_without_budget_is_a_noop(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), version="stress")
        self._fill(cache, 3)
        assert cache.evict() == 0
        assert len(cache) == 3

    def test_stats_shape(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), version="stress",
                              budget_bytes=parse_bytes("1M"))
        self._fill(cache, 3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["budget_bytes"] == 1024 ** 2
        assert stats["total_bytes"] == cache.total_bytes()
        assert 1 <= stats["shards"] <= 3


# -- JobPool bounded teardown --------------------------------------------------


def _sleep_job(seconds):
    time.sleep(seconds)
    return seconds


def _quick_job(n):
    return n + 1


class TestJobPoolClose:
    def test_clean_close_returns_true(self, mp):
        pool = JobPool(jobs=2)
        if pool.serial:
            pytest.skip("no process pool on this host")
        futures = [pool.submit(_quick_job, n) for n in range(4)]
        assert [f.result() for f in futures] == [1, 2, 3, 4]
        assert pool.close() is True

    def test_close_survives_a_slow_reaper(self, mp, monkeypatch):
        """close() used to join the workers itself while the executor's
        manager thread joined them too.  Two threads then called
        waitpid() on one pid.  When the manager thread reaped a worker
        but had not yet recorded its exit code, close() got ECHILD,
        took the exited worker for a straggler and returned False.
        Widening that window must not change the answer."""
        pool = JobPool(jobs=2)
        if pool.serial:
            pytest.skip("no process pool on this host")
        futures = [pool.submit(_quick_job, n) for n in range(4)]
        assert [f.result() for f in futures] == [1, 2, 3, 4]
        closing = threading.current_thread()
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            result = real_waitpid(pid, options)
            if threading.current_thread() is not closing:
                time.sleep(0.2)   # reaped, exit code not yet recorded
            return result

        monkeypatch.setattr(os, "waitpid", waitpid)
        assert pool.close() is True

    def test_close_is_idempotent(self):
        pool = JobPool(jobs=2)
        assert pool.close() in (True, False)
        assert pool.close() is True

    def test_close_bounds_teardown_with_stuck_jobs(self, mp):
        pool = JobPool(jobs=2)
        if pool.serial:
            pytest.skip("no process pool on this host")
        pool.submit(_sleep_job, 60)
        time.sleep(0.3)               # let the worker actually start it
        start = time.monotonic()
        clean = pool.close(timeout=0.5)
        elapsed = time.monotonic() - start
        assert clean is False         # the sleeper had to be terminated
        assert elapsed < 10           # bounded, nowhere near the 60s job

    def test_submit_after_close_degrades_to_inline(self):
        pool = JobPool(jobs=2)
        pool.close()
        assert pool.submit(_quick_job, 1).result() == 2

    def test_serial_pool_close_is_trivial(self):
        pool = JobPool(jobs=1)
        assert pool.submit(_quick_job, 1).result() == 2
        assert pool.close() is True
