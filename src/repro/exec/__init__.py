"""Shared parallel execution engine for sweeps.

Every evaluation surface of this repository — the paper-table harness,
the section-4.3 ablations, and the differential-testing lattice — boils
down to the same shape of work: a large batch of independent
compile+simulate jobs whose results must be reported in a fixed,
deterministic order.  This package provides the three layers they all
share:

* :mod:`repro.exec.pool` — :class:`~repro.exec.pool.JobPool` fans jobs
  out over a ``ProcessPoolExecutor`` (``--jobs N`` / ``-j``), with a
  deterministic in-process serial path at ``-j 1``.  ``JobPool.map``
  runs one flat batch and yields results in submission order, so the
  parallel path is bit-identical to the serial one; ``submit`` serves
  schedulers that release work incrementally.
* :mod:`repro.exec.artifacts` — a content-addressed on-disk cache
  (get/put/clear) keyed by (source text, pipeline config, code
  version).  It sits *under* the existing in-memory memoization
  and makes repeat sweeps across CLI invocations near-free.
* :mod:`repro.exec.stats` — per-stage wall/CPU timing and cache
  hit-rate accounting, surfaced as ``--stats`` JSON so perf regressions
  in the compiler itself stay visible.
* :mod:`repro.exec.wholeprog` — the SCC-partitioned whole-program
  compilation driver: condense the call graph, schedule SCC waves onto
  a persistent :class:`~repro.exec.pool.JobPool` callee-before-caller,
  coalesce content-identical routine compiles, stream the results.

:mod:`repro.exec.compare` holds the single value-comparison helper the
harness verifier and the difftest oracle both use (they used to carry
two copies with different float tolerances — a program could pass one
and fail the other).
"""

from .artifacts import ArtifactCache, code_version, default_cache_dir
from .compare import FLOAT_RTOL, values_match
from .pool import JobPool, default_jobs
from .stats import StageClock, SweepStats
from .wholeprog import (SccSchedule, WholeProgramReport,
                        compile_whole_program, monolithic_report)

__all__ = [
    "ArtifactCache", "code_version", "default_cache_dir",
    "FLOAT_RTOL", "values_match",
    "JobPool", "default_jobs",
    "StageClock", "SweepStats",
    "SccSchedule", "WholeProgramReport", "compile_whole_program",
    "monolithic_report",
]
