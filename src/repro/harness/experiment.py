"""Experiment runner: compile each workload under each allocator variant,
simulate it, and collect the metrics the paper's tables report.

Variants (the paper's four columns):

* ``baseline``       — Chaitin-Briggs, all spills to the stack ("Without CCM")
* ``postpass``       — baseline, then the intraprocedural post-pass CCM
                       allocator ("Post-Pass")
* ``postpass_cg``    — baseline, then the interprocedural post-pass
                       allocator ("Post-Pass w/ Call Graph")
* ``integrated``     — CCM spilling inside the allocator ("Integrated")

Results are memoized per (workload, variant, CCM size) cell because
every table and figure slices the same underlying runs.  Uncached cells
are computed one job per workload: the job compiles all of that
workload's requested cells through one
:class:`~repro.exec.stages.StageCache`, so the frontend, optimizer and
baseline allocator run once for the lot.  Under the in-memory memo sit
the two layers of :mod:`repro.exec`: ``jobs > 1`` fans the workload
jobs out over worker processes, and an
:class:`~repro.exec.ArtifactCache` persists finished cells across CLI
invocations, keyed by the workload's printed IR + the cell's pipeline
configuration (including a non-default allocator) + the package code
version.  Both layers are exact: a parallel or cache-served sweep
reports bit-identical rows to a cold serial one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ccm import compact_spill_memory
from ..exec import ArtifactCache, JobPool, StageClock, SweepStats
from ..exec.compare import values_match
from ..exec.stages import VARIANTS, StageCache, compile_program
from ..ir import Program, format_program
from ..machine import (DataCache, MachineConfig, RunStats, Simulator,
                       PAPER_MACHINE_512, PAPER_MACHINE_1024)
from ..trace import TraceRecorder, recording
from ..workloads.suite import build_routine, suite_names

#: backwards-compatible alias; the definition lives in repro.exec.compare
#: so the harness verifier and the difftest oracle share one tolerance
_values_match = values_match


@dataclass
class VariantResult:
    """One compiled+simulated configuration of one workload."""

    workload: str
    variant: str
    ccm_bytes: int
    value: object
    stats: RunStats
    spill_bytes: Dict[str, int] = field(default_factory=dict)
    ccm_high_water: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def memory_cycles(self) -> int:
        return self.stats.memory_cycles

    def to_json(self) -> dict:
        """Stable JSON row (used by the equivalence tests and --stats)."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "ccm_bytes": self.ccm_bytes,
            "value": repr(self.value),
            "cycles": self.stats.cycles,
            "memory_cycles": self.stats.memory_cycles,
            "instructions": self.stats.instructions,
            "spill_traffic": self.stats.spill_traffic,
            "ccm_traffic": self.stats.ccm_traffic,
            "spill_bytes": dict(sorted(self.spill_bytes.items())),
            "ccm_high_water": dict(sorted(self.ccm_high_water.items())),
        }


def _reference_run(prog: Program):
    """Unoptimized, unallocated execution: the semantic ground truth."""
    return Simulator(prog).run().value


def _variant_descriptor(variant: str, machine: MachineConfig,
                        verify_values: bool, allocator: str) -> str:
    """Artifact-cache pipeline-config component for one harness cell;
    the default allocator keeps the historical descriptor."""
    descriptor = f"harness:{variant}:verify={verify_values}:{machine!r}"
    if allocator != "chaitin":
        descriptor += f":regalloc={allocator}"
    return descriptor


def _workload_job(item: Tuple[str, Tuple[Tuple[str, MachineConfig], ...]],
                  build: Callable[[str], Program], verify_values: bool,
                  allocator: str,
                  cache_root: Optional[str], cache_version: Optional[str],
                  references: Optional[Dict[str, object]] = None,
                  trace: bool = False
                  ) -> Tuple[List[Tuple["VariantResult", dict]], object]:
    """One pool job: every requested (variant, machine) cell of one
    workload, compiled through one :class:`StageCache`.

    Module-level so it pickles across the process boundary.  Returns
    ``([(result, timing payload) per cell], reference value)`` — one
    payload per cell, so cache hits and misses are counted per cell;
    the reference value comes back so the parent can memoize it for
    later cells of the same workload.

    ``trace`` installs a per-job :class:`TraceRecorder` around the work
    and ships its payload back inside the last cell's timing payload
    (``payload["trace"]``); tracing never changes what the job
    computes, only what it reports, so traced and untraced sweeps
    produce bit-identical results.  A job served entirely from the
    artifact cache compiles nothing and carries no trace payload.
    """
    if not trace:
        return _workload_job_inner(item, build, verify_values, allocator,
                                   cache_root, cache_version, references)
    recorder = TraceRecorder()
    with recording(recorder):
        rows, reference = _workload_job_inner(item, build, verify_values,
                                              allocator, cache_root,
                                              cache_version, references)
    if recorder.events:
        rows[-1][1]["trace"] = recorder.to_payload()
    return rows, reference


def _workload_job_inner(item, build, verify_values, allocator, cache_root,
                        cache_version, references):
    workload, cells = item
    clocks = [StageClock() for _ in cells]
    artifacts = (ArtifactCache(cache_root, version=cache_version)
                 if cache_root is not None else None)

    with clocks[0].stage("build"):
        prog = build(workload)
    stages = StageCache(prog)
    reference = (references or {}).get(workload)
    source_text = (format_program(prog) if artifacts is not None
                   else None)
    rows = []
    for (variant, machine), clock in zip(cells, clocks):
        key = None
        if artifacts is not None:
            key = artifacts.key(source_text,
                                _variant_descriptor(variant, machine,
                                                    verify_values, allocator))
            hit, cached = artifacts.get(key)
            if hit:
                rows.append((cached, clock.to_payload(cache_hit=True)))
                continue
        if verify_values and reference is None:
            reference = _reference_value(prog, artifacts, source_text,
                                         clock)
        with clock.stage("compile"):
            compiled = stages.compile(machine, variant, engine=allocator)
        with clock.stage("simulate"):
            run = Simulator(compiled, machine,
                            poison_caller_saved=True).run()
        if verify_values and not values_match(run.value, reference):
            raise AssertionError(
                f"{workload}/{variant}: value {run.value!r} diverged "
                f"from reference {reference!r}")
        result = _variant_result(workload, variant, machine.ccm_bytes,
                                 compiled, run)
        if artifacts is not None:
            artifacts.put(key, result)
        rows.append((result, clock.to_payload(cache_hit=False)))
    if artifacts is not None:
        rows[-1][1]["cache_errors"] = artifacts.errors
        rows[-1][1]["cache_stores"] = artifacts.stores
    return rows, reference


def _reference_value(prog: Program, artifacts: Optional[ArtifactCache],
                     source_text: Optional[str], clock: StageClock):
    """The workload's reference value, from the artifact cache or run.
    The reference is unallocated, so one entry serves every allocator."""
    ref_key = None
    if artifacts is not None:
        ref_key = artifacts.key(source_text, "harness:reference")
        hit, cached = artifacts.get(ref_key)
        if hit:
            return cached
    with clock.stage("reference"):
        reference = _reference_run(prog.clone())
    if artifacts is not None:
        artifacts.put(ref_key, reference)
    return reference


def _variant_result(workload: str, variant: str, ccm_bytes: int,
                    prog: Program, run) -> "VariantResult":
    return VariantResult(
        workload, variant, ccm_bytes, run.value, run.stats,
        spill_bytes={name: fn.frame_size
                     for name, fn in prog.functions.items()},
        ccm_high_water={name: fn.ccm_high_water
                        for name, fn in prog.functions.items()})


@dataclass
class ExperimentRunner:
    """Compiles and simulates workloads, with memoization.

    ``jobs`` sets the default fan-out for :meth:`run_cells` (1 = serial
    in-process).  ``allocator`` names the register-allocator backend
    every cell compiles with (see :mod:`repro.regalloc.engine`).
    ``artifacts`` plugs in the persistent on-disk cache;
    ``stats`` accumulates per-stage timing and cache hit rates across
    everything this runner executes (pass one in to share it).
    """

    machine_512: MachineConfig = PAPER_MACHINE_512
    machine_1024: MachineConfig = PAPER_MACHINE_1024
    build: Callable[[str], Program] = None
    verify_values: bool = True
    jobs: int = 1
    allocator: str = "chaitin"
    artifacts: Optional[ArtifactCache] = None
    #: enable per-job tracing; counters aggregate into ``stats.trace``
    #: and, when ``recorder`` is set, events merge into it for export
    trace: bool = False
    recorder: Optional[TraceRecorder] = None
    stats: Optional[SweepStats] = None

    def __post_init__(self):
        if self.build is None:
            self.build = build_routine
        if self.stats is None:
            self.stats = SweepStats(jobs=max(self.jobs, 1))
        self._cache: Dict[Tuple[str, str, int], VariantResult] = {}
        self._reference: Dict[str, object] = {}

    def machine(self, ccm_bytes: int) -> MachineConfig:
        if ccm_bytes == 512:
            return self.machine_512
        if ccm_bytes == 1024:
            return self.machine_1024
        return MachineConfig(ccm_bytes=ccm_bytes)

    def reference_value(self, workload: str):
        """Unoptimized, unallocated execution: the semantic ground truth."""
        if workload not in self._reference:
            self._reference[workload] = _reference_run(self.build(workload))
        return self._reference[workload]

    def run(self, workload: str, variant: str,
            ccm_bytes: int = 512, cache: Optional[DataCache] = None
            ) -> VariantResult:
        if cache is not None:
            # A caller-supplied DataCache changes the timing model, so
            # these runs bypass both memo layers; reset it so tag state
            # and hit/miss statistics never leak from a previous run
            # (reusing a warm cache used to skew ablation numbers).
            cache.reset()
            return self._run_with_data_cache(workload, variant, ccm_bytes,
                                             cache)
        key = (workload, variant, ccm_bytes)
        if key not in self._cache:
            self.run_cells([(variant, ccm_bytes)], [workload], jobs=1)
        return self._cache[key]

    def _run_with_data_cache(self, workload: str, variant: str,
                             ccm_bytes: int,
                             cache: DataCache) -> VariantResult:
        machine = self.machine(ccm_bytes)
        prog = self.build(workload)
        compile_program(prog, machine, variant, self.allocator)
        sim = Simulator(prog, machine, cache=cache, poison_caller_saved=True)
        run = sim.run()
        if self.verify_values:
            ref = self.reference_value(workload)
            if not values_match(run.value, ref):
                raise AssertionError(
                    f"{workload}/{variant}: value {run.value!r} diverged "
                    f"from reference {ref!r}")
        return _variant_result(workload, variant, ccm_bytes, prog, run)

    def run_cells(self, cells: Sequence[Tuple[str, int]],
                  workloads: Optional[List[str]] = None,
                  jobs: Optional[int] = None) -> None:
        """Compute every missing (workload, variant, CCM size) result for
        the ``(variant, CCM size)`` cells over the suite (or a subset).

        One job per workload computes all of its missing cells through
        one stage cache, whose snapshots are dropped when the job ends.
        Serial runs go workload by workload; ``jobs > 1`` fans the
        workloads out over worker processes.  Either way the memoized
        rows are bit-identical.
        """
        names = list(workloads) if workloads is not None else suite_names()
        jobs = self.jobs if jobs is None else jobs
        cells = list(dict.fromkeys(cells))
        items = []
        for name in names:
            missing = tuple((variant, self.machine(ccm_bytes))
                            for variant, ccm_bytes in cells
                            if (name, variant, ccm_bytes) not in self._cache)
            if missing:
                items.append((name, missing))
        if jobs > 1 and len(items) > 1:
            self.stats.jobs = max(self.stats.jobs, jobs)
        job = functools.partial(
            _workload_job, build=self.build,
            verify_values=self.verify_values, allocator=self.allocator,
            cache_root=(self.artifacts.root
                        if self.artifacts is not None else None),
            cache_version=(self.artifacts.version
                           if self.artifacts is not None else None),
            references=dict(self._reference), trace=self.trace)
        with JobPool(jobs) as pool:
            for (name, missing), (rows, reference) in pool.map(job, items):
                if reference is not None and name not in self._reference:
                    self._reference[name] = reference
                for (variant, machine), (result, payload) in zip(missing,
                                                                 rows):
                    self.stats.merge_job(payload)
                    if self.recorder is not None:
                        self.recorder.merge_payload(payload.get("trace"))
                    self._cache[(name, variant, machine.ccm_bytes)] = result

    def run_all(self, variant: str, ccm_bytes: int = 512,
                workloads: Optional[List[str]] = None,
                jobs: Optional[int] = None) -> Dict[str, VariantResult]:
        """Run one variant over the whole suite (or a subset); rows come
        back in suite order (see :meth:`run_cells`)."""
        names = list(workloads) if workloads is not None else suite_names()
        self.run_cells([(variant, ccm_bytes)], names, jobs)
        return {name: self.run(name, variant, ccm_bytes) for name in names}


def compaction_measurements(workloads: Optional[List[str]] = None,
                            machine: MachineConfig = PAPER_MACHINE_512,
                            jobs: int = 1,
                            stats: Optional[SweepStats] = None,
                            allocator: str = "chaitin"):
    """Table 1 data: per-routine spill bytes before/after compaction
    under the ``allocator`` backend.  ``stats``, if given, collects the
    jobs' stage timings."""
    names = list(workloads) if workloads is not None else suite_names()
    results = []
    job = functools.partial(_compaction_job, machine=machine,
                            allocator=allocator)
    with JobPool(jobs) as pool:
        for _, (result, payload) in pool.map(job, names):
            results.append(result)
            if stats is not None:
                stats.merge_job(payload)
    return results


def _compaction_job(name: str, machine: MachineConfig, allocator: str):
    clock = StageClock()
    with clock.stage("build"):
        prog = build_routine(name)
    with clock.stage("compile"):
        compile_program(prog, machine, "baseline", allocator)
        result = compact_spill_memory(prog.functions[name])
    return result, clock.to_payload()
