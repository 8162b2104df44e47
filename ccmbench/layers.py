"""Per-layer tracing installed from outside the program.

The traced pass wraps the public functions of each ``repro`` module
(the layers) in span-recording wrappers.  Nothing inside the program is
changed: a wrapper replaces every module-level reference to the
original function (``from x import f`` copies the reference into the
importer, so each copy is replaced) and every class attribute for
methods.

A span records its name, its parent span, the item it belongs to (a
suite routine for ``tables``, a generator seed for ``fuzz``), its start
and its duration.  A layer's self time is its spans' duration minus the
time covered by their child spans.  The benchmark's own bookkeeping
(content fingerprints, instruction counts) runs inside a
``bench.bookkeeping`` span so that it is never charged to a layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

BOOKKEEPING = "bench.bookkeeping"


class SpanRecorder:
    """Nested spans on one thread, aggregated per layer name."""

    def __init__(self):
        self.pid = os.getpid()
        self.item: object = None
        #: (name, parent index or -1, item, start_s, dur_s)
        self.spans: List[Tuple[str, int, object, float, float]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        # open spans: [index, name, start, child_time]
        self._stack: List[list] = []
        # fingerprints of programs verified within the current item
        self._verified: Dict[object, set] = {}
        # (item, input fingerprint, options) -> {ccm_bytes: output fp}
        self._integrated: Dict[tuple, Dict[int, str]] = {}

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, self.item, 0.0, 0.0))
        frame = [index, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans closed out of order"
        index, name, start, child = frame
        dur = end - start
        self.spans[index] = (name, self.spans[index][1], self.spans[index][2],
                             start, dur)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- redundancy bookkeeping ------------------------------------------------

    def note_verify(self, fingerprint: str) -> None:
        seen = self._verified.setdefault(self.item, set())
        self.count("ir.verify_program.fingerprinted", 1)
        if fingerprint in seen:
            self.count("ir.verify_program.redundant", 1)
        seen.add(fingerprint)

    def note_integrated(self, key: tuple, ccm_bytes: int,
                        output: str) -> None:
        self._integrated.setdefault((self.item,) + key, {})[ccm_bytes] = output

    def integrated_redundancy(self) -> Tuple[int, int]:
        """(allocations equal to the next-larger CCM size's allocation,
        allocations that have a next-larger size to compare with)."""
        redundant = compared = 0
        for by_size in self._integrated.values():
            sizes = sorted(by_size)
            for small, large in zip(sizes, sizes[1:]):
                compared += 1
                redundant += by_size[small] == by_size[large]
        return redundant, compared


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _instructions(prog) -> int:
    return sum(fn.instruction_count() for fn in prog.functions.values())


# -- what to wrap --------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname`` -> layer span name."""

    where: str
    layer: str
    #: picks the item id from ``(args, kwargs)``; the item stays current
    #: until another item-setting call replaces it
    item: Optional[Callable] = None
    #: bookkeeping run on ``(recorder, args, kwargs)`` before the call,
    #: inside a bookkeeping span; returns a state for ``after``
    before: Optional[Callable] = None
    #: bookkeeping run on ``(recorder, args, kwargs, result, state)``
    #: after the call, inside a bookkeeping span
    after: Optional[Callable] = None
    #: picks a different span name per call, e.g. simulations that have
    #: a data cache attached
    rename: Optional[Callable] = None
    #: a harness, difftest or wholeprog entry point: its self time is the
    #: driver's own bookkeeping, not a compiler layer's
    driver: bool = False
    #: calls repeat exactly on every run of one seed (a pool's waits
    #: depend on which worker finishes first, so they do not)
    exact: bool = True


def _frontend_after(rec, args, kwargs, prog, state):
    rec.count("frontend.instrs_out", _instructions(prog))


def _opt_after(rec, args, kwargs, result, state):
    rec.count("opt.instrs_out", _instructions(args[0]))


def _spilled_after(rec, args, kwargs, result, state):
    rec.count("regalloc.spilled", len(result.spilled))


def _verify_before(rec, args, kwargs):
    from repro.ir import format_program
    rec.note_verify(_digest(format_program(args[0])))


def _integrated_before(rec, args, kwargs):
    from repro.ir.printer import format_function
    return _digest(format_function(args[0]))


def _integrated_after(rec, args, kwargs, result, before):
    from repro.ir.printer import format_function
    fn, machine = args[0], args[1]
    options = (kwargs.get("engine"), kwargs.get("rematerialize", True),
               machine.n_int_regs, machine.n_float_regs)
    rec.note_integrated((before,) + options, machine.ccm_bytes,
                        _digest(format_function(fn)))
    rec.count("regalloc.spilled", len(result.spilled))


def _sim_after(rec, args, kwargs, result, state):
    rec.count("machine.instructions", result.stats.instructions)


def _sim_name(args, kwargs):
    return ("machine.cache_sim" if args[0].cache is not None
            else "machine.Simulator.run")


TARGETS: Tuple[Target, ...] = (
    # drivers
    Target("repro.harness.tables:table1", "harness.table1", driver=True),
    Target("repro.harness.tables:table2", "harness.table2", driver=True),
    Target("repro.harness.tables:table3", "harness.table3", driver=True),
    Target("repro.harness.tables:table4", "harness.table4", driver=True),
    Target("repro.harness.ablation:run_ablation", "harness.run_ablation",
           driver=True),
    Target("repro.harness.experiment:ExperimentRunner.run",
           "harness.ExperimentRunner.run", item=lambda a, k: a[1],
           driver=True),
    Target("repro.difftest.runner:run_fuzz", "difftest.run_fuzz",
           driver=True),
    Target("repro.difftest.runner:check_source", "difftest.check_source",
           item=lambda a, k: k.get("seed"), driver=True),
    Target("repro.exec.wholeprog:compile_whole_program",
           "exec.wholeprog.compile_whole_program", driver=True),
    # workload construction
    Target("repro.workloads.suite:build_routine", "workloads.build_routine",
           item=lambda a, k: a[0]),
    Target("repro.difftest.gen:generate_source", "difftest.generate_source",
           item=lambda a, k: a[0]),
    Target("repro.workloads.appgen:Application.unit_source",
           "workloads.Application.unit_source"),
    Target("repro.workloads.appgen:Application.normalized_unit_source",
           "workloads.Application.normalized_unit_source"),
    # the compiler
    Target("repro.frontend.lower:compile_source", "frontend.compile_source",
           after=_frontend_after),
    Target("repro.opt.pipeline:optimize_program", "opt.optimize_program",
           after=_opt_after),
    Target("repro.regalloc.calls:lower_calling_convention",
           "regalloc.lower_calling_convention"),
    Target("repro.regalloc.chaitin_briggs:allocate_function",
           "regalloc.allocate_function", after=_spilled_after),
    Target("repro.regalloc.interference:build_interference_graph",
           "regalloc.build_interference_graph"),
    Target("repro.analysis.liveness:compute_liveness",
           "analysis.compute_liveness"),
    Target("repro.analysis.bitset:compute_liveness_masks",
           "analysis.compute_liveness_masks"),
    Target("repro.ccm.integrated:allocate_function_integrated",
           "ccm.allocate_function_integrated",
           before=_integrated_before, after=_integrated_after),
    Target("repro.ccm.postpass:promote_spills_postpass",
           "ccm.promote_spills_postpass"),
    Target("repro.ccm.compaction:compact_spill_memory",
           "ccm.compact_spill_memory"),
    Target("repro.ir.verify:verify_program", "ir.verify_program",
           before=_verify_before),
    Target("repro.ir.function:Program.clone", "ir.Program.clone"),
    Target("repro.machine.simulator:Simulator.run", "machine.Simulator.run",
           after=_sim_after, rename=_sim_name),
    # the execution engine, parent side
    Target("repro.exec.wholeprog:SccSchedule.build",
           "exec.wholeprog.schedule"),
    Target("repro.exec.pool:JobPool.submit", "exec.pool.submit"),
    Target("repro.exec.pool:JobPool.wait_any", "exec.pool.wait_any",
           exact=False),
    Target("repro.exec.wholeprog:WholeProgramReport.add_routine",
           "exec.wholeprog.add_routine"),
)

DRIVERS = frozenset(t.layer for t in TARGETS if t.driver)
INEXACT = frozenset(t.layer for t in TARGETS if not t.exact)

#: span names, including the per-call alternatives of ``rename``
LAYERS: Tuple[str, ...] = tuple(t.layer for t in TARGETS) + (
    "machine.cache_sim", BOOKKEEPING)


def _wrapper(original: Callable, target: Target, rec: SpanRecorder):
    layer, item_of, before, after, rename = (
        target.layer, target.item, target.before, target.after,
        target.rename)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            # a forked pool worker: its spans could never reach the
            # parent's recorder, so run untraced
            return original(*args, **kwargs)
        if item_of is not None:
            item = item_of(args, kwargs)
            if item is not None:
                rec.item = item
        state = None
        if before is not None:
            frame = rec.open(BOOKKEEPING)
            state = before(rec, args, kwargs)
            rec.close(frame)
        frame = rec.open(rename(args, kwargs) if rename else layer)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(frame)
        if after is not None:
            frame = rec.open(BOOKKEEPING)
            after(rec, args, kwargs, result, state)
            rec.close(frame)
        return result

    return wrapper


def _resolve(where: str):
    module_name, qualname = where.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(rec: SpanRecorder, targets=TARGETS) -> None:
    """Wrap every target for the rest of the process."""
    for target in targets:
        owner, attr = _resolve(target.where)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrapper(raw.__func__, target, rec))
            else:
                wrapped = _wrapper(raw, target, rec)
            setattr(owner, attr, wrapped)
            continue
        # a module-level function: replace every imported copy
        raw = getattr(owner, attr)
        wrapped = _wrapper(raw, target, rec)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
