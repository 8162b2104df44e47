"""Compile each pipeline stage once: a cache of stage snapshots.

Every sweep compiles one program under many configurations, and most of
the pipeline does not depend on the configuration.  A *cell* is one
configuration of one program (a variant and a CCM size, plus the
difftest lattice's compaction flag).  The stages and what they depend
on:

* the frontend output — the program the cache is built from;
* optimize + calling-convention lowering — the machine's register
  files (never its CCM size) and whether the optimizer runs;
* baseline (stack-spilling) allocation — the above plus the allocator
  engine and rematerialization, shared by the ``baseline``,
  ``postpass`` and ``postpass_cg`` variants (the post-pass allocators
  only retarget spill instructions after allocation);
* integrated allocation — the above plus the CCM size, but only through
  one accept test (see :class:`~repro.ccm.IntegratedCcmSlotProvider`):
  an allocation made at one size is exact for the whole interval of
  sizes its accept tests did not tell apart, so each function keeps its
  allocations with their intervals and any size inside one reuses it;
* the cell's own passes (post-pass promotion, compaction), which run
  on a :meth:`Program.clone` of the shared snapshot so the snapshot
  stays pristine;
* verification and simulation of the finished program — its exact
  structural key (:func:`~repro.ir.program_key`), the CCM size and, for
  a run, the machine's other fields and the simulator's arguments.
  Many cells finish as the same bytes, so the cache verifies each
  distinct program once and runs each distinct (program, machine) pair
  once, under the two rules :meth:`StageCache.compile` and
  :meth:`StageCache.run` state.

Snapshots are keyed by the machine with ``ccm_bytes`` zeroed, the
optimize flag, rematerialization and the allocator engine name, so two
requests under different engines never alias.
:func:`compile_program` runs the same stage functions in place on one
program, so the variant-to-passes mapping lives only here.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..ccm import (allocate_function_integrated, compact_spill_memory,
                   promote_spills_postpass)
from ..ir import Function, Program, program_key, verify_program
from ..machine import (MachineConfig, RunResult, SimulationError,
                       Simulator)
from ..machine.simulator import DEFAULT_FUEL
from ..opt import optimize_program
from ..regalloc import allocate_function, lower_calling_convention
from ..trace import trace_counter, trace_span

VARIANTS = ("baseline", "postpass", "postpass_cg", "integrated")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")


# -- the stages, one function each ---------------------------------------------


def lower_stage(prog: Program, machine: MachineConfig,
                optimize: bool = True) -> None:
    """Optimize (optionally) and lower the calling convention, in place."""
    if optimize:
        optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)


def baseline_stage(prog: Program, machine: MachineConfig, engine: str,
                   rematerialize: bool = True) -> None:
    """Stack-spilling register allocation of every function, in place."""
    for fn in prog.functions.values():
        allocate_function(fn, machine, rematerialize=rematerialize,
                          engine=engine)


def integrated_stage(fn: Function, machine: MachineConfig, engine: str,
                     rematerialize: bool = True) -> Tuple[int, Optional[int]]:
    """Integrated CCM allocation of one function, in place.  Returns the
    interval ``[lo, hi)`` of CCM sizes (``hi`` None: unbounded) for which
    the allocation is exact."""
    result = allocate_function_integrated(fn, machine, engine=engine,
                                          rematerialize=rematerialize)
    return result.ccm_exact_sizes


def finish_stage(prog: Program, machine: MachineConfig, variant: str,
                 compaction: bool = False) -> None:
    """The cell's own passes after allocation, in place."""
    if variant == "postpass":
        promote_spills_postpass(prog, machine, interprocedural=False,
                                compact_heavyweights=compaction)
    elif variant == "postpass_cg":
        promote_spills_postpass(prog, machine, interprocedural=True,
                                compact_heavyweights=compaction)
    elif compaction:
        for fn in prog.functions.values():
            compact_spill_memory(fn)


def compile_program(prog: Program, machine: MachineConfig, variant: str,
                    engine: str = "chaitin") -> None:
    """Optimize, lower, allocate (with the ``engine`` backend) and finish
    every function of ``prog`` in place under the given variant, then
    verify it."""
    _check_variant(variant)
    lower_stage(prog, machine)
    if variant == "integrated":
        for fn in prog.functions.values():
            integrated_stage(fn, machine, engine)
    else:
        baseline_stage(prog, machine, engine)
    finish_stage(prog, machine, variant)
    verify_program(prog, machine.ccm_bytes)


class Run(NamedTuple):
    """One simulation of a finished program."""

    #: the completed run, or None when the program trapped
    result: Optional[RunResult]
    #: the program trap (``kind == "trap"``) the run raised, if any
    trap: Optional[SimulationError]
    #: final contents of every global array
    globals: Dict[str, tuple]


def simulate(prog: Program, machine: MachineConfig, fuel: int = DEFAULT_FUEL,
             poison: bool = False, engine: str = "predecode") -> Run:
    """Run ``prog`` on a fresh :class:`Simulator`.  A program trap is
    part of the program's behavior and comes back in the :class:`Run`;
    machine errors (including fuel exhaustion) raise."""
    sim = Simulator(prog, machine, fuel=fuel, poison_caller_saved=poison,
                    engine=engine)
    try:
        result = sim.run()
    except SimulationError as exc:
        if exc.kind != "trap":
            raise
        return Run(None, exc, sim.globals_snapshot())
    return Run(result, None, sim.globals_snapshot())


# -- the cache -----------------------------------------------------------------


def _with_functions(template: Program, functions: List[Function]) -> Program:
    """A program with ``template``'s globals and entry, and ``functions``."""
    prog = Program(template.name)
    for fn in functions:
        prog.add_function(fn)
    for g in template.globals.values():
        prog.add_global(g)
    prog.entry_name = template.entry_name
    return prog


def _contains(sizes: Tuple[int, Optional[int]], ccm_bytes: int) -> bool:
    lo, hi = sizes
    return lo <= ccm_bytes and (hi is None or ccm_bytes < hi)


class StageCache:
    """Stage snapshots of one program, shared by all of its cells.

    ``program`` is the frontend output; it is never mutated.  The
    snapshot accessors return shared programs that callers must not
    mutate either; :meth:`compile` hands out a finished clone, which
    :meth:`run` recognizes by the key :meth:`compile` recorded for it —
    so a caller that changes a compiled program runs a changed *copy*.
    Everything lives and dies with the cache (one program's cells).
    """

    def __init__(self, program: Program):
        self.program = program
        self._lowered: Dict[tuple, Program] = {}
        self._allocated: Dict[tuple, Program] = {}
        #: allocation key -> function name -> [(exact sizes, function)]
        self._integrated: Dict[tuple, Dict[str, list]] = {}
        #: keys of finished programs that passed the verifier
        self._verified: set = set()
        #: finished program -> its key, for :meth:`run`
        self._keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: (key, machine with ccm_bytes zeroed, fuel, poison, engine)
        #: -> the last completed run
        self._runs: Dict[tuple, Run] = {}

    def lowered(self, machine: MachineConfig,
                optimize: bool = True) -> Program:
        key = (replace(machine, ccm_bytes=0), optimize)
        if key not in self._lowered:
            prog = self.program.clone()
            lower_stage(prog, machine, optimize)
            self._lowered[key] = prog
        return self._lowered[key]

    def allocated(self, machine: MachineConfig, optimize: bool = True,
                  engine: str = "chaitin",
                  rematerialize: bool = True) -> Program:
        """Baseline (stack-spilling) allocation of the lowered program."""
        key = (replace(machine, ccm_bytes=0), optimize, engine,
               rematerialize)
        if key not in self._allocated:
            prog = self.lowered(machine, optimize).clone()
            baseline_stage(prog, machine, engine, rematerialize)
            self._allocated[key] = prog
        return self._allocated[key]

    def integrated(self, machine: MachineConfig, optimize: bool = True,
                   engine: str = "chaitin",
                   rematerialize: bool = True) -> Program:
        """Integrated allocation at ``machine.ccm_bytes``: each function
        reuses a stored allocation whose exact-size interval contains
        the size, and is allocated afresh (and stored) otherwise."""
        key = (replace(machine, ccm_bytes=0), optimize, engine,
               rematerialize)
        stored = self._integrated.setdefault(key, {})
        lowered = self.lowered(machine, optimize)
        functions = []
        for name, source in lowered.functions.items():
            allocations = stored.setdefault(name, [])
            for sizes, fn in allocations:
                if _contains(sizes, machine.ccm_bytes):
                    break
            else:
                fn = source.clone()
                sizes = integrated_stage(fn, machine, engine, rematerialize)
                allocations.append((sizes, fn))
            functions.append(fn)
        return _with_functions(lowered, functions)

    def compile(self, machine: MachineConfig, variant: str,
                optimize: bool = True, engine: str = "chaitin",
                rematerialize: bool = True,
                compaction: bool = False) -> Program:
        """The finished, verified program of one cell (a fresh clone).

        The verifier runs once per distinct program: a program whose key
        already passed is accepted without it when its CCM end (the
        largest ``imm + size`` of a CCM operation) fits this cell's CCM.
        The bound on CCM slots is the verifier's only check that depends
        on the cell, and equal keys are equal bytes, so the verdict is
        the one a fresh verification would give.  Every other program
        is verified exactly as before and raises the same error."""
        _check_variant(variant)
        if variant == "integrated":
            snapshot = self.integrated(machine, optimize, engine,
                                       rematerialize)
        else:
            snapshot = self.allocated(machine, optimize, engine,
                                      rematerialize)
        prog = snapshot.clone()
        finish_stage(prog, machine, variant, compaction)
        with trace_span("stages.program_key"):
            key, ccm_end = program_key(prog)
        if key in self._verified and ccm_end <= machine.ccm_bytes:
            trace_counter("stages.verify.shared")
        else:
            verify_program(prog, machine.ccm_bytes)
            self._verified.add(key)
        self._keys[prog] = key
        return prog

    def run(self, prog: Program, machine: MachineConfig,
            fuel: int = DEFAULT_FUEL, poison: bool = False,
            engine: str = "predecode") -> Run:
        """:func:`simulate` a program :meth:`compile` returned, sharing
        one run among cells that finished as the same bytes.

        A recorded run is reused only when the key, the machine with
        ``ccm_bytes`` zeroed and the simulator arguments are all equal,
        the run completed, and every CCM byte it touched lies below
        this cell's ``ccm_bytes``: the CCM size then changes nothing the
        run did, not even the bounds trap.  Traps, machine errors and
        fuel exhaustion are never recorded, and a program this cache did
        not compile (or a changed copy of one) always runs afresh."""
        key = self._keys.get(prog)
        if key is None:
            return simulate(prog, machine, fuel, poison, engine)
        memo = (key, replace(machine, ccm_bytes=0), fuel, poison, engine)
        run = self._runs.get(memo)
        if run is not None and \
                run.result.stats.max_ccm_offset < machine.ccm_bytes:
            trace_counter("stages.run.shared")
            return run
        run = simulate(prog, machine, fuel, poison, engine)
        if run.result is not None:
            self._runs[memo] = run
        return run
