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
* the cell's own passes (post-pass promotion, compaction) and the
  verifier, which run on a :meth:`Program.clone` of the shared
  snapshot so the snapshot stays pristine.

Snapshots are keyed by the machine with ``ccm_bytes`` zeroed, the
optimize flag, rematerialization and the *resolved* allocator engine
name, so switching the process-wide engine between two requests can
never alias them.
:func:`compile_program` runs the same stage functions in place on one
program, so the variant-to-passes mapping lives only here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..ccm import (allocate_function_integrated, compact_spill_memory,
                   promote_spills_postpass)
from ..ir import Function, Program, verify_program
from ..machine import MachineConfig
from ..opt import optimize_program
from ..regalloc import (allocate_function, lower_calling_convention,
                        regalloc_engine)

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


def compile_program(prog: Program, machine: MachineConfig,
                    variant: str) -> None:
    """Optimize, lower, allocate and finish every function of ``prog`` in
    place under the given variant, then verify it."""
    _check_variant(variant)
    engine = regalloc_engine()
    lower_stage(prog, machine)
    if variant == "integrated":
        for fn in prog.functions.values():
            integrated_stage(fn, machine, engine)
    else:
        baseline_stage(prog, machine, engine)
    finish_stage(prog, machine, variant)
    verify_program(prog, machine.ccm_bytes)


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
    mutate either; :meth:`compile` hands out a finished clone.
    """

    def __init__(self, program: Program):
        self.program = program
        self._lowered: Dict[tuple, Program] = {}
        self._allocated: Dict[tuple, Program] = {}
        #: allocation key -> function name -> [(exact sizes, function)]
        self._integrated: Dict[tuple, Dict[str, list]] = {}

    def lowered(self, machine: MachineConfig,
                optimize: bool = True) -> Program:
        key = (replace(machine, ccm_bytes=0), optimize)
        if key not in self._lowered:
            prog = self.program.clone()
            lower_stage(prog, machine, optimize)
            self._lowered[key] = prog
        return self._lowered[key]

    def allocated(self, machine: MachineConfig, optimize: bool = True,
                  engine: Optional[str] = None,
                  rematerialize: bool = True) -> Program:
        """Baseline (stack-spilling) allocation of the lowered program."""
        engine = engine or regalloc_engine()
        key = (replace(machine, ccm_bytes=0), optimize, engine,
               rematerialize)
        if key not in self._allocated:
            prog = self.lowered(machine, optimize).clone()
            baseline_stage(prog, machine, engine, rematerialize)
            self._allocated[key] = prog
        return self._allocated[key]

    def integrated(self, machine: MachineConfig, optimize: bool = True,
                   engine: Optional[str] = None,
                   rematerialize: bool = True) -> Program:
        """Integrated allocation at ``machine.ccm_bytes``: each function
        reuses a stored allocation whose exact-size interval contains
        the size, and is allocated afresh (and stored) otherwise."""
        engine = engine or regalloc_engine()
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
                optimize: bool = True, engine: Optional[str] = None,
                rematerialize: bool = True,
                compaction: bool = False) -> Program:
        """The finished, verified program of one cell (a fresh clone)."""
        _check_variant(variant)
        if variant == "integrated":
            snapshot = self.integrated(machine, optimize, engine,
                                       rematerialize)
        else:
            snapshot = self.allocated(machine, optimize, engine,
                                      rematerialize)
        prog = snapshot.clone()
        finish_stage(prog, machine, variant, compaction)
        verify_program(prog, machine.ccm_bytes)
        return prog
