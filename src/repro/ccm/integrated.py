"""CCM allocation integrated into the Chaitin-Briggs allocator
(paper section 3.2, Figure 2).

CCM locations appear as extra names in the register allocator's
interference graph.  On the first pass they have no interference; once
spill code targeting the CCM exists, each location is live from its
store to its last load, which forces edges between CCM locations and
live ranges.  The allocator ignores those edges while coloring and
consults them when it must spill: "a value v cannot be spilled to CCM
position m if an edge from v to m is in the interference graph" — plus
the footnote-5 refinement for values spilled in the same round.

This module implements both halves as plug-ins to
:class:`~repro.regalloc.chaitin_briggs.ChaitinBriggsAllocator`:

* :class:`CcmGraphHook` rides along the graph builder's backward walk,
  tracking which CCM byte ranges are live and adding value<->location
  edges (and location<->location overlap edges are implicit in the byte
  ranges themselves).
* :class:`IntegratedCcmSlotProvider` answers spill requests: first-fit a
  CCM byte range not excluded by interference, falling back to a stack
  slot when the CCM is exhausted or the value is live across a call
  (values resident in the CCM across a call would collide with the
  callee's CCM use; the integrated allocator keeps the conservative
  intraprocedural rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import AnalysisManager, values_live_across_calls
from ..ir import (CCM_LOADS, CCM_STORES, Function, Instruction, Opcode,
                  RegClass, VirtualReg)
from ..machine import MachineConfig
from ..regalloc.chaitin_briggs import (ChaitinBriggsAllocator, SpillLocation,
                                       StackSlotProvider)
from ..regalloc.interference import InterferenceGraph, PseudoNode


class CcmLocation(PseudoNode):
    """A byte range of the CCM, as a pseudo node in the graph."""

    __slots__ = ("offset", "size")

    def __init__(self, offset: int, size: int):
        self.offset = offset
        self.size = size

    def __eq__(self, other) -> bool:
        return (isinstance(other, CcmLocation)
                and other.offset == self.offset and other.size == self.size)

    def __hash__(self) -> int:
        # integers only: a string component would make the hash (and so
        # graph-set iteration order) PYTHONHASHSEED-dependent
        return hash((0x43434D, self.offset, self.size))

    def overlaps(self, offset: int, size: int) -> bool:
        return self.offset < offset + size and offset < self.offset + self.size

    def __repr__(self) -> str:
        return f"ccm[{self.offset}:{self.offset + self.size}]"


def _ccm_size(instr: Instruction) -> int:
    return 4 if instr.opcode in (Opcode.CCMST, Opcode.CCMLD) else 8


class CcmGraphHook:
    """Adds CCM-location liveness to the interference graph build.

    Invoked instruction-by-instruction during the same backward walk
    that builds register interference.  Maintains the set of live CCM
    locations (live from store to last load, backward: a load makes the
    location live, a store ends it) seeded per block from a quick
    block-level fixpoint computed in :meth:`begin`.
    """

    def __init__(self):
        self._live_out: Dict[str, Set[CcmLocation]] = {}
        self._current: Optional[str] = None
        self._live: Set[CcmLocation] = set()

    # -- block-level fixpoint ------------------------------------------------

    def begin(self, fn: Function, graph: InterferenceGraph,
              manager: "AnalysisManager" = None) -> None:
        from collections import deque

        from ..analysis import CFG

        cfg = manager.cfg() if manager is not None else CFG(fn)
        gen: Dict[str, Set[CcmLocation]] = {}
        kill: Dict[str, Set[CcmLocation]] = {}
        for block in fn.blocks:
            g: Set[CcmLocation] = set()
            k: Set[CcmLocation] = set()
            for instr in block.instructions:
                if instr.opcode in CCM_LOADS:
                    loc = CcmLocation(instr.imm, _ccm_size(instr))
                    if loc not in k:
                        g.add(loc)
                elif instr.opcode in CCM_STORES:
                    k.add(CcmLocation(instr.imm, _ccm_size(instr)))
            gen[block.label] = g
            kill[block.label] = k

        live_in: Dict[str, Set[CcmLocation]] = {b.label: set() for b in fn.blocks}
        self._live_out = {b.label: set() for b in fn.blocks}
        worklist = deque(cfg.postorder())
        queued = set(worklist)
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            out: Set[CcmLocation] = set()
            for succ in cfg.succs[label]:
                out |= live_in[succ]
            new_in = gen[label] | (out - kill[label])
            if out != self._live_out[label] or new_in != live_in[label]:
                self._live_out[label] = out
                live_in[label] = new_in
                for pred in cfg.preds[label]:
                    if pred not in queued:
                        worklist.append(pred)
                        queued.add(pred)
        self._current = None
        self._live = set()

    # -- per-instruction (called backward within each block) -----------------

    def visit(self, label: str, instr: Instruction, live_after: Set,
              graph: InterferenceGraph) -> None:
        if label != self._current:
            self._current = label
            self._live = set(self._live_out.get(label, ()))

        # every register defined here conflicts with live CCM locations
        for loc in self._live:
            for dst in instr.dsts:
                graph.add_pseudo_edge(dst, loc)

        if instr.opcode in CCM_STORES:
            loc = CcmLocation(instr.imm, _ccm_size(instr))
            # the location becomes live here: everything live after the
            # store conflicts with it
            for reg in live_after:
                graph.add_pseudo_edge(reg, loc)
            self._live.discard(loc)
        elif instr.opcode in CCM_LOADS:
            self._live.add(CcmLocation(instr.imm, _ccm_size(instr)))


class IntegratedCcmSlotProvider(StackSlotProvider):
    """Spill-slot provider that prefers CCM locations (Figure 2's
    emboldened "Spill (try to spill into CCM positions)")."""

    def __init__(self, fn: Function, machine: MachineConfig):
        super().__init__(fn)
        self.machine = machine
        self.ccm_assigned: Dict[VirtualReg, SpillLocation] = {}
        #: values assigned a CCM range in the current spill round, with
        #: the interference graph consulted for the footnote-5 rule
        self._round: List[Tuple[VirtualReg, int, int]] = []
        self._live_across_call: Set = set()
        #: set by the split-mode SSA allocator: its def-residency keeps
        #: uses reading the register, so an assigned CCM location can
        #: look dead (store, no loads) yet grow loads in a later
        #: re-spill round.  Block the offsets of every owner that might
        #: still overlap instead of trusting the store->load spans.
        self.conservative_owners = False
        #: reload temp -> owning spilled value (the SSA allocator's
        #: ``_temp_origin``, shared by reference).  Demoting a reused or
        #: hoisted temp re-extends its owner's location span across the
        #: *temp's* live range, so owner conflicts must be checked
        #: against the temps too, not just the owner's shrunken range.
        self.temp_origin: Dict[VirtualReg, VirtualReg] = {}
        #: the CCM size enters the allocation only through the accept
        #: test in :meth:`_find_ccm_offset`, which compares a first-fit
        #: range end (chosen without looking at the size) against it.
        #: Any size in [accepted_end, rejected_end) makes every such
        #: test come out the same, so the allocation is exact for it.
        #: ``accepted_end`` counts ranges whose spill code is elided
        #: later too; ``rejected_end`` stays None without a rejection.
        self.accepted_end = 0
        self.rejected_end: Optional[int] = None

    def begin_round(self, live_across_call: Set) -> None:
        self._round = []
        self._live_across_call = live_across_call

    def assign(self, reg, graph: InterferenceGraph) -> SpillLocation:
        size = reg.rclass.size_bytes
        offset = self._find_ccm_offset(reg, size, graph)
        if offset is None:
            return super().assign(reg, graph)
        location = SpillLocation("ccm", offset, size)
        self.ccm_assigned[reg] = location
        self._round.append((reg, offset, size))
        return location

    def _find_ccm_offset(self, reg, size: int,
                         graph: InterferenceGraph) -> Optional[int]:
        if reg in self._live_across_call:
            return None  # conservative intraprocedural rule
        blocked: List[Tuple[int, int]] = []
        for node in graph.neighbors(reg):
            if isinstance(node, CcmLocation):
                blocked.append((node.offset, node.size))
        # footnote 5: a value u cannot share a CCM range with a value p
        # spilled to it in this round when (u, p) interfere.  The class-
        # split interference graph has no int<->float edges, so same-round
        # values of different classes are conservatively never packed
        # together (their true overlap is unknown to the graph).
        for other, off, osize in self._round:
            if other.rclass is not reg.rclass or graph.interferes(reg, other):
                blocked.append((off, osize))
        if self.conservative_owners:
            # a location's future span stays within its owner's current
            # register range *or* one of its reload temps' ranges (a
            # demoted temp grows per-use loads of the owner's slot), so
            # interference with either — or a cross-class owner,
            # invisible to the class-split graph — blocks sharing
            temps_of: Dict[VirtualReg, List[VirtualReg]] = {}
            for temp, owner in self.temp_origin.items():
                temps_of.setdefault(owner, []).append(temp)
            for other, oloc in self.ccm_assigned.items():
                if other is reg:
                    continue
                if (other.rclass is not reg.rclass
                        or graph.interferes(reg, other)
                        or any(graph.interferes(reg, t)
                               for t in temps_of.get(other, ()))):
                    blocked.append((oloc.offset, oloc.size))
        offset = 0
        blocked.sort()
        for start, bsize in blocked:
            if offset < start + bsize and start < offset + size:
                offset = (start + bsize + size - 1) & ~(size - 1)
        end = offset + size
        if end > self.machine.ccm_bytes:
            if self.rejected_end is None or end < self.rejected_end:
                self.rejected_end = end
            return None
        self.accepted_end = max(self.accepted_end, end)
        return offset


class IntegratedCcmAllocator(ChaitinBriggsAllocator):
    """A Chaitin-Briggs allocator with the CCM plugged in: Figure 2 with
    the emboldened steps implemented by the hook and provider above."""

    def __init__(self, fn: Function, machine: MachineConfig,
                 manager: AnalysisManager = None,
                 rematerialize: bool = True):
        super().__init__(fn, machine,
                         slot_provider=IntegratedCcmSlotProvider(fn, machine),
                         graph_hook=CcmGraphHook(),
                         rematerialize=rematerialize, manager=manager)

    def _insert_spill_code(self, spills, graph) -> None:
        # the cached liveness is current here: nothing mutated the IR
        # since the graph build (or the coalesce pass that invalidated)
        self.slot_provider.begin_round(
            values_live_across_calls(self.fn, self.analysis.liveness()))
        super()._insert_spill_code(spills, graph)


def allocate_function_integrated(fn: Function, machine: MachineConfig,
                                 engine: Optional[str] = None,
                                 rematerialize: bool = True):
    """Allocate ``fn`` with integrated CCM spilling; returns the
    :class:`~repro.regalloc.chaitin_briggs.AllocationResult`, whose
    ``ccm_exact_sizes`` holds the CCM sizes the allocation is exact for.

    ``engine`` selects the allocator backend (default: the process-wide
    ``REPRO_REGALLOC_ENGINE``); the SSA backend plugs the same CCM slot
    provider and graph hook into its own spill machinery."""
    from ..regalloc.engine import regalloc_engine, spill_mode_for
    engine = engine or regalloc_engine()
    if engine == "chaitin":
        allocator = IntegratedCcmAllocator(fn, machine,
                                           rematerialize=rematerialize)
    else:
        from ..regalloc.ssa import SsaAllocator
        allocator = SsaAllocator(
            fn, machine, slot_provider=IntegratedCcmSlotProvider(fn, machine),
            graph_hook=CcmGraphHook(), rematerialize=rematerialize,
            spill_mode=spill_mode_for(engine))
    result = allocator.run()
    provider = allocator.slot_provider
    result.ccm_exact_sizes = (provider.accepted_end, provider.rejected_end)
    return result
