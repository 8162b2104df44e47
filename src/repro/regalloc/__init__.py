"""Register allocation: Chaitin-Briggs and SSA backends with pluggable
spill placement.

:func:`allocate_function` dispatches on its ``engine`` argument — the
same two-backend pattern as the liveness and simulator engines.
"""

from typing import Optional

from ..analysis import AnalysisManager
from ..ir import Function
from ..machine import MachineConfig
from .calls import ConventionError, lower_calling_convention
from .chaitin_briggs import (AllocationError, AllocationResult,
                             ChaitinBriggsAllocator, SpillLocation,
                             StackSlotProvider)
from .chaitin_briggs import allocate_function as allocate_function_chaitin
from .engine import REGALLOC_ENGINES, spill_mode_for
from .interference import (InterferenceGraph,
                           build_interference_graph, to_dot)
from .spill_costs import INFINITE, compute_spill_costs
from .ssa import SsaAllocationResult, SsaAllocator, allocate_function_ssa


def allocate_function(fn: Function, machine: MachineConfig,
                      slot_provider=None, graph_hook=None,
                      rematerialize: bool = True,
                      manager: Optional[AnalysisManager] = None,
                      engine: str = "chaitin") -> AllocationResult:
    """Allocate registers for ``fn`` in place with the selected backend."""
    if engine == "chaitin":
        return allocate_function_chaitin(fn, machine, slot_provider,
                                         graph_hook, rematerialize,
                                         manager=manager)
    return allocate_function_ssa(fn, machine, slot_provider, graph_hook,
                                 rematerialize, manager=manager,
                                 spill_mode=spill_mode_for(engine))


__all__ = [
    "ConventionError", "lower_calling_convention", "AllocationError",
    "AllocationResult", "ChaitinBriggsAllocator", "SpillLocation",
    "StackSlotProvider", "allocate_function", "allocate_function_chaitin",
    "allocate_function_ssa", "SsaAllocationResult", "SsaAllocator",
    "REGALLOC_ENGINES", "spill_mode_for",
    "InterferenceGraph", "build_interference_graph", "to_dot", "INFINITE",
    "compute_spill_costs",
]
