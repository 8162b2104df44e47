"""Deliberate miscompilation passes ("faults") for oracle validation.

A differential tester that has never caught a bug proves nothing.  Each
fault here simulates a realistic compiler-bug class by mutating a fully
compiled program; the test suite asserts that the oracle *detects* the
divergence and that the reducer shrinks a triggering program to a small
reproducer.  Faults are never applied outside the test/validation path.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..ir import Opcode, Program

FaultPass = Callable[[Program], None]

FAULTS: Dict[str, FaultPass] = {}


def fault(name: str) -> Callable[[FaultPass], FaultPass]:
    def register(fn: FaultPass) -> FaultPass:
        FAULTS[name] = fn
        return fn
    return register


def get_fault(name: str) -> FaultPass:
    if name not in FAULTS:
        raise KeyError(f"unknown fault {name!r}; have {sorted(FAULTS)}")
    return FAULTS[name]


@fault("cmp_lt_to_le")
def cmp_lt_to_le(program: Program) -> None:
    """Off-by-one comparison bug: the first ``cmp_LT`` of the entry
    function becomes ``cmp_LE`` (a classic loop-bound miscompile)."""
    for block in program.entry.blocks:
        for instr in block.instructions:
            if instr.opcode is Opcode.CMPLT:
                instr.opcode = Opcode.CMPLE
                return


@fault("spill_offset_skew")
def spill_offset_skew(program: Program) -> None:
    """Slot-aliasing bug: the last stack reload of each function reads
    4 bytes past its slot — the shape a broken compaction would have."""
    for fn in program.functions.values():
        last = None
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.opcode in (Opcode.RELOAD, Opcode.FRELOAD):
                    last = instr
        if last is not None:
            last.imm += 4
            fn.frame_size = max(fn.frame_size, last.imm + 8)


@fault("drop_spill_store")
def drop_spill_store(program: Program) -> None:
    """Lost-store bug: the first stack spill store of the entry function
    is deleted, so the later reload reads a stale or unwritten slot."""
    for block in program.entry.blocks:
        for i, instr in enumerate(block.instructions):
            if instr.opcode in (Opcode.SPILL, Opcode.FSPILL):
                del block.instructions[i]
                return


@fault("ccm_alias")
def ccm_alias(program: Program) -> None:
    """CCM slot-merge bug: every CCM access of the entry function is
    redirected to offset 0, aliasing all promoted webs — the failure
    mode the compaction/assignment interference analysis exists to
    prevent."""
    for block in program.entry.blocks:
        for instr in block.instructions:
            if instr.meta.is_ccm:
                instr.imm = 0


@fault("ccm_slot_past_limit")
def ccm_slot_past_limit(program: Program) -> None:
    """Out-of-bounds CCM slot: the highest CCM slot of the entry
    function moves 1 MiB up, past any configured CCM — every store and
    load of it together, so the values still agree and only the bound is
    broken.  This is what a CCM-size reuse bug would produce: an
    allocation replayed at a size its accepted ranges do not fit."""
    accesses = [instr for block in program.entry.blocks
                for instr in block.instructions if instr.meta.is_ccm]
    if accesses:
        top = max(instr.imm for instr in accesses)
        for instr in accesses:
            if instr.imm == top:
                instr.imm += 1 << 20
