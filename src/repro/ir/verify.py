"""Structural verifier for the IR.

Run after every pass in tests: catches malformed terminators, dangling
branch targets, class mismatches, and phi inconsistencies early instead
of as mysterious simulator failures.
"""

from __future__ import annotations

from typing import List, Optional

from .function import Function, Program
from .opcodes import Opcode, info
from .operands import PhysReg, VirtualReg


class VerificationError(ValueError):
    """The IR violates a structural invariant."""


def verify_function(fn: Function, program: Program = None,
                    ccm_bytes: Optional[int] = None) -> None:
    """Check one function's structural invariants; raises on violation.

    ``ccm_bytes``, when given, bounds every CCM slot the way
    ``fn.frame_size`` bounds every stack slot."""
    if not fn.blocks:
        raise VerificationError(f"{fn.name}: no blocks")
    labels = {b.label for b in fn.blocks}
    for block in fn.blocks:
        if not block.instructions:
            raise VerificationError(f"{fn.name}/{block.label}: empty block")
        term = block.instructions[-1]
        if not term.is_branch:
            raise VerificationError(
                f"{fn.name}/{block.label}: does not end in a terminator "
                f"(ends in {term.opcode.value})")
        for i, instr in enumerate(block.instructions):
            _verify_instruction(fn, block.label, i, instr, labels, program,
                                ccm_bytes)
            if instr.is_branch and i != len(block.instructions) - 1:
                raise VerificationError(
                    f"{fn.name}/{block.label}: branch in mid-block at {i}")
    # phis must be a prefix of the block
    for block in fn.blocks:
        seen_non_phi = False
        for instr in block.instructions:
            if instr.is_phi and seen_non_phi:
                raise VerificationError(
                    f"{fn.name}/{block.label}: phi after non-phi instruction")
            if not instr.is_phi:
                seen_non_phi = True
    _verify_phi_labels(fn)
    _verify_defs(fn)


def _verify_phi_labels(fn: Function) -> None:
    """Every phi label must name an actual CFG predecessor.

    Liveness folds a phi's source into the live-out of the labeled
    block (``phi_uses_at_pred``); a label that is not a real predecessor
    silently attributes liveness to an unrelated block — a pass bug
    (typically a missed phi update after edge redirection) that
    otherwise surfaces only as a mysterious allocation difference.
    """
    preds = {b.label: set() for b in fn.blocks}
    for block in fn.blocks:
        for target in block.successor_labels():
            preds[target].add(block.label)
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            if not instr.is_phi:
                break
            for label in instr.phi_labels:
                if label not in preds[block.label]:
                    raise VerificationError(
                        f"{fn.name}/{block.label}[{idx}] phi: label "
                        f"{label!r} is not a predecessor of "
                        f"{block.label!r}")


def _verify_defs(fn: Function) -> None:
    """Every virtual register read somewhere must be written somewhere.

    Flow-insensitive on purpose: a value may be defined on only some
    paths (phi inputs, loop-carried values), but a register with *no*
    definition anywhere in the function is always a pass bug — typically
    a dropped instruction or a rename applied to uses but not defs.
    """
    defined = {p for p in fn.params if isinstance(p, VirtualReg)}
    for _, instr in fn.instructions():
        for reg in instr.dsts:
            if isinstance(reg, VirtualReg):
                defined.add(reg)
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            for reg in instr.srcs:
                if isinstance(reg, VirtualReg) and reg not in defined:
                    raise VerificationError(
                        f"{fn.name}/{block.label}[{idx}] "
                        f"{instr.opcode.value}: src {reg} is never defined "
                        f"in the function")


def _verify_instruction(fn, label, idx, instr, labels, program,
                        ccm_bytes) -> None:
    meta = info(instr.opcode)
    where = f"{fn.name}/{label}[{idx}] {instr.opcode.value}"

    if meta.n_dsts >= 0 and len(instr.dsts) != meta.n_dsts:
        raise VerificationError(
            f"{where}: expected {meta.n_dsts} dsts, got {len(instr.dsts)}")
    if meta.n_srcs >= 0 and len(instr.srcs) != meta.n_srcs:
        raise VerificationError(
            f"{where}: expected {meta.n_srcs} srcs, got {len(instr.srcs)}")

    for reg, want in zip(instr.dsts, meta.dst_classes):
        if reg.rclass is not want:
            raise VerificationError(
                f"{where}: dst {reg} has class {reg.rclass.value}, "
                f"expected {want.value}")
    for reg, want in zip(instr.srcs, meta.src_classes):
        if reg.rclass is not want:
            raise VerificationError(
                f"{where}: src {reg} has class {reg.rclass.value}, "
                f"expected {want.value}")

    if meta.has_imm and instr.imm is None:
        raise VerificationError(f"{where}: missing immediate")
    if meta.n_labels and len(instr.labels) != meta.n_labels:
        raise VerificationError(
            f"{where}: expected {meta.n_labels} labels, got {len(instr.labels)}")
    for target in instr.labels:
        if target not in labels:
            raise VerificationError(f"{where}: unknown branch target {target}")

    if instr.opcode is Opcode.PHI:
        if len(instr.srcs) != len(instr.phi_labels):
            raise VerificationError(f"{where}: phi srcs/labels length mismatch")
        for reg in instr.srcs:
            if reg.rclass is not instr.dsts[0].rclass:
                raise VerificationError(f"{where}: phi class mismatch")

    if instr.opcode in (Opcode.SPILL, Opcode.FSPILL, Opcode.RELOAD,
                        Opcode.FRELOAD, Opcode.CCMST, Opcode.FCCMST,
                        Opcode.CCMLD, Opcode.FCCMLD):
        if not isinstance(instr.imm, int) or instr.imm < 0:
            raise VerificationError(f"{where}: bad slot offset {instr.imm!r}")

    if instr.opcode in (Opcode.SPILL, Opcode.FSPILL, Opcode.RELOAD,
                        Opcode.FRELOAD):
        # stack spill slots must lie inside the declared spill area: an
        # access past fn.frame_size reads or clobbers the caller's frame
        reg = (instr.srcs or instr.dsts)[0]
        end = instr.imm + reg.rclass.size_bytes
        if end > fn.frame_size:
            raise VerificationError(
                f"{where}: stack slot [{instr.imm}, {end}) exceeds the "
                f"declared {fn.frame_size}-byte spill area")

    if ccm_bytes is not None and meta.is_ccm:
        # the static twin of the simulator's bounds trap: it also covers
        # code a run never executes
        reg = (instr.srcs or instr.dsts)[0]
        end = instr.imm + reg.rclass.size_bytes
        if end > ccm_bytes:
            raise VerificationError(
                f"{where}: CCM slot [{instr.imm}, {end}) exceeds the "
                f"{ccm_bytes}-byte CCM")

    if instr.opcode is Opcode.CALL and program is not None:
        if instr.symbol not in program.functions:
            raise VerificationError(f"{where}: unknown callee {instr.symbol}")
        callee = program.functions[instr.symbol]
        if len(instr.srcs) != len(callee.params):
            raise VerificationError(
                f"{where}: {instr.symbol} takes {len(callee.params)} args, "
                f"got {len(instr.srcs)}")
    if instr.opcode is Opcode.LOADG and program is not None:
        if instr.symbol not in program.globals:
            raise VerificationError(f"{where}: unknown global {instr.symbol}")


def verify_program(prog: Program, ccm_bytes: Optional[int] = None) -> None:
    """Check every function plus program-level references (calls,
    globals); ``ccm_bytes`` bounds the CCM slots (see verify_function)."""
    if prog.entry_name not in prog.functions:
        raise VerificationError(f"no entry function {prog.entry_name!r}")
    for fn in prog.functions.values():
        verify_function(fn, prog, ccm_bytes)


def check_no_virtual_registers(fn: Function) -> None:
    """Post-allocation invariant: only physical registers remain."""
    for block in fn.blocks:
        for instr in block.instructions:
            for reg in instr.regs():
                if isinstance(reg, VirtualReg):
                    raise VerificationError(
                        f"{fn.name}/{block.label}: virtual register {reg} "
                        f"survived allocation in {instr!r}")
