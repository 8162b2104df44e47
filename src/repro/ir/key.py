"""Exact structural keys for functions and programs.

Two programs with equal keys are the same bytes to every reader that
matters here: the verifier and the simulator see equal entry names,
globals, functions, parameters, frame sizes, blocks and instructions.
A key is a plain nested tuple that dicts and sets compare by equality,
not a digest, so two different programs never collide.

Register operands stay register objects: ``VirtualReg(3)`` and
``PhysReg(3)`` share a hash by design but are unequal, so rewriting one
into the other (what register allocation does) changes the key.  Python
equality blurs a few values (``0.0 == -0.0``, ``1 == 1.0``,
``True == 1``), so every float immediate and initial value is replaced
by its IEEE-754 bit pattern and every bool is tagged with its type.
Comments are left out: nothing reads them.
"""

from __future__ import annotations

import struct
from typing import Tuple

from .function import Function, Program
from .opcodes import Opcode

_float_bits = struct.Struct("<d").pack

#: bytes each CCM opcode moves; the verifier's class check pins the
#: operand class to the opcode's, so this equals the operand's size on
#: every program that verifies
_CCM_SIZE = {Opcode.CCMST: 4, Opcode.CCMLD: 4,
             Opcode.FCCMST: 8, Opcode.FCCMLD: 8}


def function_key(fn: Function) -> Tuple[tuple, int]:
    """``(key, ccm_end)`` of one function: its exact structural key and
    the largest ``imm + size`` over its CCM operations (0 if none)."""
    ccm_size = _CCM_SIZE
    ccm_end = 0
    parts = [fn.name, fn.frame_size, tuple(fn.params)]
    append = parts.append
    for block in fn.blocks:
        append(block.label)
        for i in block.instructions:
            op, imm = i.opcode, i.imm
            if op in ccm_size and isinstance(imm, int):
                end = imm + ccm_size[op]
                if end > ccm_end:
                    ccm_end = end
            if imm.__class__ is float or imm.__class__ is bool:
                imm = _value(imm)
            append((op, tuple(i.dsts), tuple(i.srcs), imm, tuple(i.labels),
                    i.symbol, tuple(i.phi_labels)))
    return tuple(parts), ccm_end


def _value(v):
    """An immediate or initial value as it goes into a key."""
    if v.__class__ is float:
        return _float_bits(v)
    if v.__class__ is bool:
        return (bool, v)
    return v


def _init_key(init):
    return None if init is None else tuple(map(_value, init))


def program_key(prog: Program) -> Tuple[tuple, int]:
    """``(key, ccm_end)`` of a whole program: the entry name, every
    global (name, size, class, initial values) and every function's key
    in order, plus the largest CCM ``imm + size`` over all functions."""
    ccm_end = 0
    functions = []
    for fn in prog.functions.values():
        key, end = function_key(fn)
        functions.append(key)
        if end > ccm_end:
            ccm_end = end
    globals_ = tuple((g.name, g.size_bytes, g.element_class,
                      _init_key(g.init)) for g in prog.globals.values())
    return (prog.entry_name, globals_, tuple(functions)), ccm_end
