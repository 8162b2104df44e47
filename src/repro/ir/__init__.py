"""ILOC-like intermediate representation.

This is the substrate the whole reproduction stands on: the paper's
compiler (the Rice Massively Scalar Compiler Project) works on ILOC, a
low-level three-address code; every pass in this repository consumes and
produces the IR defined here.
"""

from .builder import IRBuilder
from .function import BasicBlock, Function, GlobalArray, Program
from .instructions import (Instruction, make_ccm_load, make_ccm_store,
                           make_move, make_reload, make_spill)
from .key import function_key, program_key
from .opcodes import (CCM_LOADS, CCM_OPS, CCM_STORES, FROM_CCM, MOVES,
                      Opcode, OpcodeInfo, SPILL_LOADS, SPILL_OPS,
                      SPILL_STORES, TO_CCM, info)
from .operands import Label, PhysReg, RegClass, VirtualReg, reg_class
from .parser import ParseError, parse_function, parse_instruction, parse_program
from .printer import format_function, format_instruction, format_program
from .verify import (VerificationError, check_no_virtual_registers,
                     verify_function, verify_program)

__all__ = [
    "IRBuilder", "BasicBlock", "Function", "GlobalArray", "Program",
    "Instruction", "make_ccm_load", "make_ccm_store", "make_move",
    "make_reload", "make_spill", "function_key", "program_key",
    "CCM_LOADS", "CCM_OPS", "CCM_STORES", "FROM_CCM", "MOVES", "Opcode",
    "OpcodeInfo", "SPILL_LOADS", "SPILL_OPS", "SPILL_STORES", "TO_CCM",
    "info", "Label", "PhysReg", "RegClass", "VirtualReg", "reg_class",
    "ParseError", "parse_function", "parse_instruction", "parse_program",
    "format_function", "format_instruction", "format_program",
    "VerificationError", "check_no_virtual_registers", "verify_function",
    "verify_program",
]
