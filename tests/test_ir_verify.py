"""Verifier tests: each structural invariant trips its own error."""

import pytest

from repro.ir import (BasicBlock, Function, GlobalArray, Instruction,
                      Opcode, PhysReg, Program, RegClass, VerificationError,
                      VirtualReg, check_no_virtual_registers,
                      verify_function, verify_program)


def _v(i, rc=RegClass.INT):
    return VirtualReg(i, rc)


def _fn_with(instrs):
    fn = Function("f")
    block = fn.new_block("entry")
    for instr in instrs:
        block.append(instr)
    return fn


class TestBlockStructure:
    def test_no_blocks(self):
        with pytest.raises(VerificationError, match="no blocks"):
            verify_function(Function("f"))

    def test_empty_block(self):
        fn = Function("f")
        fn.new_block("entry")
        with pytest.raises(VerificationError, match="empty block"):
            verify_function(fn)

    def test_missing_terminator(self):
        fn = _fn_with([Instruction(Opcode.LOADI, [_v(0)], [], imm=1)])
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(fn)

    def test_branch_mid_block(self):
        fn = _fn_with([
            Instruction(Opcode.RET),
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="mid-block"):
            verify_function(fn)

    def test_phi_after_non_phi(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.PHI, [_v(1)], [_v(0)], phi_labels=["entry"]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="phi after non-phi"):
            verify_function(fn)

    def test_phi_label_must_be_a_predecessor(self):
        # liveness charges a phi's source to the labeled predecessor's
        # live-out; a label naming a non-predecessor (here: a stale edge
        # left behind by a branch rewrite) must be rejected
        fn = Function("f")
        entry = fn.add_block(BasicBlock("entry"))
        other = fn.add_block(BasicBlock("other"))
        join = fn.add_block(BasicBlock("join"))
        entry.append(Instruction(Opcode.LOADI, [_v(0)], [], imm=1))
        entry.append(Instruction(Opcode.JUMP, labels=["join"]))
        other.append(Instruction(Opcode.LOADI, [_v(1)], [], imm=2))
        other.append(Instruction(Opcode.RET, srcs=[_v(1)]))
        join.append(Instruction(Opcode.PHI, [_v(2)], [_v(0), _v(1)],
                                phi_labels=["entry", "other"]))
        join.append(Instruction(Opcode.RET, srcs=[_v(2)]))
        with pytest.raises(VerificationError,
                           match="not a predecessor"):
            verify_function(fn)


class TestOperandShapes:
    def test_wrong_src_count(self):
        fn = _fn_with([
            Instruction(Opcode.ADD, [_v(0)], [_v(1)]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="srcs"):
            verify_function(fn)

    def test_wrong_class(self):
        fn = _fn_with([
            Instruction(Opcode.ADD, [_v(0)],
                        [_v(1), _v(2, RegClass.FLOAT)]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="class"):
            verify_function(fn)

    def test_missing_immediate(self):
        fn = _fn_with([
            Instruction(Opcode.ADDI, [_v(0)], [_v(1)]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="immediate"):
            verify_function(fn)

    def test_negative_spill_offset(self):
        fn = _fn_with([
            Instruction(Opcode.SPILL, [], [_v(0)], imm=-4),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="slot offset"):
            verify_function(fn)

    def test_spill_past_frame(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.SPILL, [], [_v(0)], imm=8),
            Instruction(Opcode.RET),
        ])
        fn.frame_size = 8
        with pytest.raises(VerificationError, match="spill area"):
            verify_function(fn)

    def test_reload_respects_element_size(self):
        # an 8-byte float slot at offset 0 needs frame_size >= 8
        fn = _fn_with([
            Instruction(Opcode.FRELOAD, [_v(0, RegClass.FLOAT)], [], imm=0),
            Instruction(Opcode.RET),
        ])
        fn.frame_size = 4
        with pytest.raises(VerificationError, match="spill area"):
            verify_function(fn)
        fn.frame_size = 8
        verify_function(fn)

    def test_ccm_slot_past_limit(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.CCMST, [], [_v(0)], imm=508),
            Instruction(Opcode.RET),
        ])
        verify_function(fn, ccm_bytes=512)
        with pytest.raises(VerificationError, match="256-byte CCM"):
            verify_function(fn, ccm_bytes=256)
        verify_function(fn)     # no CCM size given: nothing to bound

    def test_float_ccm_slot_respects_element_size(self):
        # an 8-byte float slot at offset 508 ends at 516
        fn = _fn_with([
            Instruction(Opcode.FCCMLD, [_v(0, RegClass.FLOAT)], [], imm=508),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="508, 516"):
            verify_function(fn, ccm_bytes=512)
        verify_function(fn, ccm_bytes=516)

    def test_ccm_bound_covers_unexecuted_code(self):
        # the bad slot sits in a block no run reaches
        fn = Function("f")
        entry, dead = fn.new_block("entry"), fn.new_block("dead")
        entry.append(Instruction(Opcode.RET))
        dead.append(Instruction(Opcode.LOADI, [_v(0)], [], imm=1))
        dead.append(Instruction(Opcode.CCMST, [], [_v(0)], imm=64))
        dead.append(Instruction(Opcode.RET))
        with pytest.raises(VerificationError, match="64-byte CCM"):
            verify_function(fn, ccm_bytes=64)

    def test_spill_inside_frame_ok(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.SPILL, [], [_v(0)], imm=4),
            Instruction(Opcode.RET),
        ])
        fn.frame_size = 8
        verify_function(fn)

    def test_undefined_source_register(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.ADD, [_v(1)], [_v(0), _v(9)]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="never defined"):
            verify_function(fn)

    def test_param_counts_as_definition(self):
        fn = Function("f", params=[_v(7)])
        block = fn.new_block("entry")
        block.append(Instruction(Opcode.ADDI, [_v(0)], [_v(7)], imm=1))
        block.append(Instruction(Opcode.RET))
        verify_function(fn)

    def test_unknown_branch_target(self):
        fn = _fn_with([Instruction(Opcode.JUMP, labels=["nowhere"])])
        with pytest.raises(VerificationError, match="branch target"):
            verify_function(fn)

    def test_phi_length_mismatch(self):
        fn = _fn_with([
            Instruction(Opcode.PHI, [_v(0)], [_v(1), _v(2)],
                        phi_labels=["entry"]),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="length mismatch"):
            verify_function(fn)


class TestProgramLevel:
    def _program(self):
        prog = Program()
        fn = _fn_with([Instruction(Opcode.RET)])
        fn.name = "main"
        prog.add_function(fn)
        return prog

    def test_missing_entry(self):
        prog = Program()
        with pytest.raises(VerificationError, match="entry"):
            verify_program(prog)

    def test_unknown_callee(self):
        prog = self._program()
        prog.entry.entry.instructions.insert(
            0, Instruction(Opcode.CALL, [], [], symbol="ghost"))
        with pytest.raises(VerificationError, match="unknown callee"):
            verify_program(prog)

    def test_call_arity(self):
        prog = self._program()
        callee = Function("callee", params=[_v(0)])
        callee.new_block("entry").append(Instruction(Opcode.RET))
        prog.add_function(callee)
        prog.entry.entry.instructions.insert(
            0, Instruction(Opcode.CALL, [], [], symbol="callee"))
        with pytest.raises(VerificationError, match="takes 1 args"):
            verify_program(prog)

    def test_unknown_global(self):
        prog = self._program()
        prog.entry.entry.instructions.insert(
            0, Instruction(Opcode.LOADG, [_v(0)], [], symbol="ghost"))
        with pytest.raises(VerificationError, match="unknown global"):
            verify_program(prog)

    def test_known_global_ok(self):
        prog = self._program()
        prog.add_global(GlobalArray("table", 8, RegClass.INT))
        prog.entry.entry.instructions.insert(
            0, Instruction(Opcode.LOADG, [_v(0)], [], symbol="table"))
        verify_program(prog)


class TestNoVirtualRegisters:
    def test_accepts_physical_only(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [PhysReg(0, RegClass.INT)], [], imm=1),
            Instruction(Opcode.RET),
        ])
        check_no_virtual_registers(fn)

    def test_rejects_virtual(self):
        fn = _fn_with([
            Instruction(Opcode.LOADI, [_v(0)], [], imm=1),
            Instruction(Opcode.RET),
        ])
        with pytest.raises(VerificationError, match="survived allocation"):
            check_no_virtual_registers(fn)
