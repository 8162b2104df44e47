"""Exact structural program keys (:mod:`repro.ir.key`).

Equal keys must mean equal bytes to the verifier and the simulator:
every field they read changes the key, comments do not, and values
Python equality blurs (``0.0 == -0.0``, ``1 == 1.0``, ``True == 1``,
``VirtualReg(3) == PhysReg(3)`` by hash) stay apart.  ``ccm_end`` is the
largest ``imm + size`` of a CCM operation.
"""

import pytest

from repro.ir import (GlobalArray, Opcode, PhysReg, RegClass, VirtualReg,
                      function_key, parse_program, program_key)

TEXT = """
.program p
.global A 16 int = 1,2,3,4
.global F 16 float = 0.5,1.5
.func main()
entry:
    loadI 1 => r1
    loadFI 0.0 => f1
    ccmst r1 => [12]
    fccmst f1 => [40]
    ccmld [12] => r2
    ret r2
.endfunc
"""


def _program():
    return parse_program(TEXT)


def _key(prog):
    return program_key(prog)[0]


def _first(prog, opcode):
    for block in prog.functions["main"].blocks:
        for instr in block.instructions:
            if instr.opcode is opcode:
                return instr
    raise AssertionError(opcode)


def test_clones_and_reparses_share_a_key():
    prog = _program()
    assert _key(prog) == _key(prog.clone()) == _key(_program())
    assert hash(_key(prog)) == hash(_key(_program()))


def test_ccm_end_is_largest_ccm_slot_end():
    assert program_key(_program())[1] == 48      # fccmst at 40, 8 bytes
    prog = parse_program(".program p\n.func main()\nentry:\n"
                         "    loadI 1 => r0\n    ret r0\n.endfunc\n")
    assert program_key(prog)[1] == 0


def test_comments_do_not_change_the_key():
    prog = _program()
    _first(prog, Opcode.LOADI).comment = "rematerialized"
    assert _key(prog) == _key(_program())


@pytest.mark.parametrize("mutate", [
    lambda p: setattr(_first(p, Opcode.LOADFI), "imm", -0.0),
    lambda p: setattr(_first(p, Opcode.LOADI), "imm", 1.0),
    lambda p: setattr(_first(p, Opcode.LOADI), "imm", True),
    lambda p: setattr(_first(p, Opcode.LOADI), "imm", 2),
    lambda p: setattr(_first(p, Opcode.CCMST), "imm", 16),
    lambda p: setattr(_first(p, Opcode.LOADI), "opcode", Opcode.NOP),
    lambda p: _first(p, Opcode.LOADI).dsts.__setitem__(
        0, VirtualReg(1, RegClass.INT)),
    lambda p: _first(p, Opcode.CCMST).srcs.__setitem__(
        0, PhysReg(2, RegClass.INT)),
    lambda p: setattr(p.functions["main"], "frame_size", 8),
    lambda p: p.functions["main"].params.append(PhysReg(1, RegClass.INT)),
    lambda p: setattr(p.functions["main"].blocks[0], "label", "start"),
    lambda p: setattr(p, "entry_name", "other"),
    lambda p: setattr(p.globals["F"], "init", [-0.0, 1.5]),
    lambda p: setattr(p.globals["A"], "init", [1, 2, 3, 4.0]),
    lambda p: setattr(p.globals["A"], "size_bytes", 32),
    lambda p: p.add_global(GlobalArray("B", 8, RegClass.INT)),
], ids=["float-zero-sign", "int-vs-float", "bool-vs-int", "imm", "ccm-imm",
        "opcode", "virtual-vs-physical", "register-index", "frame-size",
        "params", "label", "entry", "global-float-init", "global-int-init",
        "global-size", "new-global"])
def test_every_read_field_changes_the_key(mutate):
    prog = _program()
    mutate(prog)
    assert _key(prog) != _key(_program())


def test_labels_symbols_and_phi_labels_are_keyed():
    fn = _program().functions["main"]
    base = function_key(fn)[0]
    instr = fn.blocks[0].instructions[-1]
    for field, value in (("labels", ["x"]), ("symbol", "g"),
                         ("phi_labels", ["entry"])):
        old = getattr(instr, field)
        setattr(instr, field, value)
        assert function_key(fn)[0] != base, field
        setattr(instr, field, old)
    assert function_key(fn)[0] == base
