"""Unit tests for the SSA-based register allocator family.

Covers the ``engine`` argument of the dispatcher in
:func:`repro.regalloc.allocate_function`, behavioral equivalence of both
SSA spill variants against Chaitin-Briggs on the canonical programs,
out-of-SSA parallel-copy resolution (including swap cycles), the CCM
slot-provider/graph-hook integration, and the ``regalloc.ssa.*`` trace
counters.
"""

import copy

import pytest

from conftest import build_loop_sum_program, simulate

from repro.analysis import AnalysisManager
from repro.frontend import compile_source
from repro.ir import (RegClass, check_no_virtual_registers, verify_program)
from repro.machine import PAPER_MACHINE_512, Simulator
from repro.regalloc import (SsaAllocationResult, SsaAllocator,
                            allocate_function, allocate_function_ssa,
                            lower_calling_convention, spill_mode_for)
from repro.trace import TraceRecorder, install, recording

ENGINES = ("chaitin", "ssa", "ssa-everywhere")

SWAP_SOURCE = """
func main(): int {
  var a: int = 1
  var b: int = 2
  var i: int = 0
  while (i < 5) {
    var t: int = a
    a = b
    b = t
    i = i + 1
  }
  return a * 10 + b
}
"""

ROTATE_SOURCE = """
func main(): int {
  var a: int = 1
  var b: int = 2
  var c: int = 3
  var d: int = 4
  var i: int = 0
  while (i < 7) {
    var t: int = a
    a = b
    b = c
    c = d
    d = t
    i = i + 1
  }
  return ((a * 10 + b) * 10 + c) * 10 + d
}
"""


PRESSURE_SOURCE = """
func main(): int {
  var a: int = 1
  var b: int = 2
  var c: int = 3
  var d: int = 4
  var e: int = 5
  var f: int = 6
  var g: int = 7
  var h: int = 8
  var i: int = 0
  var s: int = 0
  while (i < 3) {
    s = s + a + b + c + d + e + f + g + h
    i = i + 1
  }
  return s + a * b + c * d + e * f + g * h
}
"""


def _lowered(source: str, machine):
    prog = compile_source(source)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
    return prog


def _allocate_all(prog, machine, engine):
    for fn in prog.functions.values():
        allocate_function(fn, machine, engine=engine)
        check_no_virtual_registers(fn)
    verify_program(prog)
    return prog


def _run_all_engines(source: str, machine):
    base = _lowered(source, machine)
    reference = Simulator(copy.deepcopy(base), machine).run().value
    outcomes = {}
    for engine in ENGINES:
        prog = _allocate_all(copy.deepcopy(base), machine, engine)
        outcomes[engine] = Simulator(prog, machine).run().value
    for engine, value in outcomes.items():
        assert value == reference, (
            f"{engine} produced {value!r}, reference {reference!r}")
    return outcomes


class TestEngineSelector:
    def test_default_is_chaitin(self, machine):
        prog = build_loop_sum_program()
        result = allocate_function(prog.functions["main"], machine)
        assert not isinstance(result, SsaAllocationResult)
        assert simulate(prog).value == 45

    def test_unknown_engine_rejected(self, machine):
        fn = build_loop_sum_program().functions["main"]
        with pytest.raises(ValueError, match="unknown regalloc engine"):
            allocate_function(fn, machine, engine="linear-scan")

    def test_spill_mode_mapping(self):
        assert spill_mode_for("ssa") == "split"
        assert spill_mode_for("ssa-everywhere") == "everywhere"

    def test_unknown_spill_mode_rejected(self):
        with pytest.raises(ValueError):
            SsaAllocator(build_loop_sum_program().functions["main"],
                         PAPER_MACHINE_512, spill_mode="sideways")

    def test_process_engine_drives_dispatcher(self, machine):
        prog = build_loop_sum_program()
        fn = prog.functions["main"]
        result = allocate_function(fn, machine, engine="ssa")
        assert isinstance(result, SsaAllocationResult)
        assert simulate(prog).value == 45


class TestDispatcher:
    def test_explicit_chaitin_is_not_ssa_result(self, machine):
        fn = build_loop_sum_program().functions["main"]
        result = allocate_function(fn, machine, engine="chaitin")
        assert not isinstance(result, SsaAllocationResult)

    @pytest.mark.parametrize("engine,mode", [("ssa", "split"),
                                             ("ssa-everywhere", "everywhere")])
    def test_ssa_engines_select_spill_mode(self, machine, engine, mode):
        prog = build_loop_sum_program()
        result = allocate_function(prog.functions["main"], machine,
                                   engine=engine)
        assert isinstance(result, SsaAllocationResult)
        assert result.spill_mode == mode
        assert simulate(prog).value == 45


class TestEquivalence:
    def test_loop_sum_all_engines_paper_machine(self, machine):
        for engine in ENGINES:
            prog = build_loop_sum_program()
            fn = prog.functions["main"]
            allocate_function(fn, machine, engine=engine)
            check_no_virtual_registers(fn)
            assert simulate(prog).value == 45

    def test_pressure_forces_spills_on_tiny_machine(self, tiny_machine):
        base = _lowered(PRESSURE_SOURCE, tiny_machine)
        reference = Simulator(copy.deepcopy(base), tiny_machine).run().value
        for engine in ("ssa", "ssa-everywhere"):
            prog = copy.deepcopy(base)
            result = allocate_function(prog.functions["main"], tiny_machine,
                                       engine=engine)
            assert result.spilled, "tiny machine must force spills"
            assert Simulator(prog, tiny_machine).run().value == reference

    def test_swap_cycle_lowered_correctly(self, machine):
        _run_all_engines(SWAP_SOURCE, machine)

    def test_rotation_cycle_lowered_correctly(self, machine):
        _run_all_engines(ROTATE_SOURCE, machine)

    def test_swap_cycle_under_pressure(self, tiny_machine):
        # the cycle breaker must find a scratch when no register is free
        _run_all_engines(SWAP_SOURCE, tiny_machine)
        _run_all_engines(ROTATE_SOURCE, tiny_machine)


class TestMaxlive:
    def test_maxlive_recorded_per_class(self, machine):
        prog = build_loop_sum_program()
        result = allocate_function_ssa(prog.functions["main"], machine)
        assert set(result.maxlive) == {RegClass.INT, RegClass.FLOAT}
        assert result.maxlive[RegClass.INT] >= 2

    def test_post_spill_maxlive_fits_machine(self, tiny_machine):
        for mode in ("split", "everywhere"):
            prog = build_loop_sum_program()
            result = allocate_function_ssa(prog.functions["main"],
                                           tiny_machine, spill_mode=mode)
            assert result.maxlive[RegClass.INT] <= tiny_machine.n_int_regs
            assert result.maxlive[RegClass.FLOAT] <= tiny_machine.n_float_regs


class TestIntegratedCcm:
    def test_integrated_scheme_runs_on_all_engines(self, tiny_machine):
        from repro.ccm.integrated import allocate_function_integrated

        base = _lowered(SWAP_SOURCE, tiny_machine)
        reference = Simulator(copy.deepcopy(base), tiny_machine).run().value
        for engine in ENGINES:
            prog = copy.deepcopy(base)
            for fn in prog.functions.values():
                allocate_function_integrated(fn, tiny_machine, engine=engine)
                check_no_virtual_registers(fn)
            verify_program(prog)
            assert Simulator(prog, tiny_machine).run().value == reference

    def test_split_mode_marks_provider_conservative(self, tiny_machine):
        from repro.ccm.integrated import IntegratedCcmSlotProvider

        fn = build_loop_sum_program().functions["main"]
        provider = IntegratedCcmSlotProvider(fn, tiny_machine)
        SsaAllocator(fn, tiny_machine, slot_provider=provider,
                     spill_mode="split")
        assert provider.conservative_owners

        fn2 = build_loop_sum_program().functions["main"]
        provider2 = IntegratedCcmSlotProvider(fn2, tiny_machine)
        SsaAllocator(fn2, tiny_machine, slot_provider=provider2,
                     spill_mode="everywhere")
        assert not provider2.conservative_owners


class TestRematerialization:
    """PRESSURE_SOURCE keeps eight constants live through a loop — on
    the tiny machine the SSA spiller must shed most of them, and every
    one is a never-killed constant the remat path should recompute
    instead of round-tripping through a slot."""

    @pytest.mark.parametrize("mode", ("split", "everywhere"))
    def test_constants_rematerialized(self, tiny_machine, mode):
        base = _lowered(PRESSURE_SOURCE, tiny_machine)
        reference = Simulator(copy.deepcopy(base), tiny_machine).run().value
        prog = copy.deepcopy(base)
        result = allocate_function_ssa(prog.functions["main"], tiny_machine,
                                       spill_mode=mode)
        assert result.rematerialized, "constants under pressure must remat"
        assert Simulator(prog, tiny_machine).run().value == reference

    def test_remat_disabled_spills_instead(self, tiny_machine):
        base = _lowered(PRESSURE_SOURCE, tiny_machine)
        reference = Simulator(copy.deepcopy(base), tiny_machine).run().value
        prog = copy.deepcopy(base)
        result = allocate_function_ssa(prog.functions["main"], tiny_machine,
                                       rematerialize=False)
        assert not result.rematerialized
        assert result.spilled
        assert Simulator(prog, tiny_machine).run().value == reference

    def test_remat_reduces_memory_ops(self, tiny_machine):
        from repro.ir import CCM_OPS, SPILL_OPS

        def ops_with(rematerialize):
            prog = _lowered(PRESSURE_SOURCE, tiny_machine)
            allocate_function_ssa(prog.functions["main"], tiny_machine,
                                  rematerialize=rematerialize)
            return sum(1 for fn in prog.functions.values()
                       for block in fn.blocks
                       for instr in block.instructions
                       if instr.opcode in SPILL_OPS
                       or instr.opcode in CCM_OPS)

        assert ops_with(True) < ops_with(False)


class TestStoreElision:
    @pytest.mark.parametrize("mode", ("split", "everywhere"))
    @pytest.mark.parametrize("rematerialize", (True, False))
    def test_no_dead_spill_stores_remain(self, tiny_machine, mode,
                                         rematerialize):
        from repro.ir import (CCM_LOADS, CCM_STORES, SPILL_LOADS,
                              SPILL_STORES)

        prog = _lowered(PRESSURE_SOURCE, tiny_machine)
        allocate_function_ssa(prog.functions["main"], tiny_machine,
                              rematerialize=rematerialize, spill_mode=mode)
        for fn in prog.functions.values():
            loaded = set()
            stored = set()
            for block in fn.blocks:
                for instr in block.instructions:
                    if instr.opcode in SPILL_LOADS:
                        loaded.add(("stack", instr.imm))
                    elif instr.opcode in CCM_LOADS:
                        loaded.add(("ccm", instr.imm))
                    elif instr.opcode in SPILL_STORES:
                        stored.add(("stack", instr.imm))
                    elif instr.opcode in CCM_STORES:
                        stored.add(("ccm", instr.imm))
            assert stored <= loaded, (
                f"{fn.name}: dead stores to {sorted(stored - loaded)}")


class TestLoopHoisting:
    def test_loop_invariant_reloads_hoisted(self, tiny_machine):
        # remat off so the spilled loop-invariant constants exercise the
        # preheader-hoisting path rather than being recomputed
        recorder = TraceRecorder()
        base = _lowered(PRESSURE_SOURCE, tiny_machine)
        reference = Simulator(copy.deepcopy(base), tiny_machine).run().value
        prog = copy.deepcopy(base)
        try:
            with recording(recorder):
                allocate_function_ssa(prog.functions["main"], tiny_machine,
                                      rematerialize=False, spill_mode="split")
        finally:
            install(None)
        assert recorder.counters.get("regalloc.ssa.hoisted", 0) > 0
        assert Simulator(prog, tiny_machine).run().value == reference


class TestUnderReliefDiagnostic:
    @pytest.mark.parametrize("mode", ("split", "everywhere"))
    @pytest.mark.parametrize("rematerialize", (True, False))
    def test_irreducible_pressure_raises_named_point(self, mode,
                                                     rematerialize):
        from repro.machine import MachineConfig
        from repro.regalloc import AllocationError

        # a binary float op needs both operands live at once; with a
        # single float register even full spilling cannot help — the
        # operands' reload temps themselves overlap.  The scan should
        # say so (naming the point) instead of burning MAX_ROUNDS
        source = """
        func main(): float {
          var a: float = 1.5
          var b: float = 2.5
          return a * b
        }
        """
        cramped = MachineConfig(n_int_regs=4, n_float_regs=1, n_args=1,
                                callee_saved_start=1)
        prog = _lowered(source, cramped)
        with pytest.raises(AllocationError, match="irreducible"):
            allocate_function_ssa(prog.functions["main"], cramped,
                                  rematerialize=rematerialize,
                                  spill_mode=mode)


class TestTraceCounters:
    def test_ssa_counters_emitted(self, tiny_machine):
        recorder = TraceRecorder()
        prog = _lowered(PRESSURE_SOURCE, tiny_machine)
        try:
            with recording(recorder):
                result = allocate_function_ssa(prog.functions["main"],
                                               tiny_machine)
        finally:
            install(None)
        for name in ("regalloc.ssa.maxlive", "regalloc.ssa.spills",
                     "regalloc.ssa.copies", "regalloc.rounds",
                     "regalloc.spilled"):
            assert name in recorder.counters, name
        assert recorder.counters["regalloc.ssa.maxlive"] > 0
        assert recorder.counters["regalloc.ssa.spills"] > 0
        # the remat count is the real one, not a hardcoded zero
        assert (recorder.counters.get("regalloc.rematerialized", 0)
                == len(result.rematerialized))
        assert recorder.counters["regalloc.rematerialized"] > 0


class TestSharedManager:
    def test_allocator_leaves_manager_consistent(self, tiny_machine):
        prog = build_loop_sum_program()
        fn = prog.functions["main"]
        manager = AnalysisManager(fn)
        allocate_function_ssa(fn, tiny_machine, manager=manager)
        # the final rewrite invalidated instruction-level analyses, so a
        # fresh query must recompute against the post-allocation IR
        liveness = manager.liveness()
        assert liveness is manager.liveness()
        assert simulate(prog, tiny_machine).value == 45
