"""Pre-decoding simulator engine: semantics pinned against the interpreter.

Every test runs the same program under both engines and asserts the
observable behaviour — return value, every ``RunStats`` field, globals,
architectural register file, exception type/kind/message — is
bit-identical.  The broad randomized sweep lives in
``test_sim_engine_fuzz.py``; this file pins the hand-written corner
cases (traps, poisoning, stall accounting, block profiling, decode-cache
invalidation) with literal expected values.
"""

from __future__ import annotations

import pytest

from repro.difftest import config_lattice
from repro.difftest.runner import _lattice_descriptor
from repro.exec import ArtifactCache
from repro.ir import PhysReg, RegClass, parse_program
from repro.machine import (CacheConfig, DataCache, MachineConfig, OutOfFuel,
                           SimulationError, Simulator)
from repro.machine import predecode
from repro.machine.predecode import decode_function
from repro.trace import TraceRecorder, recording

ENGINES = ("interp", "predecode")

PIPELINED = MachineConfig(pipelined_loads=True)

TRIVIAL = """
.program p
.func main()
entry:
    loadI 1 => %v0
    ret %v0
.endfunc
"""


def run_both(text, machine=None, entry=None, args=(), cache=False, **kwargs):
    """Run under both engines, assert identical results, return them."""
    outcomes = []
    for engine in ENGINES:
        sim = Simulator(parse_program(text), machine or MachineConfig(),
                        cache=DataCache(CacheConfig()) if cache else None,
                        engine=engine, **kwargs)
        result = sim.run(entry=entry, args=list(args))
        outcomes.append((sim, result))
    (interp_sim, interp), (pre_sim, pre) = outcomes
    assert interp.value == pre.value
    assert interp.stats == pre.stats
    assert interp_sim.globals_snapshot() == pre_sim.globals_snapshot()
    assert interp_sim.phys == pre_sim.phys
    return interp, pre


def error_both(text, machine=None, entry=None, args=(), **kwargs):
    """Assert both engines raise the same error; return the exception."""
    errors = []
    for engine in ENGINES:
        sim = Simulator(parse_program(text), machine or MachineConfig(),
                        engine=engine, **kwargs)
        with pytest.raises(SimulationError) as info:
            sim.run(entry=entry, args=list(args))
        errors.append(info.value)
    interp_exc, pre_exc = errors
    assert type(interp_exc) is type(pre_exc)
    assert interp_exc.kind == pre_exc.kind
    assert str(interp_exc) == str(pre_exc)
    return pre_exc


class TestTrapEquivalence:
    def test_integer_division_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 7 => %v0
    loadI 0 => %v1
    div %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"
        assert "division by zero" in str(exc)

    def test_modulo_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 7 => %v0
    loadI 0 => %v1
    mod %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"

    def test_negative_shift_count(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    loadI -2 => %v1
    lshift %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"

    def test_float_division_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadFI 1.0 => %w0
    loadFI 0.0 => %w1
    fdiv %w0, %w1 => %w2
    ret %w2
.endfunc
""")
        assert exc.kind == "trap"

    def test_f2i_non_finite(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadFI 1e308 => %w0
    fmult %w0, %w0 => %w1
    f2i %w1 => %v0
    ret %v0
.endfunc
""")
        assert exc.kind == "trap"

    def test_out_of_fuel(self):
        text = """
.program p
.func main()
entry:
    jump -> entry
.endfunc
"""
        errors = []
        for engine in ENGINES:
            sim = Simulator(parse_program(text), engine=engine, fuel=10)
            with pytest.raises(OutOfFuel) as info:
                sim.run()
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])

    def test_call_unknown_function(self):
        exc = error_both("""
.program p
.func main()
entry:
    call nosuch() => %v0
    ret %v0
.endfunc
""")
        assert "unknown function" in str(exc)

    def test_void_return_into_register(self):
        exc = error_both("""
.program p
.func main()
entry:
    call callee() => %v0
    ret %v0
.endfunc
.func callee()
entry:
    ret
.endfunc
""")
        assert "void" in str(exc)

    def test_call_arity_mismatch(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    call callee(%v0) => %v1
    ret %v1
.endfunc
.func callee()
entry:
    loadI 2 => %v0
    ret %v0
.endfunc
""")
        assert str(exc)

    def test_unbounded_recursion_exhausts_fuel(self):
        text = """
.program p
.func main()
entry:
    call main() => %v0
    ret %v0
.endfunc
"""
        errors = []
        for engine in ENGINES:
            sim = Simulator(parse_program(text), engine=engine, fuel=500)
            with pytest.raises(OutOfFuel) as info:
                sim.run()
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])


class TestBadReads:
    def test_undefined_register_read(self):
        exc = error_both("""
.program p
.func main()
entry:
    add %v0, %v0 => %v1
    ret %v1
.endfunc
""")
        assert "undefined" in str(exc)
        assert "%v0" in str(exc)

    def test_poisoned_register_read(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 3 => r0
    call clobber()
    addI r0, 1 => r1
    ret r1
.endfunc
.func clobber()
entry:
    ret
.endfunc
""", poison_caller_saved=True)
        assert "poisoned" in str(exc)

    def test_return_value_register_not_poisoned(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    call callee() => r0
    ret r0
.endfunc
.func callee()
entry:
    loadI 9 => %v0
    ret %v0
.endfunc
""", poison_caller_saved=True)
        assert pre.value == 9

    def test_fell_off_block_end(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
.endfunc
""")
        assert "fell off" in str(exc)


class TestMemoryAndCCM:
    def test_global_load_store_roundtrip(self):
        interp, pre = run_both("""
.program p
.global A 8 int = 5,7
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    loadI 40 => %v2
    add %v1, %v2 => %v3
    store %v3, %v0
    load %v0 => %v4
    ret %v4
.endfunc
""")
        assert pre.value == 45
        assert pre.stats.loads == 2
        assert pre.stats.stores == 1

    def test_ccm_out_of_bounds(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    ccmst %v0 => [4096]
    ret %v0
.endfunc
""", machine=MachineConfig(ccm_bytes=512))
        assert "exceeds" in str(exc)

    def test_ccm_load_unwritten(self):
        exc = error_both("""
.program p
.func main()
entry:
    ccmld [0] => %v0
    ret %v0
.endfunc
""")
        assert "unwritten" in str(exc)

    def test_ccm_roundtrip_counts(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    loadI 11 => %v0
    ccmst %v0 => [0]
    ccmld [0] => %v1
    ret %v1
.endfunc
""")
        assert pre.value == 11
        assert pre.stats.ccm_loads == 1
        assert pre.stats.ccm_stores == 1

    def test_data_cache_stats_identical(self):
        interp, pre = run_both("""
.program p
.global A 16 int = 1,2,3,4
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    load %v0 => %v2
    loadI 8 => %v3
    add %v0, %v3 => %v4
    load %v4 => %v5
    add %v1, %v2 => %v6
    add %v6, %v5 => %v7
    ret %v7
.endfunc
""", cache=True)
        assert pre.stats.cache is not None
        assert interp.stats.cache == pre.stats.cache
        assert pre.stats.cache.hits + pre.stats.cache.misses == 3


class TestStallAccounting:
    """Satellite: pipelined-load scoreboard, pinned and cross-engine."""

    LOAD_USE = """
.program p
.global A 8 int = 5,7
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    addI %v1, 1 => %v2
    ret %v2
.endfunc
"""

    def test_dependent_use_stalls_pinned(self):
        interp, pre = run_both(self.LOAD_USE, machine=PIPELINED)
        assert pre.value == 6
        # the load issues in 1 cycle; its consumer waits the rest
        latency = PIPELINED.memory_latency
        assert pre.stats.stall_cycles == latency - 1
        assert pre.stats.memory_cycles == 1
        assert interp.stats.stall_cycles == pre.stats.stall_cycles

    def test_independent_work_hides_latency(self):
        interp, pre = run_both("""
.program p
.global A 8 int = 5,7
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    loadI 1 => %v2
    loadI 2 => %v3
    loadI 3 => %v4
    loadI 4 => %v5
    addI %v1, 1 => %v6
    ret %v6
.endfunc
""", machine=PIPELINED)
        assert pre.stats.stall_cycles == 0

    def test_scoreboard_persists_across_runs(self):
        # the interpreter never resets _ready_at between run() calls; a
        # load still in flight at the end of run 1 can stall run 2
        stats = {}
        for engine in ENGINES:
            sim = Simulator(parse_program(self.LOAD_USE), PIPELINED,
                            engine=engine)
            first = sim.run()
            second = sim.run()
            stats[engine] = (first.stats, second.stats)
        assert stats["interp"] == stats["predecode"]

    def test_non_pipelined_has_no_stalls(self):
        interp, pre = run_both(self.LOAD_USE)
        assert pre.stats.stall_cycles == 0
        assert pre.stats.memory_cycles == MachineConfig().memory_latency


MULTI_BLOCK_CALLS = """
.program p
.func main()
entry:
    loadI 0 => %v0
    loadI 0 => %v1
    jump -> head
head:
    loadI 3 => %v2
    cmp_LT %v0, %v2 => %v3
    cbr %v3 -> body, exit
body:
    call bump(%v1) => %v1
    addI %v0, 1 => %v0
    jump -> head
exit:
    ret %v1
.endfunc
.func bump(%v0)
entry:
    loadI 1 => %v1
    cmp_LT %v0, %v1 => %v2
    cbr %v2 -> small, big
small:
    addI %v0, 10 => %v3
    ret %v3
big:
    addI %v0, 1 => %v3
    ret %v3
.endfunc
"""


class TestBlockProfiling:
    """Satellite: block counting hoisted onto control-flow edges."""

    def test_block_counts_pinned_multiblock_multicall(self):
        results = {}
        for engine in ENGINES:
            sim = Simulator(parse_program(MULTI_BLOCK_CALLS), engine=engine,
                            profile=True)
            results[engine] = sim.run()
        expected = {
            ("main", "entry"): 1,
            ("main", "head"): 4,
            ("main", "body"): 3,
            ("main", "exit"): 1,
            ("bump", "entry"): 3,
            ("bump", "small"): 1,
            ("bump", "big"): 2,
        }
        for engine, result in results.items():
            assert result.stats.block_counts == expected, engine
        assert results["interp"].value == results["predecode"].value == 12
        assert results["interp"].stats == results["predecode"].stats

    def test_profile_off_leaves_counts_none(self):
        interp, pre = run_both(MULTI_BLOCK_CALLS)
        assert pre.stats.block_counts is None

    def test_profile_does_not_change_cycles(self):
        plain = Simulator(parse_program(MULTI_BLOCK_CALLS),
                          engine="predecode").run()
        profiled = Simulator(parse_program(MULTI_BLOCK_CALLS),
                             engine="predecode", profile=True).run()
        assert plain.stats.cycles == profiled.stats.cycles
        assert plain.stats.instructions == profiled.stats.instructions


class TestStatePersistence:
    def test_entry_args_and_named_entry(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    loadI 0 => %v0
    ret %v0
.endfunc
.func addmul(%v0, %v1)
entry:
    add %v0, %v1 => %v2
    mult %v2, %v1 => %v3
    ret %v3
.endfunc
""", entry="addmul", args=(3, 4))
        assert pre.value == 28

    def test_memory_persists_across_runs(self):
        text = """
.program p
.global A 4 int = 1
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    addI %v1, 1 => %v2
    store %v2, %v0
    ret %v2
.endfunc
"""
        for engine in ENGINES:
            sim = Simulator(parse_program(text), engine=engine)
            assert sim.run().value == 2
            assert sim.run().value == 3

    def test_phys_registers_persist_across_runs(self):
        text = """
.program p
.func main()
entry:
    loadI 7 => r5
    ret r5
.endfunc
"""
        for engine in ENGINES:
            sim = Simulator(parse_program(text), engine=engine)
            sim.run()
            assert sim.phys[PhysReg(5, RegClass.INT)] == 7

    def test_inplace_mutation_invalidates_decode_cache(self):
        # optimization passes mutate Instructions in place (e.g. the
        # postpass retargets LOAD to CCMLD); a rerun must re-decode
        prog = parse_program(TRIVIAL)
        sim = Simulator(prog, engine="predecode")
        assert sim.run().value == 1
        instr = prog.functions["main"].entry.instructions[0]
        instr.imm = 42
        assert sim.run().value == 42

    def test_decode_cache_reused_across_simulators(self):
        # Earlier tests may have left a structurally-identical decoded
        # form alive in the content-keyed map; start from a clean slate
        # so the first run below is a genuine decode.
        predecode._DECODE_CACHE.clear()
        predecode._DECODE_BY_CONTENT.clear()
        prog = parse_program(TRIVIAL)
        recorder = TraceRecorder()
        with recording(recorder):
            Simulator(prog, engine="predecode").run()
            Simulator(prog, engine="predecode").run()
        assert recorder.counters.get("sim.decode.functions", 0) >= 1
        assert recorder.counters.get("sim.decode.reused", 0) >= 1


class TestEngineSelection:
    def test_default_engine_matches_module_default(self):
        assert Simulator(parse_program(TRIVIAL)).engine == "predecode"

    def test_constructor_rejects_unknown(self):
        for engine in ("bogus", "batch"):
            with pytest.raises(ValueError, match="unknown simulator engine"):
                Simulator(parse_program(TRIVIAL), engine=engine)

    def test_artifact_cache_keyed_by_engine(self, tmp_path):
        # a difftest sweep on the oracle names it in every seed's key
        cache = ArtifactCache(str(tmp_path))
        lattice = config_lattice((64,))
        assert cache.key("src", _lattice_descriptor(lattice, "interp")) != \
            cache.key("src", _lattice_descriptor(lattice, "predecode"))


class TestDecodedFunctionShape:
    def test_decode_is_memoized_per_machine(self):
        fn = parse_program(TRIVIAL).functions["main"]
        first = decode_function(fn, MachineConfig(), False)
        second = decode_function(fn, MachineConfig(), False)
        assert first is second

    def test_decode_split_by_cache_presence(self):
        prog = parse_program("""
.program p
.global A 4 int = 1
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    ret %v1
.endfunc
""")
        fn = prog.functions["main"]
        plain = decode_function(fn, MachineConfig(), False)
        cached = decode_function(fn, MachineConfig(), True)
        assert plain is not cached

    def test_identical_functions_share_one_decoded_form(self):
        # content-keyed sharing: the difftest lattice compiles many
        # configs to identical code; each decodes only once
        fn1 = parse_program(TRIVIAL).functions["main"]
        fn2 = parse_program(TRIVIAL).functions["main"]
        assert fn1 is not fn2
        d1 = decode_function(fn1, MachineConfig(), False)
        d2 = decode_function(fn2, MachineConfig(), False)
        assert d1 is d2

    def test_fingerprint_distinguishes_virtual_from_physical(self):
        # %v0 and r0 hash identically on purpose (allocator
        # tie-breaking pins the register hash), and register allocation
        # rewrites one into the other in place — the fingerprint must
        # not let a pre-allocation decode serve post-allocation code
        from repro.machine.predecode import _fingerprint

        virt = parse_program(TRIVIAL).functions["main"]
        phys = parse_program(TRIVIAL.replace("%v0", "r0")).functions["main"]
        assert _fingerprint(virt) != _fingerprint(phys)
        dv = decode_function(virt, MachineConfig(), False)
        dp = decode_function(phys, MachineConfig(), False)
        assert dv is not dp

    def test_shared_decode_keeps_poison_semantics(self):
        # the regression the fingerprint bug caused: a call returning
        # into %v0 and one returning into r0 are different programs
        # with different caller-saved poison sets
        template = """
.program p
.func main()
entry:
    call callee() => {dst}
    ret {dst}
.endfunc
.func callee()
entry:
    loadI 9 => %v0
    ret %v0
.endfunc
"""
        for dst in ("%v0", "r0"):
            for engine in ENGINES:
                sim = Simulator(parse_program(template.format(dst=dst)),
                                engine=engine, poison_caller_saved=True)
                assert sim.run().value == 9, (dst, engine)
