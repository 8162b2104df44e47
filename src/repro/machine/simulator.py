"""Cycle-accurate interpreter for the ILOC-like IR.

This plays the role of the paper's instrumented-C back end: it executes a
program on the abstract machine of section 4 (single issue, 2-cycle
memory operations, 1-cycle everything else including CCM access) and
reports dynamic cycle counts, with memory-operation cycles broken out —
exactly the two numbers each Table 2 entry contains.

Design notes:

* Virtual registers live in per-frame maps, physical registers in one
  global file; mixed code therefore runs, so the suite can simulate a
  kernel before *and* after allocation and assert identical results.
* Stack spill slots are real addresses inside the activation record, so
  when a :class:`~repro.machine.cache.DataCache` is attached, spill
  traffic pollutes it.  CCM accesses live in a disjoint space and never
  touch the cache — the paper's architectural point.
* ``poison_caller_saved=True`` overwrites caller-saved registers with a
  poison sentinel on every call return; reading poison raises.  This
  turns register-allocator convention bugs into loud failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import Instruction, Opcode, PhysReg, Program, RegClass, VirtualReg
from ..trace import current as _trace_current
from .cache import CacheStats, DataCache
from .target import DEFAULT_MACHINE, MachineConfig

GLOBAL_BASE = 0x1000
STACK_BASE = 0x8000_0000

# -- engine selection ----------------------------------------------------------
#
# Two execution engines produce bit-identical results (the fuzz
# equivalence suite enforces it): "predecode" compiles each function
# once into specialized closures (repro.machine.predecode) and is the
# default; "interp" is this module's reference interpreter, retained as
# the oracle the fast engine is differentially tested against — the
# same pattern as the "bitset"/"sets" liveness engines.

_VALID_SIM_ENGINES = ("predecode", "interp")


def fmt_addr(addr) -> str:
    """Hex for int addresses; repr otherwise (a non-int address is
    itself evidence of a miscompile and must still trap cleanly)."""
    return f"{addr:#x}" if isinstance(addr, int) else repr(addr)


class SimulationError(RuntimeError):
    """The program performed an illegal operation (bad address, use of an
    undefined or poisoned register, CCM overflow, ...).

    ``kind`` separates deterministic *program* traps (division by zero,
    float-to-int of a non-finite value) from *machine* errors that
    indicate a miscompile or a malformed program.  Program traps are
    part of a program's observable behavior: the differential tester
    requires every configuration to reproduce them identically, while a
    machine error in compiled code is a divergence on its own.
    """

    def __init__(self, message: str, kind: str = "machine"):
        super().__init__(message)
        self.kind = kind


class OutOfFuel(SimulationError):
    """The instruction budget was exhausted (runaway loop guard)."""


class _Poison:
    def __repr__(self) -> str:
        return "<poison>"


POISON = _Poison()


@dataclass
class RunStats:
    """Dynamic execution statistics for one simulation.

    Cycle accounting is exhaustive and disjoint: every cycle the
    simulator charges lands in exactly one of ``op_cycles`` (non-memory
    instruction latencies), ``memory_cycles`` (main-memory, cache, and
    CCM access latencies), or ``stall_cycles`` (pipelined-load
    interlocks), so ``cycles == op_cycles + memory_cycles +
    stall_cycles`` always holds — the property test over the fuzz
    corpus enforces it, so no path can double-count or drop cycles.
    """

    cycles: int = 0
    memory_cycles: int = 0
    op_cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    spill_stores: int = 0
    spill_loads: int = 0
    ccm_stores: int = 0
    ccm_loads: int = 0
    calls: int = 0
    stall_cycles: int = 0
    max_ccm_offset: int = -1
    cache: Optional[CacheStats] = None
    #: (function name, block label) -> executions; filled when the
    #: simulator runs with profile=True (profile-guided CCM allocation)
    block_counts: Optional[Dict] = None

    @property
    def spill_traffic(self) -> int:
        return self.spill_stores + self.spill_loads

    @property
    def ccm_traffic(self) -> int:
        return self.ccm_stores + self.ccm_loads


@dataclass
class RunResult:
    value: object
    stats: RunStats


class _Frame:
    __slots__ = ("fn", "label", "index", "vregs", "base", "call_instr")

    def __init__(self, fn, base: int):
        self.fn = fn
        self.label = fn.entry.label
        self.index = 0
        self.vregs: Dict[VirtualReg, object] = {}
        self.base = base
        self.call_instr: Optional[Instruction] = None


class Simulator:
    """Executes a :class:`Program` and collects :class:`RunStats`."""

    def __init__(self, program: Program, machine: MachineConfig = DEFAULT_MACHINE,
                 cache: Optional[DataCache] = None, fuel: int = 50_000_000,
                 poison_caller_saved: bool = False, profile: bool = False,
                 engine: str = "predecode"):
        self.program = program
        self.machine = machine
        self.cache = cache
        self.fuel = fuel
        self.poison_caller_saved = poison_caller_saved
        self.profile = profile
        if engine not in _VALID_SIM_ENGINES:
            raise ValueError(
                f"unknown simulator engine {engine!r}; "
                f"expected one of {_VALID_SIM_ENGINES}")
        self.engine = engine

        self.memory: Dict[int, object] = {}
        self.ccm: Dict[int, object] = {}
        # Section 2.1: in a multi-tasked environment a system-controlled
        # base register gives each process its own CCM region, avoiding
        # a copy-out on context switch.  The OS (i.e. the test harness)
        # changes this between runs; compiled code never sees it.
        self.ccm_base = 0
        # Physical registers hold a value from power-on (zero here), so
        # callee-saved save/restore sequences may copy them freely.
        # Virtual registers stay strictly checked for use-before-def.
        self.phys: Dict[PhysReg, object] = {}
        for rclass, zero in ((RegClass.INT, 0), (RegClass.FLOAT, 0.0)):
            for index in range(machine.n_regs(rclass)):
                self.phys[PhysReg(index, rclass)] = zero
        self.global_base: Dict[str, int] = {}
        # pipelined-load mode: absolute cycle at which each register's
        # value becomes available (missing = already available)
        self._ready_at: Dict[object, int] = {}
        self._layout_globals()

    # -- memory layout ---------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBAL_BASE
        for g in self.program.globals.values():
            addr = (addr + 7) & ~7
            self.global_base[g.name] = addr
            value: object = 0 if g.element_class is RegClass.INT else 0.0
            for i in range(g.n_elements):
                init = value
                if g.init is not None and i < len(g.init):
                    init = g.init[i]
                self.memory[addr + i * g.element_size] = init
            addr += g.size_bytes

    def globals_snapshot(self) -> Dict[str, tuple]:
        """Current contents of every global array, by name.

        The differential tester compares these across configurations:
        a miscompile that corrupts memory without reaching the return
        value (e.g. aliased spill slots flushed to a shared array) is
        invisible to the return value alone.
        """
        snapshot: Dict[str, tuple] = {}
        for g in self.program.globals.values():
            base = self.global_base[g.name]
            snapshot[g.name] = tuple(
                self.memory[base + i * g.element_size]
                for i in range(g.n_elements))
        return snapshot

    # -- register access -------------------------------------------------------

    def _read(self, frame: _Frame, reg) -> object:
        if isinstance(reg, VirtualReg):
            store = frame.vregs
        else:
            store = self.phys
        if reg not in store:
            raise SimulationError(
                f"{frame.fn.name}: read of undefined register {reg}")
        value = store[reg]
        if value is POISON:
            raise SimulationError(
                f"{frame.fn.name}: read of poisoned (caller-saved, "
                f"clobbered by call) register {reg}")
        return value

    def _write(self, frame: _Frame, reg, value) -> None:
        if isinstance(reg, VirtualReg):
            frame.vregs[reg] = value
        else:
            self.phys[reg] = value

    # -- main loop ----------------------------------------------------------------

    def run(self, entry: Optional[str] = None, args: List = ()) -> RunResult:
        recorder = _trace_current()
        if recorder is None:
            return self._run(entry, args)
        with recorder.span("sim.run", entry=entry or self.program.entry_name):
            result = self._run(entry, args)
        stats = result.stats
        recorder.counter("sim.runs")
        for name in ("cycles", "memory_cycles", "op_cycles", "stall_cycles",
                     "instructions", "loads", "stores", "spill_loads",
                     "spill_stores", "ccm_loads", "ccm_stores", "calls"):
            recorder.counter(f"sim.{name}", getattr(stats, name))
        return result

    def _run(self, entry: Optional[str] = None, args: List = ()) -> RunResult:
        if self.engine == "predecode":
            from .predecode import run_predecode
            return run_predecode(self, entry, args)
        return self._run_interp(entry, args)

    def _run_interp(self, entry: Optional[str] = None,
                    args: List = ()) -> RunResult:
        entry = entry or self.program.entry_name
        fn = self.program.functions[entry]
        if len(args) != len(fn.params):
            raise SimulationError(
                f"{entry} expects {len(fn.params)} args, got {len(args)}")
        stats = RunStats()
        stack: List[_Frame] = []
        frame = self._push_frame(fn, stack)
        for param, value in zip(fn.params, args):
            self._write(frame, param, value)
        if self.profile:
            # block executions are counted on control-transfer edges
            # (entry here; jump/cbr/call in _execute), not by checking
            # frame.index == 0 on every instruction of the main loop
            self._count_block(stats, frame)

        result: object = None
        while True:
            if stats.instructions >= self.fuel:
                raise OutOfFuel(
                    f"exceeded {self.fuel} instructions in {frame.fn.name}")
            block = frame.fn.block(frame.label)
            if frame.index >= len(block.instructions):
                raise SimulationError(
                    f"{frame.fn.name}/{frame.label}: fell off block end")
            instr = block.instructions[frame.index]
            stats.instructions += 1
            outcome = self._execute(instr, frame, stack, stats)
            if outcome == "halt":
                break
            if outcome == "return":
                if not stack:
                    result = self._pending_return
                    break
                frame = stack[-1]
            elif outcome == "call":
                frame = stack[-1]
            # "next" and branches already updated frame in place
        if self.cache is not None:
            stats.cache = self.cache.stats
        return RunResult(result, stats)

    def _push_frame(self, fn, stack: List[_Frame]) -> _Frame:
        depth = sum(f.fn.frame_size for f in stack)
        base = STACK_BASE - depth - fn.frame_size
        frame = _Frame(fn, base)
        stack.append(frame)
        return frame

    def _count_block(self, stats: RunStats, frame: _Frame) -> None:
        """Record one execution of the block ``frame`` is entering."""
        counts = stats.block_counts
        if counts is None:
            counts = stats.block_counts = {}
        key = (frame.fn.name, frame.label)
        counts[key] = counts.get(key, 0) + 1

    # -- execution ------------------------------------------------------------------

    def _mem_access(self, addr: int, is_store: bool, stats: RunStats) -> int:
        """Latency of a main-memory access, through the cache if present."""
        if self.cache is not None:
            return self.cache.access(addr, is_store)
        return self.machine.memory_latency

    def _load_mem(self, addr: int, frame: _Frame) -> object:
        if addr not in self.memory:
            raise SimulationError(
                f"{frame.fn.name}: load from unmapped address "
                f"{fmt_addr(addr)}")
        return self.memory[addr]

    def _execute(self, instr: Instruction, frame: _Frame,
                 stack: List[_Frame], stats: RunStats) -> str:
        op = instr.opcode
        m = self.machine
        latency = m.default_latency
        advance = True

        if m.pipelined_loads and self._ready_at:
            stall = 0
            for src in instr.srcs:
                ready = self._ready_at.get(src)
                if ready is not None:
                    stall = max(stall, ready - stats.cycles)
            if stall > 0:
                stats.cycles += stall
                stats.stall_cycles += stall
            # prune settled entries in place rather than rebuilding the
            # whole dict on every instruction with a pending load
            now = stats.cycles
            stale = [r for r, c in self._ready_at.items() if c <= now]
            for r in stale:
                del self._ready_at[r]

        if op is Opcode.PHI:
            raise SimulationError(
                f"{frame.fn.name}: phi reached the simulator; destroy SSA "
                "before running")

        elif op is Opcode.LOADI or op is Opcode.LOADFI:
            self._write(frame, instr.dsts[0], instr.imm)
        elif op is Opcode.LOADG:
            self._write(frame, instr.dsts[0], self.global_base[instr.symbol])
        elif op in (Opcode.MOV, Opcode.FMOV):
            self._write(frame, instr.dsts[0], self._read(frame, instr.srcs[0]))

        elif op in _INT_BINOPS:
            a = self._read(frame, instr.srcs[0])
            b = self._read(frame, instr.srcs[1])
            try:
                result = _INT_BINOPS[op](a, b)
            except (ValueError, OverflowError) as exc:  # e.g. negative shift
                raise SimulationError(f"{op.value}: {exc}", kind="trap")
            self._write(frame, instr.dsts[0], result)
        elif op in _INT_IMMOPS:
            a = self._read(frame, instr.srcs[0])
            try:
                result = _INT_IMMOPS[op](a, instr.imm)
            except (ValueError, OverflowError) as exc:
                raise SimulationError(f"{op.value}: {exc}", kind="trap")
            self._write(frame, instr.dsts[0], result)
        elif op is Opcode.NOT:
            self._write(frame, instr.dsts[0], ~self._read(frame, instr.srcs[0]))
        elif op in _FLOAT_BINOPS:
            a = self._read(frame, instr.srcs[0])
            b = self._read(frame, instr.srcs[1])
            self._write(frame, instr.dsts[0], _FLOAT_BINOPS[op](a, b))
        elif op is Opcode.FNEG:
            self._write(frame, instr.dsts[0], -self._read(frame, instr.srcs[0]))
        elif op is Opcode.I2F:
            self._write(frame, instr.dsts[0], float(self._read(frame, instr.srcs[0])))
        elif op is Opcode.F2I:
            value = self._read(frame, instr.srcs[0])
            if value != value or value in (float("inf"), float("-inf")):
                raise SimulationError(
                    f"f2i of non-finite value {value!r}", kind="trap")
            self._write(frame, instr.dsts[0], int(value))

        elif op in (Opcode.LOAD, Opcode.FLOAD):
            addr = self._read(frame, instr.srcs[0])
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.loads += 1
        elif op in (Opcode.LOADAI, Opcode.FLOADAI):
            addr = self._read(frame, instr.srcs[0]) + instr.imm
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.loads += 1
        elif op in (Opcode.STORE, Opcode.FSTORE):
            addr = self._read(frame, instr.srcs[1])
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.stores += 1
        elif op in (Opcode.STOREAI, Opcode.FSTOREAI):
            addr = self._read(frame, instr.srcs[1]) + instr.imm
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.stores += 1

        elif op in (Opcode.SPILL, Opcode.FSPILL):
            addr = frame.base + instr.imm
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.spill_stores += 1
            stats.stores += 1
        elif op in (Opcode.RELOAD, Opcode.FRELOAD):
            addr = frame.base + instr.imm
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.spill_loads += 1
            stats.loads += 1

        elif op in (Opcode.CCMST, Opcode.FCCMST):
            size = 4 if op is Opcode.CCMST else 8
            offset = self.ccm_base + instr.imm
            self._check_ccm(offset, size, frame)
            latency = m.ccm_latency
            self.ccm[offset] = self._read(frame, instr.srcs[0])
            stats.ccm_stores += 1
            stats.max_ccm_offset = max(stats.max_ccm_offset, offset + size - 1)
        elif op in (Opcode.CCMLD, Opcode.FCCMLD):
            size = 4 if op is Opcode.CCMLD else 8
            offset = self.ccm_base + instr.imm
            self._check_ccm(offset, size, frame)
            latency = m.ccm_latency
            if offset not in self.ccm:
                raise SimulationError(
                    f"{frame.fn.name}: CCM load from unwritten offset {offset}")
            self._write(frame, instr.dsts[0], self.ccm[offset])
            stats.ccm_loads += 1
            stats.max_ccm_offset = max(stats.max_ccm_offset, offset + size - 1)

        elif op is Opcode.JUMP:
            frame.label = instr.labels[0]
            frame.index = 0
            advance = False
            if self.profile:
                self._count_block(stats, frame)
        elif op is Opcode.CBR:
            cond = self._read(frame, instr.srcs[0])
            frame.label = instr.labels[0] if cond != 0 else instr.labels[1]
            frame.index = 0
            advance = False
            if self.profile:
                self._count_block(stats, frame)
        elif op is Opcode.CALL:
            callee = self.program.functions.get(instr.symbol)
            if callee is None:
                raise SimulationError(f"call to unknown function {instr.symbol}")
            arg_values = [self._read(frame, s) for s in instr.srcs]
            frame.call_instr = instr
            frame.index += 1  # resume after the call
            new_frame = self._push_frame(callee, stack)
            if len(arg_values) != len(callee.params):
                raise SimulationError(
                    f"{callee.name}: arity mismatch at call from {frame.fn.name}")
            for param, value in zip(callee.params, arg_values):
                self._write(new_frame, param, value)
            if self.profile:
                self._count_block(stats, new_frame)
            stats.calls += 1
            stats.cycles += latency
            self._account(instr, latency, stats)
            return "call"
        elif op is Opcode.RET:
            value = self._read(frame, instr.srcs[0]) if instr.srcs else None
            stack.pop()
            stats.cycles += latency
            stats.op_cycles += latency
            if not stack:
                self._pending_return = value
                return "return"
            caller = stack[-1]
            call_instr = caller.call_instr
            if self.poison_caller_saved:
                self._poison_caller_saved(call_instr)
            if call_instr is not None and call_instr.dsts:
                if value is None:
                    raise SimulationError(
                        f"{frame.fn.name}: void return but caller expects a value")
                self._write(caller, call_instr.dsts[0], value)
            return "return"
        elif op is Opcode.HALT:
            stats.cycles += latency
            stats.op_cycles += latency
            self._pending_return = None
            return "halt"
        elif op is Opcode.NOP:
            pass
        else:
            raise SimulationError(f"unimplemented opcode {op}")

        if m.pipelined_loads:
            for dst in instr.dsts:
                self._ready_at.pop(dst, None)  # redefinition is available
            if instr.meta.is_load and instr.meta.is_main_memory \
                    and latency > 1:
                # the load issues in one cycle; the remaining latency is
                # exposed only if a consumer reads the result too early
                for dst in instr.dsts:
                    self._ready_at[dst] = stats.cycles + latency
                latency = 1
        stats.cycles += latency
        self._account(instr, latency, stats)
        if advance:
            frame.index += 1
        return "next"

    def _account(self, instr: Instruction, latency: int,
                 stats: RunStats) -> None:
        """Bucket one instruction's latency; every charged cycle lands
        in exactly one bucket (see the RunStats identity)."""
        if instr.meta.is_main_memory or instr.meta.is_ccm:
            stats.memory_cycles += latency
        else:
            stats.op_cycles += latency

    def _check_ccm(self, offset: int, size: int, frame: _Frame) -> None:
        if offset < 0 or offset + size > self.machine.ccm_bytes:
            raise SimulationError(
                f"{frame.fn.name}: CCM access at {offset}+{size} exceeds "
                f"{self.machine.ccm_bytes}-byte CCM")

    def _poison_caller_saved(self, call_instr) -> None:
        keep = set(call_instr.dsts) if call_instr is not None else set()
        for rclass in (RegClass.INT, RegClass.FLOAT):
            for reg in self.machine.caller_saved(rclass):
                if reg not in keep:
                    self.phys[reg] = POISON


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("integer division by zero", kind="trap")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise SimulationError("float division by zero", kind="trap")
    return a / b


_INT_BINOPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MULT: lambda a, b: a * b,
    Opcode.DIV: _int_div,
    Opcode.MOD: _int_mod,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.LSHIFT: lambda a, b: a << b,
    Opcode.RSHIFT: lambda a, b: a >> b,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
}

_INT_IMMOPS = {
    Opcode.ADDI: lambda a, i: a + i,
    Opcode.SUBI: lambda a, i: a - i,
    Opcode.MULTI: lambda a, i: a * i,
    Opcode.DIVI: lambda a, i: _int_div(a, i),
    Opcode.ANDI: lambda a, i: a & i,
    Opcode.ORI: lambda a, i: a | i,
    Opcode.XORI: lambda a, i: a ^ i,
    Opcode.LSHIFTI: lambda a, i: a << i,
    Opcode.RSHIFTI: lambda a, i: a >> i,
}

_FLOAT_BINOPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMULT: lambda a, b: a * b,
    Opcode.FDIV: _float_div,
    Opcode.FCMPEQ: lambda a, b: int(a == b),
    Opcode.FCMPNE: lambda a, b: int(a != b),
    Opcode.FCMPLT: lambda a, b: int(a < b),
    Opcode.FCMPLE: lambda a, b: int(a <= b),
    Opcode.FCMPGT: lambda a, b: int(a > b),
    Opcode.FCMPGE: lambda a, b: int(a >= b),
}
