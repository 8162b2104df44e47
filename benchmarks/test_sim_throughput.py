"""Simulation-throughput benchmarks: the execute stage, both engines.

PR 4's bitset dataflow engine made compilation cheap enough that the
cycle-accurate simulator dominates every sweep, so simulated
instructions/second is now a first-class watched quantity.  These
benchmarks run fpppp and twldrv — the suite's two largest routines —
under both execution engines:

* ``predecode`` (default): one-time closure compilation per function,
  flat register files, baked immediates and branch targets;
* ``interp``: the reference interpreter, re-decoding every instruction
  on every dynamic execution.

The predecode/interp ratio is the fast engine's speedup (target
≥1.8×).  Each benchmark reports ``instructions`` in ``extra_info`` so
instructions/second falls out of the recorded mean.  A warmup round
populates the per-function decode cache, which is the steady-state a
sweep sees: the 52-config difftest lattice decodes each compiled
artifact once and replays it many times.

Capture a machine-readable snapshot (shared with the compiler
benchmarks) with::

    pytest benchmarks/ --benchmark-json=BENCH_throughput.json
"""

import dataclasses

import pytest

from repro.harness.experiment import compile_program
from repro.machine import PAPER_MACHINE_512, Simulator
from repro.workloads import build_routine

ROUTINES = ("fpppp", "twldrv")
ENGINES = ("predecode", "interp")


@pytest.fixture(scope="module")
def compiled(request):
    """One compiled program per routine, shared by both engine rows so
    the comparison is artifact-for-artifact."""
    programs = {}
    for routine in ROUTINES:
        prog = build_routine(routine)
        compile_program(prog, PAPER_MACHINE_512, "integrated")
        programs[routine] = prog
    return programs


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("routine", ROUTINES)
def test_sim_throughput(benchmark, compiled, routine, engine):
    prog = compiled[routine]

    def simulate():
        return Simulator(prog, PAPER_MACHINE_512, engine=engine).run()

    result = benchmark.pedantic(simulate, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result.stats.instructions > 0
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["routine"] = routine
    benchmark.extra_info["instructions"] = result.stats.instructions
    benchmark.extra_info["instructions_per_second"] = round(
        result.stats.instructions / benchmark.stats.stats.mean)


@pytest.mark.parametrize("routine", ROUTINES)
def test_sim_throughput_pipelined(benchmark, compiled, routine):
    """The scoreboard loop (pipelined loads) is the predecode engine's
    slower path; watch it separately so it cannot silently regress."""
    prog = compiled[routine]
    machine = dataclasses.replace(PAPER_MACHINE_512, pipelined_loads=True)

    def simulate():
        return Simulator(prog, machine, engine="predecode").run()

    result = benchmark.pedantic(simulate, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result.stats.instructions > 0
    benchmark.extra_info["routine"] = routine
    benchmark.extra_info["instructions"] = result.stats.instructions
    benchmark.extra_info["instructions_per_second"] = round(
        result.stats.instructions / benchmark.stats.stats.mean)
