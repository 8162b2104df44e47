"""SSA allocator family vs. Chaitin-Briggs: equivalence over the fuzz corpus.

All three register-allocator backends (``chaitin``, ``ssa``,
``ssa-everywhere``) compile the same lowered program to different — but
behaviorally equivalent — code.  These property tests pin that contract
against the differential-testing generator's program distribution: same
return value or trap, same final global-array contents, on two lattice
configs with complementary coverage (the optimized integrated scheme
emits CCM traffic through the allocator itself; the unoptimized
post-pass config keeps the generator's raw control flow and spills
through the stack).  Stats are deliberately *not* compared — different
allocators emit different spill code, so cycle and traffic counts
legitimately differ.

A small seed range runs in tier 1; the 220-seed sweep carries the
``fuzz`` marker (deselected by default, run with ``-m fuzz``).  A
cross-process test pins the SSA backend's *generated code* against
hostile ``PYTHONHASHSEED`` values, exactly like the engine-determinism
test in ``test_sim_engine_fuzz.py``.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.ir import check_no_virtual_registers, verify_program
from repro.machine import SimulationError, Simulator

SMOKE_SEEDS = range(0, 10)
FUZZ_SEEDS = range(0, 220)

ALLOCATORS = ("chaitin", "ssa", "ssa-everywhere")

#: Lattice points with complementary coverage (see module docstring).
CONFIGS = (
    DiffConfig("integrated", optimize=True, compaction=True, ccm_bytes=512),
    DiffConfig("postpass", optimize=False, compaction=False, ccm_bytes=64),
)


def _observe(program, machine):
    """The allocator-independent observables of one execution.

    Trap *messages* name physical registers and addresses, which differ
    across backends, so only the fact of the trap is compared.
    """
    sim = Simulator(program, machine, fuel=FUEL, poison_caller_saved=True)
    try:
        run = sim.run()
    except SimulationError as exc:
        if exc.kind == "trap":
            return ("trap", sorted(sim.globals_snapshot().items()))
        raise
    return ("value", run.value, sorted(sim.globals_snapshot().items()))


def _check_seed(seed: int) -> int:
    """Compare all backends (remat on and off) on one seed; count
    trapping runs."""
    traps = 0
    source = generate_source(seed)
    for config in CONFIGS:
        results = {}
        for allocator in ALLOCATORS:
            for rematerialize in (True, False):
                cfg = dataclasses.replace(config, allocator=allocator,
                                          rematerialize=rematerialize)
                program, machine = compile_config(compile_source(source), cfg)
                verify_program(program)
                for fn in program.functions.values():
                    check_no_virtual_registers(fn)
                results[(allocator, rematerialize)] = _observe(program,
                                                               machine)
        baseline = results[("chaitin", True)]
        for key, outcome in results.items():
            assert outcome == baseline, (
                f"seed {seed} config {config.name}:\n"
                f"  chaitin: {baseline!r}\n"
                f"  {key}:   {outcome!r}")
        if baseline[0] == "trap":
            traps += 1
    return traps


def _check_oracle_seed(seed: int) -> None:
    """RunResults of the SSA-allocated (remat-enabled) program must be
    bit-identical between the predecode engine and the reference
    interpreter — value, full RunStats, and final globals."""
    source = generate_source(seed)
    for config in CONFIGS:
        for allocator in ("ssa", "ssa-everywhere"):
            cfg = dataclasses.replace(config, allocator=allocator)
            program, machine = compile_config(compile_source(source), cfg)
            results = {}
            for engine in ("interp", "predecode"):
                sim = Simulator(program, machine, fuel=FUEL,
                                poison_caller_saved=True, profile=True,
                                engine=engine)
                try:
                    run = sim.run()
                    results[engine] = ("value", run.value,
                                       dataclasses.asdict(run.stats),
                                       sim.globals_snapshot())
                except SimulationError as exc:
                    results[engine] = ("error", type(exc).__name__,
                                       exc.kind, str(exc),
                                       sim.globals_snapshot())
            assert results["predecode"] == results["interp"], (
                f"seed {seed} config {cfg.name}: engines diverge:\n"
                f"  interp:    {results['interp']!r}\n"
                f"  predecode: {results['predecode']!r}")


class TestEquivalenceSmoke:
    def test_small_seed_range(self):
        for seed in SMOKE_SEEDS:
            _check_seed(seed)

    def test_oracle_small_seed_range(self):
        for seed in SMOKE_SEEDS:
            _check_oracle_seed(seed)


@pytest.mark.fuzz
def test_equivalence_over_fuzz_corpus():
    traps = sum(_check_seed(seed) for seed in FUZZ_SEEDS)
    # the corpus must actually exercise the trap-comparison path: the
    # generator emits unguarded divisions, so a corpus this size always
    # contains trapping seeds
    assert traps > 0, "no trapping seed in the corpus; traps untested"


@pytest.mark.fuzz
def test_oracle_equivalence_over_fuzz_corpus():
    for seed in FUZZ_SEEDS:
        _check_oracle_seed(seed)


_RESULT_SNIPPET = r"""
import hashlib

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.ir import format_program
from repro.machine import SimulationError, Simulator

digest = hashlib.sha256()
config = DiffConfig("integrated", optimize=True, compaction=True,
                    ccm_bytes=512, allocator="ssa")
for seed in range(8):
    program, machine = compile_config(
        compile_source(generate_source(seed)), config)
    # the generated code itself must be deterministic, not merely its
    # observable behavior: parallel sweep workers share artifacts by key
    digest.update(format_program(program).encode())
    sim = Simulator(program, machine, fuel=FUEL, poison_caller_saved=True)
    try:
        run = sim.run()
        obs = ("value", run.value)
    except SimulationError as exc:
        obs = ("error", type(exc).__name__, exc.kind, str(exc))
    digest.update(repr(obs).encode())
    digest.update(repr(sorted(sim.globals_snapshot().items())).encode())
print(digest.hexdigest())
"""


def _result_digest(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")] if p)
    out = subprocess.run([sys.executable, "-c", _RESULT_SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestCrossProcessDeterminism:
    def test_ssa_backend_survives_hash_randomization(self):
        # spill choice, coloring order, and parallel-copy scheduling must
        # all be hash-seed independent, or parallel sweep workers would
        # disagree with the serial path
        assert _result_digest("1") == _result_digest("31337")
