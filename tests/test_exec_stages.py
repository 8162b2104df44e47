"""Stage-cache equivalence: every shared or reused stage equals a
from-scratch compile.

:class:`repro.exec.stages.StageCache` compiles each pipeline stage once
per program and hands each cell (variant, CCM size, ...) a clone; its
integrated allocations are reused across CCM sizes inside the interval
their accept tests did not tell apart.  These tests pin that the
harness rows, Table 1 rows and ablation cells it produces equal rows
compiled per cell from scratch with :func:`compile_program`, at
``-j 1`` and ``-j 2``; that lowering and baseline allocation ignore the
CCM size; and that interval reuse equals a fresh allocation on shuffled
grids of CCM sizes under every allocator engine, with and without
rematerialization.  Cells that finish as the same bytes share one
verification and one simulation: every lattice outcome and harness row
must equal a from-scratch cell, a program must still fail verification
below its CCM end, a run must not be reused at or below the CCM offset
it touched, and every injected fault must still be caught.  The reuse
grid and the lattice comparison run a few seeds in tier 1; their
200-seed sweeps carry the ``fuzz`` marker (run with ``-m fuzz``).
"""

import random
from dataclasses import replace

import pytest

from repro.ccm import allocate_function_integrated, compact_spill_memory
from repro.difftest import check_source, config_lattice
from repro.difftest import runner as difftest_runner
from repro.difftest.faults import FAULTS, get_fault
from repro.difftest.gen import generate_source
from repro.difftest.runner import GEOMETRIES, DiffConfig, compile_config
from repro.exec import SweepStats, values_match
from repro.exec import stages
from repro.exec.stages import (VARIANTS, StageCache, baseline_stage,
                               compile_program, lower_stage)
from repro.frontend import compile_source
from repro.harness import ExperimentRunner, run_ablation, table1
from repro.harness.ablation import CONFIGS, AblationCell
from repro.harness.experiment import VariantResult
from repro.harness.tables import figure, program_runner
from repro.ir import VerificationError, format_program, program_key
from repro.ir.printer import format_function
from repro.machine import (DataCache, MachineConfig, PAPER_MACHINE_512,
                           PAPER_MACHINE_1024, SimulationError, Simulator)
from repro.trace import TraceRecorder, recording
from repro.workloads.programs import build_program
from repro.workloads.suite import build_routine

#: one heavy routine (the twldrv/fpppp spill class) and a light one
HEAVY, LIGHT = "buts", "colbur"
ROUTINES = [HEAVY, LIGHT]
PROGRAM = "turb3d"
MACHINES = {512: PAPER_MACHINE_512, 1024: PAPER_MACHINE_1024}
CELLS = [(variant, size) for size in MACHINES for variant in VARIANTS]
ABLATION_MACHINE = MachineConfig(ccm_bytes=1024)

ENGINES = ("chaitin", "ssa", "ssa-everywhere")
SMALL = MachineConfig(**GEOMETRIES["small"])
#: CCM sizes the reuse grid draws from
SIZE_GRID = range(0, 1025, 4)


# -- from-scratch references ---------------------------------------------------


def _scratch_row(build, workload, variant, machine):
    """One harness cell compiled from source by compile_program alone."""
    prog = build(workload)
    reference = Simulator(prog.clone()).run().value
    compile_program(prog, machine, variant)
    run = Simulator(prog, machine, poison_caller_saved=True).run()
    assert values_match(run.value, reference)
    return VariantResult(
        workload, variant, machine.ccm_bytes, run.value, run.stats,
        {name: fn.frame_size for name, fn in prog.functions.items()},
        {name: fn.ccm_high_water for name, fn in prog.functions.items()},
    ).to_json()


def _scratch_ablation_cell(routine, name):
    variant, cache_config = CONFIGS[name]
    prog = build_routine(routine)
    compile_program(prog, ABLATION_MACHINE, variant)
    cache = DataCache(cache_config)
    run = Simulator(prog, ABLATION_MACHINE, cache=cache,
                    poison_caller_saved=True).run()
    return AblationCell(routine, name, run.stats.cycles,
                        run.stats.memory_cycles, cache.stats.hit_rate,
                        cache.stats.effective_hit_rate)


@pytest.fixture(scope="module")
def scratch_rows():
    return {(workload, variant, size): _scratch_row(
                build_routine, workload, variant, MACHINES[size])
            for workload in ROUTINES for variant, size in CELLS}


@pytest.fixture(scope="module")
def scratch_program_rows():
    return {variant: _scratch_row(build_program, PROGRAM, variant,
                                  PAPER_MACHINE_512)
            for variant in VARIANTS}


@pytest.fixture(scope="module")
def scratch_ablation():
    return [_scratch_ablation_cell(HEAVY, name) for name in CONFIGS]


# -- the harness -----------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_staged_harness_rows_equal_from_scratch(scratch_rows, jobs):
    runner = ExperimentRunner(jobs=jobs)
    # two requests, like Table 2 (512 B) then Table 3 (both sizes)
    runner.run_cells([cell for cell in CELLS if cell[1] == 512], ROUTINES)
    runner.run_cells(CELLS, ROUTINES)
    rows = {key: runner.run(*key).to_json() for key in scratch_rows}
    assert rows == scratch_rows
    # artifact-cache accounting stays per cell
    assert runner.stats.jobs_total == len(scratch_rows)
    assert runner.stats.stages["build"].calls == 2 * len(ROUTINES)


def test_staged_program_rows_equal_from_scratch(scratch_program_rows):
    stats = SweepStats()
    runner = program_runner(stats=stats)
    fig = figure(runner, 512, [PROGRAM])
    rows = {variant: runner.run(PROGRAM, variant, 512).to_json()
            for variant in VARIANTS}
    assert rows == scratch_program_rows
    base = scratch_program_rows["baseline"]["cycles"]
    assert fig.rows[0].ratios["integrated"][0] == \
        scratch_program_rows["integrated"]["cycles"] / base
    # the figure's runner reports into the caller's stats
    assert stats.jobs_total == len(VARIANTS)
    assert stats.stages["compile"].calls == len(VARIANTS)
    assert stats.stages["compile"].wall_s > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_table1_rows_equal_from_scratch(jobs):
    expected = []
    for routine in ROUTINES:
        prog = build_routine(routine)
        compile_program(prog, PAPER_MACHINE_512, "baseline")
        result = compact_spill_memory(prog.functions[routine])
        expected.append((routine, result.bytes_before, result.bytes_after))
    stats = SweepStats()
    rows = [(r.routine, r.bytes_before, r.bytes_after)
            for r in table1(ROUTINES, jobs=jobs, stats=stats).rows]
    assert rows == expected
    # Table 1 reports its stages like every other table
    assert stats.stages["build"].calls == len(ROUTINES)
    assert stats.stages["compile"].calls == len(ROUTINES)
    assert stats.stages["compile"].wall_s > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_ablation_cells_equal_from_scratch(scratch_ablation, jobs):
    stats = SweepStats()
    result = run_ablation([HEAVY, LIGHT], jobs=jobs, stats=stats)
    assert result.cells[:len(CONFIGS)] == scratch_ablation
    # one payload per cell
    assert stats.jobs_total == 2 * len(CONFIGS)
    assert stats.stages["build"].calls == 2


# -- stages that ignore the CCM size --------------------------------------------


@pytest.mark.parametrize("workload", ROUTINES)
def test_lowering_and_baseline_allocation_ignore_ccm_size(workload):
    texts = []
    for machine in (PAPER_MACHINE_512, PAPER_MACHINE_1024):
        prog = build_routine(workload)
        lower_stage(prog, machine)
        lowered = format_program(prog)
        baseline_stage(prog, machine, "chaitin")
        texts.append((lowered, format_program(prog)))
    assert texts[0] == texts[1]


def test_engine_switch_never_aliases():
    """Snapshots are keyed by the engine argument, so requesting another
    engine from the same cache recompiles: every snapshot equals a fresh
    allocation under its own engine."""
    base = compile_source(generate_source(3))
    cache = StageCache(base)
    seen = {}
    for engine in ("chaitin", "ssa", "chaitin"):
        seen.setdefault(engine, []).append(
            (format_program(cache.allocated(SMALL, engine=engine)),
             format_program(cache.integrated(SMALL, engine=engine))))
    for engine, snapshots in seen.items():
        fresh = []
        for variant in ("baseline", "integrated"):
            prog = base.clone()
            lower_stage(prog, SMALL)
            if variant == "baseline":
                baseline_stage(prog, SMALL, engine)
            else:
                for fn in prog.functions.values():
                    allocate_function_integrated(fn, SMALL, engine=engine)
            fresh.append(format_program(prog))
        assert snapshots == [tuple(fresh)] * len(snapshots)
    assert seen["chaitin"][0] != seen["ssa"][0]


# -- integrated reuse across CCM sizes -----------------------------------------


def _functions(prog):
    return {name: (format_function(fn), fn.frame_size, fn.ccm_high_water)
            for name, fn in prog.functions.items()}


def _check_reuse(seed, n_sizes):
    """Request integrated allocations at shuffled CCM sizes x engines x
    remat through one cache and compare each with a fresh allocation.
    A second shuffled round adds the edges of every interval found in
    the first.  Returns (fresh allocations the cache made, requests)."""
    try:
        base = compile_source(generate_source(seed))
    except Exception:
        pytest.skip(f"seed {seed} does not compile")
    rng = random.Random(seed)
    cache = StageCache(base)
    made = [0]
    requests = 0
    original = stages.allocate_function_integrated

    def counting(*args, **kwargs):
        made[0] += 1
        return original(*args, **kwargs)

    sizes = rng.sample(SIZE_GRID, n_sizes)
    for round_ in range(2):
        grid = [(size, engine, remat) for size in sizes
                for engine in ENGINES for remat in (True, False)]
        rng.shuffle(grid)
        edges = set()
        for size, engine, remat in grid:
            machine = replace(SMALL, ccm_bytes=size)
            stages.allocate_function_integrated = counting
            try:
                reused = cache.integrated(machine, True, engine, remat)
            finally:
                stages.allocate_function_integrated = original
            requests += 1
            fresh = cache.lowered(machine).clone()
            for fn in fresh.functions.values():
                lo, hi = allocate_function_integrated(
                    fn, machine, engine=engine,
                    rematerialize=remat).ccm_exact_sizes
                assert lo <= size and (hi is None or size < hi)
                edges.update({lo, max(lo - 1, 0)})
                if hi is not None:
                    edges.update({hi - 1, hi})
            assert _functions(reused) == _functions(fresh), \
                (seed, size, engine, remat)
        sizes = rng.sample(sorted(edges), min(2 * n_sizes, len(edges)))
    return made[0], requests


@pytest.mark.parametrize("seed", [7, 12])
def test_integrated_reuse_equals_fresh_allocation(seed):
    made, requests = _check_reuse(seed, n_sizes=4)
    n_functions = len(compile_source(generate_source(seed)).functions)
    assert made < requests * n_functions   # reuse actually happened


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(200))
def test_integrated_reuse_sweep(seed):
    _check_reuse(seed, n_sizes=2)


# -- verify once, run once -----------------------------------------------------


def _fields(outcome):
    """Everything a difftest outcome observes, NaN-safe."""
    return (outcome.kind, repr(outcome.value), outcome.trap,
            repr(outcome.globals), outcome.stats)


def _check_sharing(seed, monkeypatch):
    """Run ``check_source`` on one seed's lattice, recording the outcome
    of every config, and compare each with a from-scratch cell: a fresh
    StageCache per config, a fresh simulation, the same judgement.
    Returns the sweep's trace counters."""
    source = generate_source(seed)
    try:
        base = compile_source(source)
    except Exception:
        pytest.skip(f"seed {seed} does not compile")
    configs = config_lattice()
    seen = {}
    judge = difftest_runner._judge

    def recording_judge(config, outcome, *args, **kwargs):
        seen[config] = outcome
        return judge(config, outcome, *args, **kwargs)

    recorder = TraceRecorder()
    with monkeypatch.context() as patch:
        patch.setattr(difftest_runner, "_judge", recording_judge)
        with recording(recorder):
            result = check_source(source, configs, seed=seed)
    if result.skipped is not None:
        pytest.skip(f"seed {seed}: {result.skipped}")

    reference = difftest_runner._execute(base, MachineConfig(), poison=False)
    baseline_spill = {}
    expected, verdicts = {}, []
    for config in configs:
        try:
            program, machine = compile_config(base, config)
        except Exception:
            verdicts.append((config.name, "compile_error"))
            continue
        try:
            outcome = difftest_runner._execute(program, machine, poison=True)
        except SimulationError:
            verdicts.append((config.name, "trap"))
            continue
        expected[config] = outcome
        verdict = judge(config, outcome, reference, baseline_spill)
        if verdict is not None:
            verdicts.append((config.name, verdict.kind, verdict.detail))
    assert {c: _fields(o) for c, o in seen.items()} == \
        {c: _fields(o) for c, o in expected.items()}
    judged = {c.name for c in seen}
    assert [(d.config, d.kind, d.detail) if d.config in judged
            else (d.config, d.kind) for d in result.divergences] == verdicts
    return recorder.counters


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_shared_verification_and_runs_equal_from_scratch(seed, monkeypatch):
    counters = _check_sharing(seed, monkeypatch)
    # the lattice really shares: many of its configs finish as the same
    # bytes (e.g. a post-pass program whose spills fit at 512 and 1024)
    assert counters.get("stages.verify.shared", 0) > 0
    assert counters.get("stages.run.shared", 0) > 0


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(200))
def test_shared_verification_and_runs_sweep(seed, monkeypatch):
    _check_sharing(seed, monkeypatch)


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_request_shares_runs_and_equals_from_scratch(scratch_rows, jobs):
    """Both CCM sizes in one request (``harness all``): each workload's
    job shares verification and runs between its cells, and every row
    still equals the from-scratch compile."""
    runner = ExperimentRunner(jobs=jobs, trace=True)
    runner.run_cells(CELLS, ROUTINES)
    rows = {key: runner.run(*key).to_json() for key in scratch_rows}
    assert rows == scratch_rows
    # the baseline is the same program at 512 and 1024 bytes
    assert runner.stats.trace["stages.verify.shared"] >= len(ROUTINES)
    assert runner.stats.trace["stages.run.shared"] >= len(ROUTINES)


def _integrated_with_ccm(seed=3):
    """A stage cache whose integrated program at 1024 bytes uses the
    CCM, that program and its CCM end."""
    cache = StageCache(compile_source(generate_source(seed)))
    machine = replace(SMALL, ccm_bytes=1024)
    prog = cache.compile(machine, "integrated")
    _, ccm_end = program_key(prog)
    assert ccm_end > 0
    return cache, machine, prog, ccm_end


def _widen_integrated_intervals(cache):
    """Let every stored integrated allocation serve every CCM size, so
    the cache hands out the same bytes at a size they do not fit."""
    for per_function in cache._integrated.values():
        for allocations in per_function.values():
            allocations[:] = [((0, None), fn) for _, fn in allocations]


def test_same_bytes_below_ccm_end_still_fail_verification():
    cache, machine, prog, ccm_end = _integrated_with_ccm()
    _widen_integrated_intervals(cache)
    recorder = TraceRecorder()
    with recording(recorder):
        same = cache.compile(replace(machine, ccm_bytes=ccm_end),
                             "integrated")
        assert program_key(same)[0] == program_key(prog)[0]
        with pytest.raises(VerificationError,
                           match=f"{ccm_end - 1}-byte CCM"):
            cache.compile(replace(machine, ccm_bytes=ccm_end - 1),
                          "integrated")
    assert recorder.counters["stages.verify.shared"] == 1


def test_run_not_shared_at_or_below_recorded_ccm_offset():
    cache, machine, prog, _ = _integrated_with_ccm()
    first = cache.run(prog, machine, poison=True)
    touched = first.result.stats.max_ccm_offset
    assert touched >= 0
    recorder = TraceRecorder()
    with recording(recorder):
        above = cache.run(prog, replace(machine, ccm_bytes=touched + 1),
                          poison=True)
        assert above is first
        # at the recorded offset the bounds trap fires: a fresh run
        with pytest.raises(SimulationError, match="exceeds"):
            cache.run(prog, replace(machine, ccm_bytes=touched),
                      poison=True)
    assert recorder.counters["stages.run.shared"] == 1


def test_runs_differing_in_machine_or_arguments_never_share():
    cache, machine, prog, _ = _integrated_with_ccm()
    first = cache.run(prog, machine, poison=True)
    recorder = TraceRecorder()
    with recording(recorder):
        for other in (cache.run(prog, machine, poison=False),
                      cache.run(prog, replace(machine, memory_latency=3),
                                poison=True),
                      cache.run(prog, machine, poison=True, engine="interp"),
                      cache.run(prog, machine, fuel=10 ** 6, poison=True),
                      cache.run(prog.clone(), machine, poison=True)):
            assert other is not first
    assert recorder.counters.get("stages.run.shared", 0) == 0
    assert recorder.counters["sim.runs"] == 5


def test_traps_are_never_shared():
    source = ("func main(): int {\n  var a: int = 0\n"
              "  return 1 / (a & 1)\n}\n")
    cache = StageCache(compile_source(source))
    prog = cache.compile(SMALL, "baseline", optimize=False)
    recorder = TraceRecorder()
    with recording(recorder):
        runs = [cache.run(prog, SMALL, poison=True) for _ in range(2)]
    assert all(run.result is None and run.trap.kind == "trap"
               for run in runs)
    assert str(runs[0].trap) == str(runs[1].trap)
    assert recorder.counters.get("stages.run.shared", 0) == 0


#: configs that finish as the same bytes for the fault seed, so a
#: faulted cell could otherwise reuse a run recorded under its
#: unfaulted key
FAULT_CONFIGS = [DiffConfig(variant, False, compaction, ccm)
                 for variant in ("baseline", "postpass")
                 for compaction in (False, True) for ccm in (512, 1024)]


@pytest.mark.parametrize("fault_name", sorted(FAULTS))
def test_every_fault_is_caught_in_a_shared_lattice(fault_name):
    """A faulted cell never shares a run, so each fault flags exactly the
    configs it flags when every config is checked on its own."""
    source = generate_source(0)
    fault = get_fault(fault_name)
    recorder = TraceRecorder()
    with recording(recorder):
        shared = check_source(source, FAULT_CONFIGS, fault=fault)
    assert "stages.run.shared" not in recorder.counters
    alone = [d for config in FAULT_CONFIGS
             for d in check_source(source, [config],
                                   fault=fault).divergences]
    assert alone, f"oracle missed injected fault {fault_name}"
    assert [(d.config, d.kind, d.detail) for d in shared.divergences] == \
        [(d.config, d.kind, d.detail) for d in alone]
