"""The three cold workloads: inputs from a seed, one run, its outputs.

Each workload turns the benchmark seed into the program's inputs
(:func:`make_inputs`), builds what the run needs (its constructor,
part of set-up), runs the program once (``execute``, the timed part)
and reduces the result to exact counts and a digest (``summarize``,
an :class:`Outcome`) that must repeat on every run of one seed.

Work per run is held near a fixed budget so that different seeds stay
comparable: the seed draws routines, generator seeds or an application
seed at random among those whose measured costs in ``costs.json`` fill
the budget.  Those costs were measured once (serial, Python 3.11.7,
2-core x86-64 host) and only steer the draw; nothing is timed against
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("tables", "fuzz", "wholeprog")

#: the seed later claims are made on, and the one they must also hold on
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001

#: engines pinned at their defaults for every run
ENGINES = {"REPRO_SIM_ENGINE": "predecode",
           "REPRO_REGALLOC_ENGINE": "chaitin",
           "REPRO_LIVENESS_ENGINE": "bitset"}

#: SweepStats stages that do not overlap each other, per workload
STAGES = {
    "tables": ("build", "reference", "compile", "simulate"),
    "fuzz": ("generate", "compile", "execute"),
    "wholeprog": ("build", "compile", "promote"),
}

# Stated input sizes, in measured seconds of work (see costs.json);
# ``scale`` < 1 shrinks them for the smoke tests.

#: the heavy stratum: routines in the twldrv/fpppp class by spill size
#: (Table 1 needs 750-830 bytes each) whose cost fits one run's budget
TABLES_HEAVY = ("buts", "jacld", "jacu")
#: the light stratum: the twenty cheapest routines
TABLES_LIGHT = ("colbur", "tomcatv", "fmin", "efill", "spline", "inisla",
                "zeroin", "cosqflX", "svd", "prophy", "pdiagX", "energyX",
                "dyeh", "pastern", "paroi", "bilan", "urand", "ddeflu",
                "srkiv", "debflu")
TABLES_BUDGET_S = 15.0
TABLES_TOLERANCE_S = 0.1
FUZZ_BUDGET_S = 5.0
FUZZ_TOLERANCE_S = 0.05
FUZZ_RSS_TOLERANCE = 0.03
FUZZ_DRAWS = 1000
WHOLEPROG_ROUTINES = 400
WHOLEPROG_TOLERANCE = 0.05
WHOLEPROG_JOBS = 2
WHOLEPROG_CCM = 512


def _costs() -> dict:
    with open(os.path.join(HERE, "costs.json")) as handle:
        return json.load(handle)


def _draw(rng: random.Random, pool: Dict[str, float], budget: float,
          tolerance: float) -> List[str]:
    """A random subset of ``pool`` whose costs sum to within
    ``tolerance`` below ``budget``: a random-order greedy fill, then one
    swap of a chosen item for an unchosen one when the fill falls
    short."""
    names = sorted(pool)
    rng.shuffle(names)
    chosen, total = [], 0.0
    for name in names:
        if total + pool[name] <= budget:
            chosen.append(name)
            total += pool[name]
    gap = budget - total
    if gap > tolerance:
        for out in list(chosen):
            for into in names:
                if into not in chosen and \
                        0.0 <= gap + pool[out] - pool[into] <= tolerance:
                    chosen[chosen.index(out)] = into
                    return chosen
    return chosen


def _draw_fuzz(rng: random.Random, budget: float) -> List[str]:
    """Generator seeds filling ``budget`` seconds of measured work whose
    memory also adds up to the pool's average: a sweep's peak RSS grows
    with the summed footprints of its programs (a five-program sweep
    peaks near 60 MB, above any single program's 27-51 MB), so balancing
    time alone leaves peak RSS to the luck of the draw."""
    table = _costs()
    costs, rss = table["fuzz"], table["fuzz_rss_mb"]
    base = min(rss.values())
    per_second = (sum(rss[s] - base for s in costs) / sum(costs.values()))
    target = budget * per_second
    for _ in range(FUZZ_DRAWS):
        chosen = _draw(rng, costs, budget, FUZZ_TOLERANCE_S)
        grown = sum(rss[s] - base for s in chosen)
        if abs(grown - target) <= FUZZ_RSS_TOLERANCE * target:
            break
    return chosen


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The program's inputs for one seed (JSON-serialisable)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        costs = _costs()["tables"]
        heavy = sorted(TABLES_HEAVY)
        light = {n: costs[n] for n in TABLES_LIGHT}
        if scale < 1.0:
            # smoke tests: light routines only
            return {"routines": _draw(rng, light, TABLES_BUDGET_S * scale,
                                      0.5) or [min(light, key=light.get)]}
        first = rng.choice(heavy)
        gap = TABLES_BUDGET_S - costs[first]
        # every slice of up to three light routines, ranked by how
        # closely it fills the budget; draw among those within tolerance
        slices = sorted(
            (abs(gap - sum(light[n] for n in names)), names)
            for k in (1, 2, 3)
            for names in itertools.combinations(sorted(light), k))
        close = [names for miss, names in slices
                 if miss <= TABLES_TOLERANCE_S] or [slices[0][1]]
        return {"routines": [first, *rng.choice(close)]}
    if workload == "fuzz":
        chosen = _draw_fuzz(rng, FUZZ_BUDGET_S * scale)
        return {"gen_seeds": sorted(int(s) for s in chosen)}
    if workload == "wholeprog":
        inputs = {"routines": WHOLEPROG_ROUTINES, "app_seed": seed,
                  "jobs": WHOLEPROG_JOBS, "ccm_bytes": WHOLEPROG_CCM}
        if scale < 1.0:
            inputs["routines"] = max(8, int(WHOLEPROG_ROUTINES * scale))
        else:
            # application seeds whose measured serial compile cost is
            # within tolerance of the median
            costs = _costs()["wholeprog"]
            middle = sorted(costs.values())[len(costs) // 2]
            close = sorted(int(s) for s, c in costs.items()
                           if abs(c / middle - 1.0) <= WHOLEPROG_TOLERANCE)
            inputs["app_seed"] = rng.choice(close)
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What one run produced, reduced to exact values."""

    attempted: int
    failed: int
    gen_cycles: int = 0
    gen_stack_spill_bytes: int = 0
    #: digest of every row the run produced; equal on every run of a seed
    digest: str = ""
    #: workload-specific exact counts (also compared between runs)
    counts: Dict[str, int] = field(default_factory=dict)
    #: program-side statistics (SweepStats stage totals etc.), not exact
    stats: Dict[str, float] = field(default_factory=dict)
    #: per-routine row digests (``wholeprog``), checked against the oracle
    rows: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     default=repr).encode()).hexdigest()


# -- the workloads -------------------------------------------------------------
#
# ``__init__`` is set-up (input generation, cache-directory creation),
# ``execute`` is the timed cold run, ``summarize`` reduces its result to
# an Outcome after the clock has stopped.


class Tables:
    """Tables 1-4 and the section 4.3 ablation over a routine slice,
    serial, no artifact cache."""

    def __init__(self, inputs: dict, scratch: str):
        self.routines: List[str] = inputs["routines"]

    def execute(self) -> None:
        from repro.exec import SweepStats
        from repro.harness import (ExperimentRunner, run_ablation, table1,
                                   table2, table3, table4)
        routines = self.routines
        self.runner = runner = ExperimentRunner(jobs=1)
        self.ablation_stats = SweepStats(jobs=1)
        steps = (
            ("table1", lambda: table1(routines, jobs=1)),
            ("table2", lambda: table2(runner, 512, routines)),
            ("table3", lambda: table3(runner, routines)),
            ("table4", lambda: table4(runner, routines)),
            ("ablation", lambda: run_ablation(
                routines, jobs=1, stats=self.ablation_stats)),
        )
        self.results, self.raised = {}, {}
        for name, step in steps:
            try:
                self.results[name] = step()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.raised[name] = f"{type(exc).__name__}: {exc}"

    def summarize(self) -> Outcome:
        from repro.harness.ablation import CONFIGS
        from repro.harness.tables import ALGORITHMS
        n, results = len(self.routines), self.results
        # cells each table is made of; a table that raised fails them all
        expected = {"table1": n, "table2": n * len(ALGORITHMS),
                    "table3": n * len(ALGORITHMS),
                    "table4": 2 * len(ALGORITHMS),
                    "ablation": n * len(CONFIGS)}
        outcome = Outcome(
            attempted=sum(expected.values()),
            failed=sum(expected[name] for name in self.raised),
            errors=[f"{name}: {msg}" for name, msg in self.raised.items()])
        rows: Dict[str, object] = {}
        if "table1" in results:
            rows["table1"] = [(r.routine, r.bytes_before, r.bytes_after)
                              for r in results["table1"].rows]
            outcome.gen_stack_spill_bytes += results["table1"].total_after
        if "table2" in results:
            rows["table2"] = [(r.routine, r.base_cycles,
                               r.base_memory_cycles, sorted(r.ratios.items()))
                              for r in results["table2"].rows]
        if "table3" in results:
            rows["table3"] = [(r.routine, sorted(r.ratios_512.items()),
                               sorted(r.ratios_1024.items()))
                              for r in results["table3"].rows]
        if "table4" in results:
            rows["table4"] = sorted((f"{a}/{s}", v) for (a, s), v in
                                    results["table4"].cells.items())
        if "ablation" in results:
            cells = results["ablation"].cells
            rows["ablation"] = [(c.routine, c.config, c.cycles,
                                 c.memory_cycles, c.hit_rate) for c in cells]
            outcome.gen_cycles += sum(c.cycles for c in cells)
        if not {"table2", "table3"} & self.raised.keys():
            # every (routine, variant, CCM size) run behind Tables 2-4,
            # served from the runner's memo
            for routine in self.routines:
                for size in (512, 1024):
                    for variant in ("baseline",) + ALGORITHMS:
                        res = self.runner.run(routine, variant, size)
                        outcome.gen_cycles += res.cycles
                        outcome.gen_stack_spill_bytes += sum(
                            res.spill_bytes.values())
        outcome.digest = _sha(rows)
        outcome.stats = _stage_totals(self.runner.stats, self.ablation_stats)
        return outcome


class _FuzzCounts:
    """Exact output counts of a differential sweep, taken at public
    entry points: cycles of every simulation and stack spill bytes of
    every fully compiled configuration."""

    def __init__(self):
        self.cycles = 0
        self.stack_bytes = 0

    def install(self):
        from repro.difftest import runner
        from repro.machine.simulator import Simulator
        finalize, sim_run = runner.finalize_config, Simulator.run
        counts = self

        def finalize_config(stages, config):
            program, machine = finalize(stages, config)
            counts.stack_bytes += sum(fn.frame_size for fn in
                                      program.functions.values())
            return program, machine

        def run(sim, *args, **kwargs):
            result = sim_run(sim, *args, **kwargs)
            counts.cycles += result.stats.cycles
            return result

        runner.finalize_config, Simulator.run = finalize_config, run

        def uninstall():
            runner.finalize_config, Simulator.run = finalize, sim_run
        return uninstall


class Fuzz:
    """The differential sweep over the full 52-config lattice on the
    small 8+8-register geometry, serial, no artifact cache."""

    def __init__(self, inputs: dict, scratch: str):
        self.gen_seeds: List[int] = inputs["gen_seeds"]
        self.counts = _FuzzCounts()

    def execute(self) -> None:
        from repro.difftest import run_fuzz
        from repro.exec import SweepStats
        self.stats = SweepStats(jobs=1)
        uninstall = self.counts.install()
        try:
            self.report = run_fuzz(self.gen_seeds, jobs=1, stats=self.stats)
        finally:
            uninstall()

    def summarize(self) -> Outcome:
        from repro.difftest import config_lattice
        report, lattice = self.report, len(config_lattice())
        failed_configs = {(d.seed, d.config) for d in report.divergences}
        missing = len(self.gen_seeds) - report.seeds_run
        outcome = Outcome(
            attempted=len(self.gen_seeds) * lattice,
            failed=(len(failed_configs)
                    + (report.seeds_skipped + missing) * lattice),
            gen_cycles=self.counts.cycles,
            gen_stack_spill_bytes=self.counts.stack_bytes)
        if missing:
            outcome.errors.append(f"{missing} seeds did not run")
        outcome.errors.extend(
            f"seed {d.seed} {d.config}: {d.kind}: {d.detail}"
            for d in report.divergences[:5])
        outcome.digest = _sha({"divergences": sorted(failed_configs),
                               "skipped": report.seeds_skipped,
                               "configs": report.configs_run})
        outcome.stats = _stage_totals(self.stats)
        return outcome


class WholeProg:
    """``compile_whole_program`` on a generated application with a
    2-worker pool, coalescing on, and an artifact cache on a fresh
    empty directory."""

    def __init__(self, inputs: dict, scratch: str):
        from repro.exec import ArtifactCache
        self.inputs = inputs
        self.app = _application(inputs)
        self.machine = wholeprog_machine(inputs)
        self.cache_dir = os.path.join(scratch, "artifacts")
        os.makedirs(self.cache_dir)
        self.artifacts = ArtifactCache(self.cache_dir)

    def execute(self) -> None:
        from repro.exec import SweepStats
        from repro.exec.wholeprog import compile_whole_program
        self.stats = SweepStats(jobs=self.inputs["jobs"])
        self.rows: Dict[str, dict] = {}
        self.report = compile_whole_program(
            self.app, self.machine, jobs=self.inputs["jobs"],
            artifacts=self.artifacts, stats=self.stats, coalesce=True,
            stream=self.rows.__setitem__)

    def summarize(self) -> Outcome:
        report, stats = self.report, self.stats
        outcome = Outcome(attempted=self.inputs["routines"], failed=0,
                          gen_stack_spill_bytes=report.heavyweight_bytes,
                          digest=report.signature)
        outcome.counts = {"unique_compiles": report.unique_compiles,
                          "coalesced": report.coalesced,
                          "routines": report.n_routines,
                          "waves": report.n_waves}
        outcome.stats = _stage_totals(stats)
        outcome.stats.update({
            "artifact_stores": stats.cache_stores,
            "artifact_errors": stats.cache_errors,
            "artifact_bytes": _tree_bytes(self.cache_dir)})
        outcome.rows = {name: routine_digest(name, row)
                        for name, row in self.rows.items()}
        if report.unique_compiles + report.coalesced != report.n_routines:
            outcome.errors.append(
                f"unique_compiles {report.unique_compiles} + coalesced "
                f"{report.coalesced} != routines {report.n_routines}")
        return outcome


CLASSES = {"tables": Tables, "fuzz": Fuzz, "wholeprog": WholeProg}


def wholeprog_machine(inputs: dict):
    from dataclasses import replace
    from repro.machine import PAPER_MACHINE_512
    return replace(PAPER_MACHINE_512, ccm_bytes=inputs["ccm_bytes"])


def _application(inputs: dict):
    from repro.workloads.appgen import AppProfile, generate_application
    return generate_application(AppProfile(n_routines=inputs["routines"],
                                           seed=inputs["app_seed"]))


def routine_digest(name: str, row: dict) -> str:
    return _sha({"name": name, **row})


def wholeprog_oracle(inputs: dict) -> dict:
    """The ``monolithic_report`` oracle for one application: its
    signature and per-routine row digests."""
    from repro.exec.wholeprog import monolithic_report

    report = monolithic_report(_application(inputs),
                               wholeprog_machine(inputs),
                               keep_routines=True)
    return {"signature": report.signature,
            "rows": {name: routine_digest(name, row)
                     for name, row in report.routines.items()}}


def _stage_totals(*stats) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for sweep in stats:
        for name, stage in sweep.stages.items():
            totals[f"stage.{name}.wall_s"] = (
                totals.get(f"stage.{name}.wall_s", 0.0) + stage.wall_s)
            totals[f"stage.{name}.calls"] = (
                totals.get(f"stage.{name}.calls", 0) + stage.calls)
    return totals


def _tree_bytes(root: Optional[str]) -> int:
    total = 0
    for dirpath, _, files in os.walk(root or ""):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
