"""Regeneration of every table and figure in the paper's evaluation.

Each function returns a data object with ``rows`` plus a ``format()``
that renders the same layout the paper prints; the benchmark suite and
EXPERIMENTS.md consume the data objects, the CLI prints the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec import SweepStats
from ..workloads.programs import program_names
from ..workloads.suite import suite_names
from .experiment import ExperimentRunner, compaction_measurements

ALGORITHMS = ("postpass", "postpass_cg", "integrated")
ALGORITHM_TITLES = {
    "postpass": "Post-Pass",
    "postpass_cg": "Post-Pass w/ Call Graph",
    "integrated": "Integrated",
}


# -- Table 1 -------------------------------------------------------------------

@dataclass
class Table1Row:
    routine: str
    bytes_before: int
    bytes_after: int

    @property
    def ratio(self) -> float:
        return (self.bytes_after / self.bytes_before
                if self.bytes_before else 1.0)


@dataclass
class Table1:
    """Spill memory requirements and compaction (paper Table 1)."""

    rows: List[Table1Row]

    @property
    def improved_rows(self) -> List[Table1Row]:
        return [r for r in self.rows if r.ratio < 0.995]

    @property
    def total_before(self) -> int:
        return sum(r.bytes_before for r in self.rows)

    @property
    def total_after(self) -> int:
        return sum(r.bytes_after for r in self.rows)

    @property
    def total_ratio(self) -> float:
        return self.total_after / self.total_before if self.total_before else 1.0

    def format(self) -> str:
        lines = [
            "Table 1: Spill Memory Requirements and Compaction",
            f"{'Routine':12s} {'Before':>8s} {'After':>8s} {'After/Before':>13s}",
        ]
        for r in sorted(self.improved_rows, key=lambda r: -r.bytes_before):
            lines.append(f"{r.routine:12s} {r.bytes_before:8d} "
                         f"{r.bytes_after:8d} {r.ratio:13.2f}")
        lines.append(f"{'TOTAL':12s} {self.total_before:8d} "
                     f"{self.total_after:8d} {self.total_ratio:13.2f}")
        lines.append(f"(routines compacted: {len(self.improved_rows)} of "
                     f"{len(self.rows)} that spill)")
        return "\n".join(lines)


def table1(workloads: Optional[List[str]] = None, jobs: int = 1,
           stats: Optional[SweepStats] = None,
           allocator: str = "chaitin") -> Table1:
    rows = [Table1Row(c.fn_name, c.bytes_before, c.bytes_after)
            for c in compaction_measurements(workloads, jobs=jobs,
                                             stats=stats,
                                             allocator=allocator)]
    return Table1(rows)


@dataclass
class CcmFitSummary:
    """Section 4.1's sizing question: what fraction of the routines'
    (compacted) spill memory fits a given CCM?  The paper chose 1 KB
    because "this size accommodates three quarters of the subroutines"."""

    rows: List[Table1Row]

    def fraction_fitting(self, ccm_bytes: int) -> float:
        if not self.rows:
            return 1.0
        fits = sum(1 for r in self.rows if r.bytes_after <= ccm_bytes)
        return fits / len(self.rows)

    def format(self) -> str:
        lines = ["Section 4.1: routines whose compacted spill memory fits"]
        for size in (128, 256, 512, 1024, 2048):
            fraction = self.fraction_fitting(size)
            lines.append(f"  {size:5d} bytes: {fraction:6.1%}")
        return "\n".join(lines)


def ccm_fit_summary(t1: Optional[Table1] = None,
                    workloads: Optional[List[str]] = None) -> CcmFitSummary:
    """Build the section 4.1 sizing summary (reuses Table 1's data)."""
    return CcmFitSummary((t1 or table1(workloads)).rows)


# -- Table 2 -------------------------------------------------------------------

@dataclass
class Table2Row:
    routine: str
    base_cycles: int
    base_memory_cycles: int
    #: algorithm -> (cycle ratio, memory-cycle ratio) relative to baseline
    ratios: Dict[str, Tuple[float, float]]


@dataclass
class Table2:
    """Speedups in dynamic cycle counts with a 512-byte CCM (Table 2)."""

    ccm_bytes: int
    rows: List[Table2Row]

    def format(self) -> str:
        lines = [
            f"Table 2: Speedups in dynamic cycle counts with "
            f"{self.ccm_bytes}-byte CCM",
            f"{'Routine':12s} {'Without CCM':>24s} {'Post-Pass':>12s} "
            f"{'w/ CallGraph':>13s} {'Integrated':>12s}",
        ]
        for r in self.rows:
            cells = []
            for algorithm in ALGORITHMS:
                cyc, mem = r.ratios[algorithm]
                cells.append(f"{cyc:.2f}({mem:.2f})")
            base = f"{r.base_cycles:,}({r.base_memory_cycles:,})"
            lines.append(f"{r.routine:12s} {base:>24s} {cells[0]:>12s} "
                         f"{cells[1]:>13s} {cells[2]:>12s}")
        return "\n".join(lines)


def _cells(ccm_sizes) -> List[Tuple[str, int]]:
    return [(variant, ccm_bytes) for ccm_bytes in ccm_sizes
            for variant in ("baseline",) + ALGORITHMS]


def _prefetch(runner: ExperimentRunner, workloads: Optional[List[str]],
              ccm_sizes) -> None:
    """Warm the runner's memo for every (variant, CCM size) cell in one
    request, so each workload's cells share one job and one stage
    cache, and a parallel runner fans the workloads out."""
    runner.run_cells(_cells(ccm_sizes), workloads)


def table2(runner: ExperimentRunner, ccm_bytes: int = 512,
           workloads: Optional[List[str]] = None) -> Table2:
    rows = []
    _prefetch(runner, workloads, (ccm_bytes,))
    for name in (workloads or suite_names()):
        base = runner.run(name, "baseline", ccm_bytes)
        ratios = {}
        for algorithm in ALGORITHMS:
            res = runner.run(name, algorithm, ccm_bytes)
            ratios[algorithm] = (
                res.cycles / base.cycles if base.cycles else 1.0,
                (res.memory_cycles / base.memory_cycles
                 if base.memory_cycles else 1.0))
        rows.append(Table2Row(name, base.cycles, base.memory_cycles, ratios))
    return Table2(ccm_bytes, rows)


# -- Table 3 -------------------------------------------------------------------

@dataclass
class Table3Row:
    routine: str
    ratios_512: Dict[str, Tuple[float, float]]
    ratios_1024: Dict[str, Tuple[float, float]]

    def improvement(self) -> float:
        """Best cycle-ratio improvement from doubling the CCM."""
        return max(self.ratios_512[a][0] - self.ratios_1024[a][0]
                   for a in ALGORITHMS)


@dataclass
class Table3:
    """Routines whose speedup improves moving from 512 B to 1 KB CCM."""

    rows: List[Table3Row]

    def format(self) -> str:
        lines = [
            "Table 3: Changes in speedups with 1024-byte CCM "
            "(routines that improved over 512 bytes)",
            f"{'Routine':12s} {'Post-Pass':>12s} {'w/ CallGraph':>13s} "
            f"{'Integrated':>12s}",
        ]
        for r in self.rows:
            cells = [f"{r.ratios_1024[a][0]:.2f}({r.ratios_1024[a][1]:.2f})"
                     for a in ALGORITHMS]
            lines.append(f"{r.routine:12s} {cells[0]:>12s} {cells[1]:>13s} "
                         f"{cells[2]:>12s}")
        lines.append(f"({len(self.rows)} routines improved)")
        return "\n".join(lines)


def table3(runner: ExperimentRunner,
           workloads: Optional[List[str]] = None,
           threshold: float = 0.005) -> Table3:
    rows = []
    _prefetch(runner, workloads, (512, 1024))
    for name in (workloads or suite_names()):
        base512 = runner.run(name, "baseline", 512)
        base1024 = runner.run(name, "baseline", 1024)
        r512, r1024 = {}, {}
        for algorithm in ALGORITHMS:
            a = runner.run(name, algorithm, 512)
            b = runner.run(name, algorithm, 1024)
            r512[algorithm] = (a.cycles / base512.cycles,
                               a.memory_cycles / max(base512.memory_cycles, 1))
            r1024[algorithm] = (b.cycles / base1024.cycles,
                                b.memory_cycles / max(base1024.memory_cycles, 1))
        row = Table3Row(name, r512, r1024)
        if row.improvement() > threshold:
            rows.append(row)
    return Table3(rows)


# -- Table 4 -------------------------------------------------------------------

@dataclass
class Table4:
    """Weighted-average percentage reduction in cycles (paper Table 4).

    'Weighted' as in the paper: each routine contributes in proportion
    to its dynamic cycle count, i.e. the reduction of suite-aggregate
    cycles.
    """

    #: (algorithm, ccm_bytes) -> (total % reduction, memory % reduction)
    cells: Dict[Tuple[str, int], Tuple[float, float]]

    def format(self) -> str:
        lines = [
            "Table 4: Weighted-average percentage reduction in cycles",
            f"{'Algorithm':26s} {'512B total':>11s} {'1KB total':>10s} "
            f"{'512B mem':>9s} {'1KB mem':>8s}",
        ]
        for algorithm in ALGORITHMS:
            t512, m512 = self.cells[(algorithm, 512)]
            t1024, m1024 = self.cells[(algorithm, 1024)]
            lines.append(
                f"{ALGORITHM_TITLES[algorithm]:26s} {t512:10.1f}% "
                f"{t1024:9.1f}% {m512:8.1f}% {m1024:7.1f}%")
        return "\n".join(lines)


def table4(runner: ExperimentRunner,
           workloads: Optional[List[str]] = None) -> Table4:
    workloads = workloads or suite_names()
    cells = {}
    _prefetch(runner, workloads, (512, 1024))
    for ccm_bytes in (512, 1024):
        base_total = base_mem = 0
        totals = {a: [0, 0] for a in ALGORITHMS}
        for name in workloads:
            base = runner.run(name, "baseline", ccm_bytes)
            base_total += base.cycles
            base_mem += base.memory_cycles
            for algorithm in ALGORITHMS:
                res = runner.run(name, algorithm, ccm_bytes)
                totals[algorithm][0] += res.cycles
                totals[algorithm][1] += res.memory_cycles
        for algorithm in ALGORITHMS:
            cyc, mem = totals[algorithm]
            cells[(algorithm, ccm_bytes)] = (
                100.0 * (1.0 - cyc / base_total),
                100.0 * (1.0 - mem / base_mem))
    return Table4(cells)


# -- Figures 3 and 4 -------------------------------------------------------------

@dataclass
class FigureRow:
    program: str
    #: algorithm -> (running-time ratio, memory-op-time ratio)
    ratios: Dict[str, Tuple[float, float]]


@dataclass
class Figure:
    """Program-level performance bars (paper Figures 3 and 4)."""

    ccm_bytes: int
    rows: List[FigureRow]

    def format(self) -> str:
        lines = [
            f"Figure {'3' if self.ccm_bytes == 512 else '4'}: program "
            f"performance with a {self.ccm_bytes}-byte CCM "
            f"(relative to no CCM; lower is better)",
            f"{'Program':10s} {'Post-Pass':>12s} {'w/ CallGraph':>13s} "
            f"{'Integrated':>12s}   (running time; memory-op time in parens)",
        ]
        for r in self.rows:
            cells = [f"{r.ratios[a][0]:.2f}({r.ratios[a][1]:.2f})"
                     for a in ALGORITHMS]
            lines.append(f"{r.program:10s} {cells[0]:>12s} {cells[1]:>13s} "
                         f"{cells[2]:>12s}")
        return "\n".join(lines)

    def render_bars(self, width: int = 50) -> str:
        """ASCII rendering of the paper's bar chart (running time)."""
        short = {"postpass": "post-pass ",
                 "postpass_cg": "w/ callgrf",
                 "integrated": "integrated"}
        lines = [f"Relative running time, {self.ccm_bytes}-byte CCM "
                 f"(bar = fraction of the no-CCM build)"]
        for row in self.rows:
            lines.append(row.program)
            for algorithm in ALGORITHMS:
                ratio = row.ratios[algorithm][0]
                bar = "#" * round(ratio * width)
                lines.append(f"  {short[algorithm]} |{bar} {ratio:.2f}")
        return "\n".join(lines)


def figure(runner_factory, ccm_bytes: int,
           programs: Optional[List[str]] = None) -> Figure:
    """Build Figure 3 (512 B) or Figure 4 (1024 B).

    ``runner_factory`` is an :class:`ExperimentRunner` whose ``build``
    maps program names to whole programs (see :func:`program_runner`),
    or a zero-argument factory producing one.
    """
    runner = runner_factory() if callable(runner_factory) else runner_factory
    names = list(programs) if programs is not None else program_names()
    runner.run_cells(_cells((ccm_bytes,)), names)
    rows = []
    for name in names:
        base = runner.run(name, "baseline", ccm_bytes)
        ratios = {}
        for algorithm in ALGORITHMS:
            res = runner.run(name, algorithm, ccm_bytes)
            ratios[algorithm] = (
                res.cycles / base.cycles,
                res.memory_cycles / max(base.memory_cycles, 1))
        rows.append(FigureRow(name, ratios))
    return Figure(ccm_bytes, rows)


def program_runner(jobs: int = 1, artifacts=None, trace: bool = False,
                   recorder=None, stats: Optional[SweepStats] = None,
                   allocator: str = "chaitin") -> ExperimentRunner:
    """An ExperimentRunner over whole programs instead of routines;
    ``stats``, if given, is shared with the caller's report."""
    from ..workloads.programs import build_program

    return ExperimentRunner(build=build_program, jobs=jobs,
                            allocator=allocator, artifacts=artifacts,
                            trace=trace, recorder=recorder, stats=stats)
