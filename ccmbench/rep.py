"""One cold run of one workload, in a fresh interpreter.

Started by ``run.py`` once per timed run, so that no process-level
cache (predecode's decode table, the ExperimentRunner memo, the
artifact cache's code-version memo) survives from one run to the next.
Prints one JSON line: the monotonic time at which set-up ended, the
run's wall time, CPU time and peak RSS, its exact outcome and, when
traced, its per-layer numbers.

    python3 ccmbench/rep.py --workload fuzz --inputs '{"gen_seeds": [3]}' \\
        --scratch .ccmbench_tmp/x [--trace] [--setup-only] [--oracle]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: modules a workload's timed run calls into, imported during set-up
IMPORTS = {
    "tables": ("repro.harness", "repro.harness.ablation"),
    "fuzz": ("repro.difftest", "repro.difftest.runner"),
    "wholeprog": ("repro.exec.wholeprog", "repro.workloads.appgen"),
}


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def layer_metrics(rec, outcome, workload: str, inputs: dict,
                  wall_s: float) -> dict:
    """Per-layer numbers of one traced run."""
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = rec.calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    for name in ("frontend.instrs_out", "opt.instrs_out", "regalloc.spilled",
                 "machine.instructions"):
        metrics[name] = int(rec.counters.get(name, 0))
    allocations = (metrics["regalloc.allocate_function.calls"]
                   + metrics["ccm.allocate_function_integrated.calls"])
    metrics["regalloc.builds_per_allocation"] = (
        metrics["regalloc.build_interference_graph.calls"] / allocations
        if allocations else 0.0)
    redundant, compared = rec.integrated_redundancy()
    metrics["ccm.integrated.redundant_frac"] = (
        redundant / compared if compared else 0.0)
    verified = rec.counters.get("ir.verify_program.fingerprinted", 0)
    metrics["ir.verify_program.redundant_frac"] = (
        rec.counters.get("ir.verify_program.redundant", 0) / verified
        if verified else 0.0)
    sim_s = (metrics["machine.Simulator.run.self_s"]
             + metrics["machine.cache_sim.self_s"])
    metrics["machine.minstr_per_s"] = (
        metrics["machine.instructions"] / sim_s / 1e6 if sim_s else 0.0)

    # the execution engine (wholeprog only; zero elsewhere)
    stats = outcome.stats
    workers = inputs["jobs"] if workload == "wholeprog" else 0
    # worker-side time comes from the SweepStats stage clock the engine
    # returns; spans inside worker processes are not recorded
    busy = sum(stats.get(f"stage.{s}.wall_s", 0.0)
               for s in ("build", "compile", "promote")) if workers else 0.0
    metrics["exec.pool.workers"] = workers
    metrics["exec.pool.busy_s"] = busy
    metrics["exec.pool.utilization"] = (
        busy / (workers * wall_s) if workers else 0.0)
    metrics["exec.pool.wait_s"] = metrics["exec.pool.wait_any.self_s"]
    metrics["exec.wholeprog.schedule_s"] = \
        metrics["exec.wholeprog.schedule.self_s"]
    counts = outcome.counts
    metrics["exec.wholeprog.waves"] = counts.get("waves", 0)
    metrics["exec.wholeprog.unique_compiles"] = counts.get(
        "unique_compiles", 0)
    metrics["exec.wholeprog.coalesced_frac"] = (
        counts["coalesced"] / counts["routines"]
        if counts.get("routines") else 0.0)
    for stage in ("build", "compile", "promote"):
        metrics[f"exec.wholeprog.{stage}_s"] = (
            stats.get(f"stage.{stage}.wall_s", 0.0) if workers else 0.0)
    for name in ("stores", "errors", "bytes"):
        metrics[f"exec.artifacts.{name}"] = int(
            stats.get(f"artifact_{name}", 0))

    # benchmark health: time outside every span, and the share of the
    # program's time spent in compiler layers rather than in drivers
    bookkeeping = rec.self_s.get(layers.BOOKKEEPING, 0.0)
    program_s = max(wall_s - bookkeeping, 1e-9)
    spans_s = sum(v for k, v in rec.self_s.items()
                  if k != layers.BOOKKEEPING)
    layers_s = sum(v for k, v in rec.self_s.items()
                   if k != layers.BOOKKEEPING and k not in layers.DRIVERS)
    metrics["trace.unattributed_frac"] = 1.0 - spans_s / program_s
    metrics["trace.layer_frac"] = layers_s / program_s
    metrics["trace.bookkeeping_frac"] = bookkeeping / wall_s
    metrics["gen_cycles"] = outcome.gen_cycles
    metrics["gen_stack_spill_bytes"] = outcome.gen_stack_spill_bytes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--inputs", required=True, help="JSON inputs")
    parser.add_argument("--scratch", required=True,
                        help="fresh directory this run may write in")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--oracle", action="store_true",
                        help="print the wholeprog monolithic oracle")
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs)

    if args.oracle:
        print(json.dumps(workloads.wholeprog_oracle(inputs)))
        return 0

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    os.makedirs(args.scratch, exist_ok=True)
    job = workloads.CLASSES[args.workload](inputs, args.scratch)
    rec = None
    if args.trace:
        rec = layers.SpanRecorder()
        layers.install(rec)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    cpu0, _ = _usage()
    start = time.perf_counter()
    job.execute()
    wall_s = time.perf_counter() - start
    cpu1, peak_mb = _usage()

    outcome = job.summarize()
    result = {"ready": ready, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_mb,
              "outcome": dataclasses.asdict(outcome)}
    if rec is not None:
        result["layers"] = layer_metrics(rec, outcome, args.workload,
                                         inputs, wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
