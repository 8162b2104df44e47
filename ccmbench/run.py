"""Cold, per-layer benchmark of the CCM compiler.

    python3 ccmbench/run.py --workload {tables,fuzz,wholeprog} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The seed fixes the program's
inputs (see ``workloads.make_inputs``).  For ``--seconds`` seconds the
benchmark repeats cold runs of the workload, each in a fresh
interpreter (``rep.py``) with the engines pinned, ``PYTHONHASHSEED``
fixed and no artifact cache but a fresh one where the workload asks for
it.  With ``--trace 0`` every run is untraced and the end-to-end
metrics are the medians over runs.  With ``--trace 1`` untraced and
traced runs alternate over the same inputs and the per-layer metrics
come from the traced ones.

Every run is checked: its own correctness checks must pass (failures
are counted in ``failed``), its exact counts and row digest must equal
those of every other run of the seed, and a ``wholeprog`` run must match
the ``monolithic_report`` oracle, computed once per invocation outside
the timed region.  ``attempted`` and ``failed`` count items over all
runs (table cells for ``tables``, lattice configs for ``fuzz``, routines
for ``wholeprog``); their ratio is the error rate.  A failed check makes
the command exit 1.  The last line of standard output is the JSON
result; an ``info`` line on standard error records the inputs, the
pinned engines, the Python version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import INEXACT  # noqa: E402

#: cold runs of each kind per invocation, whatever ``--seconds`` says
MIN_RUNS = 2
#: set-up samples per invocation; set-up-only runs make up the shortfall
MIN_SETUPS = 5
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120

class CheckFailed(Exception):
    pass


def _env(scratch: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CACHE_DIR", "REPRO_CACHE_BUDGET",
                        "PYTHONPATH")}
    env.update(workloads.ENGINES)
    env["PYTHONHASHSEED"] = "0"
    # the default artifact cache lives under ~/.cache: point ~ (and the
    # temporary directory) into the run's own scratch directory so that
    # no run can reach the user's or write outside the checkout
    env["HOME"] = env["TMPDIR"] = scratch
    return env


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the run and its workers have already ended
    proc.communicate()


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def _child(args, scratch: str) -> tuple:
    """Run rep.py once; returns (spawn time, parsed JSON line)."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), *args,
               "--scratch", scratch]
    spawned = time.monotonic()
    os.makedirs(scratch, exist_ok=True)
    # a session of its own, so that a run that hangs is killed together
    # with its pool workers
    proc = subprocess.Popen(command, env=_env(scratch), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise CheckFailed(f"run timed out after {CHILD_TIMEOUT_S} s")
    except BaseException:
        # interrupted or terminated: take the run and its workers along
        _kill(proc)
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise CheckFailed(f"run exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def _exact(result: dict) -> dict:
    """The parts of a run that must repeat exactly for one seed."""
    out = result["outcome"]
    exact = {"digest": out["digest"], "counts": out["counts"],
             "gen_cycles": out["gen_cycles"],
             "gen_stack_spill_bytes": out["gen_stack_spill_bytes"],
             "attempted": out["attempted"], "failed": out["failed"]}
    if "layers" in result:
        exact["calls"] = {k: v for k, v in result["layers"].items()
                          if k.endswith(".calls")
                          and k[:-len(".calls")] not in INEXACT}
    return exact


def oracle_mismatch(outcome: dict, oracle: dict) -> tuple:
    """(routines whose row differs from the oracle's, error or None)."""
    rows = outcome["rows"]
    wrong = sum(rows.get(name) != digest
                for name, digest in oracle["rows"].items())
    wrong += len(rows.keys() - oracle["rows"].keys())
    if outcome["digest"] == oracle["signature"] and not wrong:
        return 0, None
    return wrong, (f"signature {outcome['digest']} != monolithic oracle "
                   f"{oracle['signature']} ({wrong} routines differ)")


def _collect(base: list, tmp: str, seconds: float, trace: bool) -> tuple:
    """Cold runs, untraced and (if ``trace``) traced alternating, for
    ``seconds`` and at least MIN_RUNS of each; returns the runs by kind
    and the set-up times of the untraced ones, made up to MIN_SETUPS
    with set-up-only runs when end-to-end metrics are wanted."""
    kinds = [False, True] if trace else [False]
    runs = {kind: [] for kind in kinds}
    setups = []
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        enough = all(len(r) >= MIN_RUNS for r in runs.values())
        if enough and time.monotonic() - start + longest > seconds:
            break
        began = time.monotonic()
        spawned, result = _child(base + (["--trace"] if kind else []),
                                 os.path.join(tmp, f"run{index}"))
        longest = max(longest, time.monotonic() - began)
        if not kind:
            setups.append(result["ready"] - spawned)
        runs[kind].append(result)
        index += 1
    while not trace and len(setups) < MIN_SETUPS:
        spawned, result = _child(base + ["--setup-only"],
                                 os.path.join(tmp, f"setup{len(setups)}"))
        setups.append(result["ready"] - spawned)
    return runs, setups


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, log=None) -> dict:
    """Run the benchmark; returns the result object (see module doc)."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    inputs = workloads.make_inputs(workload, seed, scale)
    payload = json.dumps(inputs)
    tmp = os.path.join(ROOT, ".ccmbench_tmp", str(os.getpid()))
    base = ["--workload", workload, "--inputs", payload]
    errors = []

    try:
        oracle = (_child(base + ["--oracle"], os.path.join(tmp, "oracle"))[1]
                  if workload == "wholeprog" else None)
        runs, setups = _collect(base, tmp, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another invocation's runs are still in it

    every = [r for group in runs.values() for r in group]
    for group in [every] + ([runs[True]] if trace else []):
        first = _exact(group[0])
        for result in group[1:]:
            exact = _exact(result)
            diff = sorted(k for k in exact.keys() & first.keys()
                          if exact[k] != first[k])
            if diff:
                errors.append(f"runs of one seed disagree on {diff}")
    attempted = sum(r["outcome"]["attempted"] for r in every)
    failed = sum(r["outcome"]["failed"] for r in every)
    for result in every:
        errors.extend(result["outcome"]["errors"])
        if oracle is not None:
            wrong, message = oracle_mismatch(result["outcome"], oracle)
            failed += wrong
            if message:
                errors.append(message)

    untraced = runs[False]
    metrics = {}
    if trace:
        traced = runs[True]
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            # counts repeat exactly (checked above); times are medians
            metrics[name] = (values[0] if len(set(values)) == 1
                             else statistics.median(values))
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced) - 1.0)
        # the program's own stage clock, read from the untraced runs, as
        # a share of the time the workers had (the parent's, if serial)
        workers = inputs.get("jobs", 1)
        stage = statistics.median(
            sum(r["outcome"]["stats"].get(f"stage.{s}.wall_s", 0.0)
                for s in workloads.STAGES[workload])
            / (r["wall_s"] * workers) for r in untraced)
        metrics["trace.stage_frac"] = stage
        metrics["trace.stage_gap_frac"] = metrics["trace.layer_frac"] - stage
    else:
        metrics["setup_s"] = statistics.median(setups)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in untraced)
    info = {"workload": workload, "seed": seed, "inputs": inputs,
            "runs": {("traced" if k else "untraced"): len(v)
                     for k, v in runs.items()},
            "setups": len(setups), "engines": workloads.ENGINES,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "wall_s": [round(r["wall_s"], 4) for r in untraced],
            "gen_cycles": every[0]["outcome"]["gen_cycles"],
            "gen_stack_spill_bytes":
                every[0]["outcome"]["gen_stack_spill_bytes"]}
    log("info " + json.dumps(info))
    for message in errors:
        log("error " + message)
    return {"correct": not errors and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the stated input sizes (smoke tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no repro sources under {ROOT}/src: run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale)
    except CheckFailed as exc:
        print(f"error {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
