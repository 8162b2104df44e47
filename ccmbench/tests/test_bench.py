"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest ccmbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402

#: input scale that keeps every workload to a few seconds per run
TINY = {"tables": 0.1, "fuzz": 0.15, "wholeprog": 0.05}
SEED = 7


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED),
                  "--seconds", "0", "--trace", trace,
                  "--scale", str(TINY[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_list_covers_every_layer():
    names = {m["name"] for m in _declared()["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.calls" in names and f"{layer}.self_s" in names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_runs_of_one_seed_give_identical_counts(workload, tmp_path):
    inputs = json.dumps(workloads.make_inputs(workload, SEED,
                                              TINY[workload]))
    results = [run._child(["--workload", workload, "--inputs", inputs,
                           "--trace"], str(tmp_path / f"run{i}"))[1]
               for i in range(2)]
    first, second = (run._exact(r) for r in results)
    assert first == second
    assert first["calls"], "a traced run records calls"
    if workload != "wholeprog":
        assert first["gen_cycles"] > 0
    assert first["gen_stack_spill_bytes"] > 0
    if workload == "wholeprog":
        counts = first["counts"]
        assert counts["unique_compiles"] + counts["coalesced"] == \
            counts["routines"]


SPAN_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
rec = layers.SpanRecorder()
layers.install(rec)
from repro.difftest import check_source, generate_source
check_source(generate_source(3), seed=3)
print(json.dumps(rec.spans))
"""


def test_spans_carry_parent_and_item():
    code = SPAN_PROBE.format(src=os.path.join(ROOT, "src"), bench=BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    roots = [i for i, span in enumerate(spans) if span[1] == -1]
    assert [spans[i][0] for i in roots] == ["difftest.generate_source",
                                            "difftest.check_source"]
    assert all(span[2] == 3 for span in spans), "every span has the seed"
    for index, (name, parent, _, start, dur) in enumerate(spans):
        if index in roots:
            continue
        outer = spans[parent]
        assert 0 <= parent < index and outer[3] <= start
        assert start + dur <= outer[3] + outer[4] + 1e-6, name
    names = {span[0] for span in spans}
    assert {"regalloc.allocate_function", "ir.verify_program",
            "machine.Simulator.run", "ir.Program.clone"} <= names


def test_wholeprog_matches_monolithic_oracle(tmp_path):
    inputs = workloads.make_inputs("wholeprog", SEED, TINY["wholeprog"])
    payload = json.dumps(inputs)
    _, oracle = run._child(["--workload", "wholeprog", "--inputs", payload,
                            "--oracle"], str(tmp_path / "oracle"))
    _, result = run._child(["--workload", "wholeprog", "--inputs", payload],
                           str(tmp_path / "run"))
    outcome = result["outcome"]
    assert len(oracle["rows"]) == inputs["routines"]
    assert run.oracle_mismatch(outcome, oracle) == (0, None)
    # one routine's row changed is one failed routine and a failed check
    name = sorted(outcome["rows"])[0]
    outcome["rows"][name] = "0" * 64
    wrong, message = run.oracle_mismatch(outcome, oracle)
    assert wrong == 1 and message


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ccmbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "ccmbench/run.py", "--workload", "fuzz", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert (workloads.make_inputs(workload, 3)
                == workloads.make_inputs(workload, 3))
    assert (workloads.make_inputs("fuzz", workloads.DEFAULT_SEED)
            != workloads.make_inputs("fuzz", workloads.HELD_OUT_SEED))
