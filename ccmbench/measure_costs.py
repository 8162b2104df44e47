"""Measure the cost table ``costs.json`` that steers the input draw.

    python3 ccmbench/measure_costs.py [--passes 2] [--workloads fuzz,...]

Each candidate input (a suite routine for ``tables``, a generator seed
for ``fuzz``, an application seed for ``wholeprog``) is timed alone as
one cold run, exactly as the benchmark runs it, once per pass; passes
alternate direction so that a slow stretch of the host does not fall on
the same candidates twice, and the table keeps the mean wall time.  It
also keeps each candidate's peak RSS, which does not vary between
passes.  The costs
only decide which inputs a seed draws: rerunning this script changes
the inputs of every seed, so the benchmark's baseline must be measured
again afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

#: candidates per workload and the single-candidate inputs of each
CANDIDATES = {
    "tables": (workloads.TABLES_HEAVY + workloads.TABLES_LIGHT,
               lambda name: {"routines": [name]}),
    "fuzz": ([str(s) for s in range(120)],
             lambda seed: {"gen_seeds": [int(seed)]}),
    "wholeprog": ([str(s) for s in range(1, 49)],
                  lambda seed: {"routines": workloads.WHOLEPROG_ROUTINES,
                                "app_seed": int(seed),
                                "jobs": workloads.WHOLEPROG_JOBS,
                                "ccm_bytes": workloads.WHOLEPROG_CCM}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(CANDIDATES),
                        help="re-measure only these; keep the others")
    args = parser.parse_args(argv)
    scratch = os.path.join(run.ROOT, ".ccmbench_tmp", "costs")
    path = os.path.join(HERE, "costs.json")
    with open(path) as handle:
        costs = json.load(handle)
    for workload in args.workloads.split(","):
        names, inputs_of = CANDIDATES[workload]
        times = {name: [] for name in names}
        rss = {}
        for index in range(args.passes):
            order = list(names) if index % 2 == 0 else list(names)[::-1]
            for name in order:
                _, result = run._child(
                    ["--workload", workload, "--inputs",
                     json.dumps(inputs_of(name))], scratch)
                if result["outcome"]["failed"]:
                    raise SystemExit(f"{workload} {name} failed")
                times[name].append(result["wall_s"])
                rss[name] = round(result["peak_rss_mb"], 1)
                print(workload, name, round(result["wall_s"], 3),
                      file=sys.stderr, flush=True)
        costs[workload] = {name: round(sum(t) / len(t), 3)
                           for name, t in times.items()}
        costs[f"{workload}_rss_mb"] = rss
    with open(path, "w") as handle:
        json.dump(costs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
