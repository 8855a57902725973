"""Delivery counts and full garbage collections of seeded simulator runs.

    PYTHONPATH=src python3 notes/delivery_counts.py [--seeds 11 12 13]

Runs barrier (N=200, P=0, to convergence) and gradient (N=1000, P=0.25,
6 steps), the shapes of the `barrier-200` and `gradient-1k` benchmark
workloads, once per seed, and prints one JSON line per run: messages
delivered (summed over every inbox of every step), inbox records, and
the number of full (oldest-generation) collections the run triggered.
Point PYTHONPATH at another checkout's `src/` to measure that one; an
inbox record without a `msgs` field (one record per message) counts as
one message.
"""

import argparse
import gc
import json

from swarmlang import sim
from swarmlang.sim import runner

RUNS = {
    "barrier-200": (sim.build_barrier, 200, 0.0, 100),
    "gradient-1k": (sim.build_gradient, 1000, 0.25, 6),
}


def measure(name, seed):
    build, n, p, steps = RUNS[name]
    cfg = sim.SimulationConfig(n_robots=n, drop_prob=p, seed=seed,
                               max_steps=steps)
    counts = {"messages": 0, "records": 0}
    deliver = runner.deliver

    def counting(*args):
        inboxes = deliver(*args)
        for inbox in inboxes:
            counts["records"] += len(inbox)
            counts["messages"] += sum(len(getattr(r, "msgs", (r,)))
                                      for r in inbox)
        return inboxes

    runner.deliver = counting
    try:
        gc.collect()
        before = gc.get_stats()[2]["collections"]
        result = sim.run(cfg, build())
        counts["full_collections"] = gc.get_stats()[2]["collections"] - before
    finally:
        runner.deliver = deliver
    return {"workload": name, "seed": seed, "steps": len(result.metrics),
            **counts}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    args = ap.parse_args()
    for name in RUNS:
        for seed in args.seeds:
            print(json.dumps(measure(name, seed)))


if __name__ == "__main__":
    main()
