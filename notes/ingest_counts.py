"""Ingest counts of seeded simulator runs.

    PYTHONPATH=src python3 notes/ingest_counts.py [--seeds 5 11]

Runs barrier (N=200, P=0, to convergence), a serial consensus sweep
(N in {10, 30} x P in {0, .25, .5, .75} x 5 reps, 20 steps) and gradient
(N=1000, P=0.25, 6 steps), the shapes of the `barrier-200`, `sweep-small`
and `gradient-1k` benchmark workloads, once per seed, and prints one JSON
line per run:

- `envelopes`: envelopes in outboxes that have a receiver, i.e. the
  decodes of one decode per envelope;
- `decodes`: `decode_message` calls made by delivery;
- `vstig_msgs`: PUTs and GETs received for a store the robot had when
  its step began;
- `merges`: `VStigMap.merge` calls;
- `skipped`: `vstig_msgs - merges`, the no-op merges not made;
- `encodes`: `encode_message` calls made by the VM;
- `reused`: those whose PUT carried its received bytes;
- `records`: neighbor record tables built (`record_table` calls).  Only
  code that names `neighbors` gets a view each step, so the consensus
  and barrier scripts read 0; gradient, whose script names it, is the
  control.

Point PYTHONPATH at another checkout's `src/` to measure that one; a
checkout whose `VstigPut` keeps no received bytes reads `reused` 0.
"""

import argparse
import json

from swarmlang import sim, vm, vstig
from swarmlang.sim import network, runner
from swarmlang.wire import VstigGet, VstigPut


def run_barrier(seed):
    cfg = sim.SimulationConfig(n_robots=200, drop_prob=0.0, seed=seed,
                               max_steps=100)
    sim.run(cfg, sim.build_barrier())


def run_sweep(seed):
    sim.experiment_sweep("consensus", [10, 30], [0.0, 0.25, 0.5, 0.75], 5,
                         master_seed=seed, max_steps=20, workers=1)


def run_gradient(seed):
    cfg = sim.SimulationConfig(n_robots=1000, drop_prob=0.25, seed=seed,
                               max_steps=6)
    sim.run(cfg, sim.build_gradient())


RUNS = {"barrier-200": run_barrier, "sweep-small": run_sweep,
        "gradient-1k": run_gradient}


def measure(name, seed):
    counts = dict.fromkeys(("envelopes", "decodes", "vstig_msgs", "merges",
                            "encodes", "reused", "records"), 0)
    deliver, decode = runner.deliver, network.decode_message
    merge, ingest, encode = vstig.VStigMap.merge, vm.Vm._ingest, \
        vm.encode_message
    record = vm.record_table

    def counting_deliver(drop_prob, topology, outboxes, rng):
        counts["envelopes"] += sum(
            len(outbox) for outbox, links in zip(outboxes, topology.out_links)
            if links)
        return deliver(drop_prob, topology, outboxes, rng)

    def counting_decode(data):
        counts["decodes"] += 1
        return decode(data)

    def counting_merge(self, msg, machine):
        counts["merges"] += 1
        return merge(self, msg, machine)

    def counting_ingest(self, inbox):
        stores = self._vstigs
        counts["vstig_msgs"] += sum(
            1 for record in inbox for msg in record.msgs
            if type(msg) in (VstigPut, VstigGet) and msg.vstig_id in stores)
        return ingest(self, inbox)

    def counting_encode(sender_id, msg):
        counts["encodes"] += 1
        if getattr(msg, "received", None) is not None:
            counts["reused"] += 1
        return encode(sender_id, msg)

    def counting_record(*args):
        counts["records"] += 1
        return record(*args)

    runner.deliver = counting_deliver
    network.decode_message = counting_decode
    vstig.VStigMap.merge = counting_merge
    vm.Vm._ingest = counting_ingest
    vm.encode_message = counting_encode
    vm.record_table = counting_record
    try:
        RUNS[name](seed)
    finally:
        runner.deliver, network.decode_message = deliver, decode
        vstig.VStigMap.merge, vm.Vm._ingest = merge, ingest
        vm.encode_message, vm.record_table = encode, record
    counts["skipped"] = counts["vstig_msgs"] - counts["merges"]
    return {"workload": name, "seed": seed, **counts}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 11])
    args = ap.parse_args()
    for name in RUNS:
        for seed in args.seeds:
            print(json.dumps(measure(name, seed)))


if __name__ == "__main__":
    main()
