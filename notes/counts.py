"""Deterministic counts of seeded runs of the four benchmark workloads.

    PYTHONPATH=src python3 notes/counts.py [--seeds 5 11] [--workloads ...]

Runs one unit of each workload in `perfbench/workloads.py` per seed and
prints one JSON line per run.  Point PYTHONPATH at another checkout's
`src/` to measure that one.  What a run did, the same for any change
that keeps the output:

- `robot_steps`: VM steps, summed over every robot;
- `instructions`: script instructions executed, summed over every
  robot-step as `instruction_budget - vm._fuel` after the step;
- `fuel_sha256`: the sha256 of the per-robot-step fuel sequence, the
  decimal counts joined by commas in step order;
- `messages`: messages delivered, summed over every inbox of every step;
- `envelopes`: envelopes in outboxes that have a receiver;
- `vstig_msgs`: PUTs and GETs received for a store the robot had when
  its step began.

What it cost, which perf changes move on purpose:

- `inbox_records`: inbox records delivered, one per heard sender link;
- `decodes`: `decode_message` calls made by delivery: one per distinct
  encoded message (type byte onward) that decodes with `encoded` set in
  a step, and one per envelope of any other message;
- `merges`: `VStigMap.merge` calls, and `skipped`, `vstig_msgs - merges`;
- `encodes`: `encode_message` calls made by the VM, and `reused`, the
  messages a step sent, its ANNOUNCE apart, whose bytes no encode of
  that step made: queued messages sent as their `encoded` bytes
  (docs/wire.md, "Known bytes"), that is adopted PUTs as they arrived
  and broadcasts whose bytes an earlier drain kept;
- `view_tables`: neighbor record tables built (`record_table` calls);
- `collections`: garbage collections of each generation, young first,
  and `full_collections`, the last of them (oldest generation);
- `fuel_tests`: executed lines of generated code that take fuel and test
  it, `if (fuel := fuel - n) <= 0`, counted by a line tracer on the
  `<swarmlang>` frames of a second run of the unit.  The tracer slows
  that run and allocates, so it is kept out of the first, which gives
  every other count;
- `script_entries`: calls of generated code from code that is not
  generated (the host's entries into the script: `init`, `step`, the
  listeners, iterator and swarm callbacks), counted by the same tracer.
"""

import argparse
import collections
import contextlib
import gc
import hashlib
import json
import re
import sys
from pathlib import Path

# sim/config.py imports numpy at the first seed it draws: import it here,
# so that no unit's `collections` count the import
import numpy  # noqa: F401
from swarmlang import image, translate, vm, vstig
from swarmlang.sim import experiments, network, runner
from swarmlang.wire import VstigGet, VstigPut

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

FUEL_TEST = re.compile(r"^ *if \(fuel := fuel - \d+\) <= 0:")


@contextlib.contextmanager
def patched(*patches):
    """Set each (owner, name, value) for the block, then restore it."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def counts(workload, seed):
    """Every count but the traced ones of one unit of `workload`."""
    c = collections.Counter()
    fuel = []
    encoded = []  # the envelopes encoded in the running step
    step, deliver, decode = vm.Vm.step, runner.deliver, network.decode_message
    merge, encode, record = vstig.VStigMap.merge, vm.encode_message, \
        vm.record_table

    def counting_step(machine, inbox=()):
        if not machine.faulted:  # a faulted VM ingests nothing
            stores = machine._vstigs
            c["vstig_msgs"] += sum(
                1 for r in inbox for msg in r.msgs
                if type(msg) in (VstigPut, VstigGet)
                and msg.vstig_id in stores)
        encoded.clear()
        result = step(machine, inbox)
        fuel.append(machine.config.instruction_budget - machine._fuel)
        fresh = {id(raw) for raw in encoded}
        c["reused"] += sum(1 for sent in result[0][1:]
                           if id(sent.raw) not in fresh)
        return result

    def counting_deliver(drop_prob, topology, outboxes, rng):
        c["envelopes"] += sum(
            len(outbox) for outbox, links in zip(outboxes, topology.out_links)
            if links)
        inboxes = deliver(drop_prob, topology, outboxes, rng)
        for inbox in inboxes:
            c["inbox_records"] += len(inbox)
            c["messages"] += sum(len(r.msgs) for r in inbox)
        return inboxes

    def counting_decode(data):
        c["decodes"] += 1
        return decode(data)

    def counting_merge(self, msg, machine):
        c["merges"] += 1
        return merge(self, msg, machine)

    def counting_encode(sender_id, msg):
        c["encodes"] += 1
        encoded.append(encode(sender_id, msg))
        return encoded[-1]

    def counting_record(*args):
        c["view_tables"] += 1
        return record(*args)

    # a warm-up unit of one step compiles, links and translates the
    # unit's scripts (experiments._linked keeps them), so that the gc
    # window below counts only the unit's own run, whichever unit of the
    # process it is
    warm_up, _ = workload.prepare(seed, 1)
    warm_up()
    call, _ = workload.prepare(seed, workload.steps)
    with patched((vm.Vm, "step", counting_step),
                 (runner, "deliver", counting_deliver),
                 (network, "decode_message", counting_decode),
                 (vstig.VStigMap, "merge", counting_merge),
                 (vm, "encode_message", counting_encode),
                 (vm, "record_table", counting_record)):
        gc.collect()
        before = [g["collections"] for g in gc.get_stats()]
        call()
        per_generation = [g["collections"] - b
                          for g, b in zip(gc.get_stats(), before)]
    text = ",".join(map(str, fuel))
    return {"robot_steps": len(fuel), "instructions": sum(fuel),
            "fuel_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "messages": c["messages"], "envelopes": c["envelopes"],
            "vstig_msgs": c["vstig_msgs"],
            "inbox_records": c["inbox_records"], "decodes": c["decodes"],
            "merges": c["merges"], "skipped": c["vstig_msgs"] - c["merges"],
            "encodes": c["encodes"], "reused": c["reused"],
            "view_tables": c["view_tables"],
            "collections": per_generation,
            "full_collections": per_generation[-1]}


def traced(workload, seed):
    """`fuel_tests` and `script_entries` of one traced unit of `workload`.

    Images and their translations are cached per process, so the linked
    images are dropped first: the unit's scripts are translated again
    under the watch, which maps each built function's code object, named
    after its region once the translation is done, to its fuel test lines.
    """
    lines_of = {}
    built = []  # (function, fuel test lines) of the running translation
    tests = entries = 0
    factory, translate_program = translate._factory, image.translate

    def recording_factory(source):
        mk = factory(source)
        lines = frozenset(n for n, text in enumerate(source.split("\n"), 1)
                          if FUEL_TEST.match(text))

        def recording_mk(consts):
            fn = mk(consts)
            built.append((fn, lines))
            return fn
        return recording_mk

    def recording_translate(program):
        main = translate_program(program)
        lines_of.update((fn.__code__, lines) for fn, lines in built)
        built.clear()
        return main

    def on_call(frame, event, _arg):
        nonlocal entries
        lines = lines_of.get(frame.f_code)
        if lines is None:
            return None
        if frame.f_back is None or frame.f_back.f_code not in lines_of:
            entries += 1

        def on_line(frame, event, _arg):
            nonlocal tests
            if event == "line" and frame.f_lineno in lines:
                tests += 1
            return on_line
        return on_line

    experiments._linked.cache_clear()
    call, _ = workload.prepare(seed, workload.steps)
    with patched((translate, "_factory", recording_factory),
                 (image, "translate", recording_translate)):
        outer = sys.gettrace()  # a coverage tool's, say: put back after
        sys.settrace(on_call)
        try:
            call()
        finally:
            sys.settrace(outer)
    return {"fuel_tests": tests, "script_entries": entries}


def main():
    catalog = workloads.catalog()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 11])
    ap.add_argument("--workloads", nargs="+", choices=list(catalog),
                    default=list(catalog))
    args = ap.parse_args()
    for name in args.workloads:
        for seed in args.seeds:
            row = {"workload": name, "seed": seed,
                   **counts(catalog[name], seed),
                   **traced(catalog[name], seed)}
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
