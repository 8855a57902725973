"""Spans around the public names each swarmlang layer is called through.

`traced(spans)` swaps each name listed in `_targets` for a wrapper that
records a span (name, start, end, parent) and restores the originals on
exit; nothing in the program itself changes.  Spans stay in flat arrays
in memory.  `Spans.layers()` turns them into per-layer times and counts.
"""

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

WIRE_TYPES = ("Announce", "Broadcast", "SwarmJoin", "SwarmLeave",
              "SwarmList", "VstigPut", "VstigGet")


class Spans:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.counts = Counter()

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` counts."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # --- counts read from what the layers return --------------------------

    def count_outbox(self, args, result):
        vm, (outbox, _actuation) = args[0], result
        counts = self.counts
        counts["robot_steps"] += 1
        counts["budget"] += vm.config.payload_budget
        for sent in outbox:
            counts["wire.msgs." + type(sent.message).__name__] += 1
            counts["bytes"] += len(sent.raw)

    def count_delivery(self, args, inboxes):
        _drop_prob, topology, outboxes, _rng = args
        self.counts["attempted"] += sum(
            len(outbox) * len(links)
            for outbox, links in zip(outboxes, topology.out_links))
        self.counts["delivered"] += sum(map(len, inboxes))

    # --- reduction ----------------------------------------------------------

    def layers(self):
        """Per span name: calls, durations (s) and summed self time (s).

        Self time is a span's duration minus that of its direct children.
        `vm.call_value` also gets `outer`, the summed duration of the calls
        not nested in another call_value, i.e. time spent in script code.
        """
        nid = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child],
                                 minlength=len(dur))
        self_time = dur - child_time
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            out[name] = {"calls": int(mask.sum()), "dur": dur[mask],
                         "self": float(self_time[mask].sum())}
        if "vm.call_value" in self._ids:
            cv = self._ids["vm.call_value"]
            nested = np.zeros(len(dur), dtype=bool)
            nested[child] = nid[parent[child]] == cv
            out["vm.call_value"]["outer"] = float(
                dur[(nid == cv) & ~nested].sum())
        return out


def _targets(spans):
    """(owner, attribute, span name, after) for every wrapped name."""
    import swarmlang.sim as sim
    import swarmlang.vm as vm_mod
    from swarmlang.sim import experiments, network, runner, sweep
    from swarmlang.vm import Vm

    return [
        (sim, "run", "runner.run", None),
        (sim, "experiment_sweep", "sweep.experiment_sweep", None),
        (runner, "place_robots", "config.place_robots", None),
        (sim.Topology, "build", "config.topology_build", None),
        (sim.Experiment, "image", "experiments.image", None),
        (sim.Experiment, "prepare", "experiments.prepare", None),
        (sim.Experiment, "converged", "experiments.converged", None),
        (experiments, "compile_source", "compiler.compile", None),
        (experiments, "link", "linker.link", None),
        (Vm, "__init__", "vm.create", None),
        (Vm, "step", "vm.step", spans.count_outbox),
        (Vm, "call_value", "vm.call_value", None),
        (vm_mod, "encode_message", "wire.encode", None),
        (network, "decode_message", "wire.decode", None),
        (runner, "deliver", "network.deliver", spans.count_delivery),
        (sweep, "run", "runner.run", None),
        (sweep, "summarize", "sweep.summarize", None),
        (sweep, "rows_to_csv", "sweep.csv", None),
    ]


@contextmanager
def traced(spans):
    """Record spans into `spans` while the block runs."""
    saved = []
    try:
        for owner, attr, name, after in _targets(spans):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(spans.wrap(name, original.__func__,
                                                 after))
            else:
                wrapped = spans.wrap(name, original, after)
            setattr(owner, attr, wrapped)
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
