"""swarmlang benchmark: robot-steps per second on four workloads.

    python3 perfbench/run.py --workload gradient-1k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload barrier-200 --seed 1 --trace 1
    python3 perfbench/run.py --record [--workload NAME]

Run from the root of a source checkout; the program is imported from its
`src/`.  `--trace 0` times whole runs with nothing wrapped and prints the
end-to-end metrics.  `--trace 1` wraps each layer's public entry points
around the timed calls only, runs a fixed set of units twice and prints
the per-layer metrics.
`--record` rewrites the reference outputs in `reference.json`.  Every run
is checked against that reference; the last line of standard output is
one JSON object, and the exit code is 1 when any check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

TRACE_PASSES = 2  # traced passes over the same units; counts must agree
TRACE_UNITS = 1   # units (seeded runs or sweeps) in one traced pass
SETUP_SHARE = 0.25  # set-up samples after a unit take this share of its time


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(REFERENCE))
    ap.add_argument("--record", action="store_true",
                    help="rewrite the reference outputs of every pool seed")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    return args


def load_program():
    """Import swarmlang from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "swarmlang" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no swarmlang sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import swarmlang
    if Path(swarmlang.__file__).resolve().parent != src / "swarmlang":
        raise SystemExit(f"perfbench: imported {swarmlang.__file__}, "
                         f"not the sources under {src}")


# --- statistics ----------------------------------------------------------

def tail(samples):
    """Highest percentile above the median with at least ten samples
    beyond it, as (percentile, value), or None when there are too few."""
    n = len(samples)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def percentile_text(samples, unit):
    med = statistics.median(samples)
    t = tail(samples)
    tail_text = (f"p{t[0]:.4g}={t[1]:.6g}" if t
                 else "tail n/a (needs > 20 samples)")
    return f"p50={med:.6g} {tail_text} {unit} (n={len(samples)})"


# --- environment -----------------------------------------------------------

def commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "swarmlang").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit(),
            "src_sha256": digest.hexdigest()[:16],
            "SWARMLANG_THREADS": os.environ.get("SWARMLANG_THREADS")}


# --- running units -----------------------------------------------------------

class Checker:
    """Compares each unit's record with the reference for its seed."""

    def __init__(self, workload, reference):
        self.expected = reference.get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, seed, outcome):
        self.attempted += 1
        problems = list(outcome.problems)
        want = self.expected.get(str(seed))
        if want is None:
            problems.append("no reference recorded")
        elif outcome.record != want:
            problems.append(f"output {outcome.record} != reference {want}")
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in problems[:3]]


def timed_unit(workload, seed, max_steps, around=nullcontext):
    """(seconds, outcome) of one seeded call.  Only the call is timed, and
    only the call runs inside `around()`: the checks that build the
    outcome afterwards are neither timed nor traced."""
    call, outcome = workload.prepare(seed, max_steps)
    with around():
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
    return elapsed, outcome(result)


def timed_mode(workload, order, seconds, checker):
    timed_unit(workload, order[0], 0)  # warm-up: imports, script files
    walls, step_rates, cell_rates, setup = [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        seed = order[i % len(order)]
        wall, out = timed_unit(workload, seed, workload.steps)
        checker.check(seed, out)
        walls.append(wall)
        step_rates.append(out.robot_steps / wall)
        cell_rates.append(out.cells / wall)
        if i == 0:
            # read after a fixed amount of work, so that a faster program
            # that fits more runs into the time is not charged for them
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # set-up samples spread over the whole run, in a warm process, see
        # the same load on the host as the units do; where set-up is cheap
        # next to a unit, more of them are taken
        spent = 0.0
        while spent == 0.0 or spent < SETUP_SHARE * wall:
            elapsed = timed_unit(workload, order[len(setup) % len(order)],
                                 0)[0]
            setup.append(elapsed)
            spent += elapsed
        i += 1
    # medians of per-run rates, so that one run slowed by a burst of load
    # on the host cannot drag the figure the way a ratio of sums would
    metrics = {
        "robot_steps_per_s": (statistics.median(step_rates), "1/s"),
        "run_s": (statistics.median(walls), "s"),
        "cells_per_s": (statistics.median(cell_rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "run_s": percentile_text(walls, "s"),
        "setup_s": percentile_text(setup, "s"),
        "robot_steps_per_s": percentile_text(step_rates, "1/s"),
        "cells_per_s": percentile_text(cell_rates, "1/s"),
    }
    return metrics, notes


def run_pass(workload, seeds, checker, around=nullcontext):
    steps = 0
    wall = 0.0
    for seed in seeds:
        elapsed, out = timed_unit(workload, seed, workload.steps, around)
        checker.check(seed, out)
        steps += out.robot_steps
        wall += elapsed
    return steps, wall


def pass_counts(spans, layers):
    """The counts of one traced pass, which must repeat exactly."""
    from spans import WIRE_TYPES

    c = spans.counts
    calls = {name: layer["calls"] for name, layer in layers.items()}
    out = {
        "compiler.calls": calls.get("compiler.compile", 0),
        "vm.script_calls": calls.get("vm.call_value", 0),
        "wire.encode_calls": calls.get("wire.encode", 0),
        "wire.decode_calls": calls.get("wire.decode", 0),
        "network.deliveries": c["delivered"],
        "network.drops": c["attempted"] - c["delivered"],
        "robot_steps": c["robot_steps"],
        "bytes": c["bytes"],
        "budget": c["budget"],
        "attempted": c["attempted"],
    }
    for t in WIRE_TYPES:
        out["wire.msgs." + t] = c["wire.msgs." + t]
    return out


def traced_mode(workload, order, seconds, checker):
    from spans import Spans, traced

    seeds = order[:TRACE_UNITS]
    run_pass(workload, order[:1], checker)  # warm-up
    base_steps, base_wall, passes = 0, 0.0, 0
    start = time.perf_counter()
    while passes < TRACE_PASSES or time.perf_counter() - start < seconds / 2:
        s, w = run_pass(workload, seeds, checker)
        base_steps, base_wall, passes = base_steps + s, base_wall + w, \
            passes + 1

    per_pass, merged, step_durs = [], {}, []
    traced_steps, traced_wall = 0, 0.0
    for _ in range(TRACE_PASSES):
        spans = Spans()
        s, w = run_pass(workload, seeds, checker, partial(traced, spans))
        traced_steps, traced_wall = traced_steps + s, traced_wall + w
        layers = spans.layers()
        per_pass.append(pass_counts(spans, layers))
        for name, layer in layers.items():
            m = merged.setdefault(name, {"calls": 0, "total": 0.0,
                                         "self": 0.0, "outer": 0.0})
            m["calls"] += layer["calls"]
            m["total"] += float(layer["dur"].sum())
            m["self"] += layer["self"]
            m["outer"] += layer.get("outer", 0.0)
        if "vm.step" in layers:
            step_durs.extend(layers["vm.step"]["dur"].tolist())

    problems = []
    if any(c != per_pass[0] for c in per_pass[1:]):
        problems.append(f"deterministic counts differ between traced "
                        f"passes: {per_pass}")
    counts = per_pass[0]
    units = TRACE_PASSES * len(seeds)

    def per_unit_ms(name, key="total"):
        return 1e3 * merged.get(name, {}).get(key, 0.0) / units

    def mean_us(name):
        layer = merged.get(name)
        return 1e6 * layer["total"] / layer["calls"] if layer else 0.0

    step_tail = tail(step_durs)
    run_layer = merged.get("runner.run", {"calls": 0, "total": 0.0})
    metrics = {
        "compiler.compile_ms": (per_unit_ms("compiler.compile"), "ms"),
        "compiler.calls": (counts["compiler.calls"], "count"),
        "linker.link_ms": (per_unit_ms("linker.link"), "ms"),
        "vm.create_ms": (per_unit_ms("vm.create"), "ms"),
        "config.place_robots_ms": (per_unit_ms("config.place_robots"), "ms"),
        "config.topology_build_ms": (
            per_unit_ms("config.topology_build"), "ms"),
        "experiments.prepare_ms": (per_unit_ms("experiments.prepare"), "ms"),
        "experiments.converged_ms": (
            per_unit_ms("experiments.converged"), "ms"),
        "vm.step_us": (1e6 * statistics.median(step_durs), "us"),
        "vm.step_tail_us": (1e6 * step_tail[1] if step_tail else
                            1e6 * max(step_durs), "us"),
        "vm.step_self_ms": (per_unit_ms("vm.step", "self"), "ms"),
        "vm.call_value_ms": (per_unit_ms("vm.call_value", "outer"), "ms"),
        "vm.script_calls": (counts["vm.script_calls"], "count"),
        "wire.encode_us": (mean_us("wire.encode"), "us"),
        "wire.decode_us": (mean_us("wire.decode"), "us"),
        "wire.encode_calls": (counts["wire.encode_calls"], "count"),
        "wire.decode_calls": (counts["wire.decode_calls"], "count"),
        "wire.bytes_per_robot_step": (
            counts["bytes"] / counts["robot_steps"], "B/robot-step"),
        "vm.budget_fill": (counts["bytes"] / counts["budget"], "ratio"),
        "network.deliver_self_ms": (
            per_unit_ms("network.deliver", "self"), "ms"),
        "network.deliveries": (counts["network.deliveries"], "count"),
        "network.drops": (counts["network.drops"], "count"),
        "network.delivery_ratio": (
            counts["network.deliveries"] / counts["attempted"]
            if counts["attempted"] else 1.0, "ratio"),
        "runner.self_ms": (per_unit_ms("runner.run", "self"), "ms"),
        "sweep.cell_ms": (1e3 * run_layer["total"] / run_layer["calls"],
                          "ms"),
        "sweep.csv_ms": (per_unit_ms("sweep.summarize")
                         + per_unit_ms("sweep.csv"), "ms"),
        "trace.overhead": ((base_steps / base_wall)
                           / (traced_steps / traced_wall), "ratio"),
    }
    for name, value in counts.items():
        if name.startswith("wire.msgs."):
            metrics[name] = (value, "count")
    notes = {
        "vm.step_tail_us": (f"p{step_tail[0]:.4g} of n={len(step_durs)} "
                            "steps" if step_tail else "max (n <= 20)"),
        "trace.overhead": f"untraced {base_steps / base_wall:.6g} vs traced "
                          f"{traced_steps / traced_wall:.6g} robot-steps/s",
        "counts": f"per traced pass of {len(seeds)} unit(s), seeds {seeds}",
    }
    return metrics, notes, problems


def record(workloads, names, path):
    """Run every pool seed of each named workload and store its record."""
    from workloads import POOL

    reference = {}
    if Path(path).is_file():
        reference = json.loads(Path(path).read_text())
    for name in names:
        workload = workloads[name]
        entries = {}
        for seed in range(POOL):
            _wall, out = timed_unit(workload, seed, workload.steps)
            if out.problems:
                raise SystemExit(f"{name} seed {seed}: {out.problems[:3]}")
            entries[str(seed)] = out.record
        reference[name] = entries
        print(f"recorded {name}: {POOL} seeds", file=sys.stderr)
    Path(path).write_text(json.dumps(reference, indent=1, sort_keys=True)
                          + "\n")


def main(argv=None, workloads=None):
    load_program()
    from workloads import POOL, catalog

    workloads = workloads or catalog()
    args = parse_args(argv, sorted(workloads))
    if args.record:
        record(workloads, [args.workload] if args.workload
               else sorted(workloads), args.reference)
        return 0
    workload = workloads[args.workload]
    reference = json.loads(Path(args.reference).read_text())
    checker = Checker(workload, reference)
    order = random.Random(args.seed).sample(range(POOL), POOL)

    if args.trace:
        metrics, notes, problems = traced_mode(
            workload, order, args.seconds, checker)
    else:
        metrics, notes = timed_mode(workload, order, args.seconds, checker)
        problems = []
    problems += checker.problems
    failed_ratio = checker.failed / checker.attempted

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(environment(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"#   {name:<28} {value:>14.6g} {unit:<13} {note}")
    print(f"#   {'failed_ratio':<28} {failed_ratio:>14.6g} {'ratio':<13} "
          f"{checker.failed} of {checker.attempted} runs")
    if "counts" in notes:
        print(f"#   counts are {notes['counts']}")
    for problem in problems:
        print(f"# FAILED {problem}")
    correct = not problems and checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
