"""Fuel counts of seeded simulator runs of the four benchmark workloads.

    PYTHONPATH=src python3 notes/fuel_counts.py [--seeds 5] [--workloads ...]

Runs one unit of each workload in `perfbench/workloads.py` (gradient-1k,
barrier-200, segregation-100, sweep-small) per seed and prints one JSON
line per run:

- `instructions`: script instructions executed, summed over every
  robot-step as `instruction_budget - vm._fuel` after the step;
- `robot_steps`: the steps summed;
- `fuel_sha256`: the sha256 of the per-robot-step fuel sequence, the
  decimal counts joined by commas in step order;
- `fuel_tests`: executed lines of generated code that take fuel and test
  it, `if (fuel := fuel - n) <= 0`, counted by a line tracer on the
  `<swarmlang>` frames.  Code that charges each instruction runs one per
  instruction; code that charges each straight-line segment runs one per
  segment, plus one per instruction of a checked copy where a budget
  runs out.

The first three are the same for any translation that keeps fuel exact;
`fuel_tests` is the work the fuel checks cost.  The tracer slows the
runs, so the figures are counts, not timings.  Point PYTHONPATH at
another checkout's `src/` to measure that one.
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

from swarmlang import image, translate, vm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

FUEL_TEST = re.compile(r"^ *if \(fuel := fuel - \d+\) <= 0:")


def fuel_test_lines(source):
    """The line numbers of the fuel tests in one generated source."""
    return frozenset(n for n, text in enumerate(source.split("\n"), 1)
                     if FUEL_TEST.match(text))


def watch_translation():
    """Map each generated function's code object to its fuel test lines.

    Images and their translations are cached, so this must be in place
    before the first run translates anything.  `translate` gives each
    built function its own code object, named after its region, after the
    factory has made it, so the map is filled once a translation is done.
    """
    lines_of = {}
    built = []  # (function, fuel test lines) of the running translation
    factory, translate_program = translate._factory, image.translate

    def recording_factory(source):
        mk = factory(source)
        lines = fuel_test_lines(source)

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

    factory.cache_clear()
    translate._factory = recording_factory
    image.translate = recording_translate
    return lines_of


def measure(name, seed, lines_of):
    workload = workloads.catalog()[name]
    call, _ = workload.prepare(seed, workload.steps)
    fuel = []
    tests = [0]
    step = vm.Vm.step

    def counting_step(machine, inbox=()):
        result = step(machine, inbox)
        fuel.append(machine.config.instruction_budget - machine._fuel)
        return result

    def on_call(frame, event, _arg):
        lines = lines_of.get(frame.f_code)
        if lines is None:
            return None

        def on_line(frame, event, _arg):
            if event == "line" and frame.f_lineno in lines:
                tests[0] += 1
            return on_line
        return on_line

    vm.Vm.step = counting_step
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(None)
        vm.Vm.step = step
    text = ",".join(map(str, fuel))
    return {"workload": name, "seed": seed, "instructions": sum(fuel),
            "robot_steps": len(fuel),
            "fuel_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "fuel_tests": tests[0]}


def main():
    names = list(workloads.catalog())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[5])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = ap.parse_args()
    lines_of = watch_translation()
    for name in args.workloads:
        for seed in args.seeds:
            print(json.dumps(measure(name, seed, lines_of)), flush=True)


if __name__ == "__main__":
    main()
