"""Command-line entry point: compile, disasm, run, sim, sweep.

Exit codes: 0 success, 1 compile/link diagnostics, 2 usage errors,
3 I/O errors, 4 faulted VM.  Diagnostics go to stderr; stdout carries
only program output and parseable results.
"""

import argparse
import statistics
import sys

from .asm import disassemble
from .errors import (ImageError, SourceError, SwarmlangError, VmError,
                     VmRuntimeError)
from .image import BytecodeImage
from .lexer import read_source
from .linker import compile_and_link
from .values import to_display
from .vm import Vm
from .sim.config import PlacementError, SimulationConfig
from .sim.experiments import BUILDERS, ORACLES, experiment_for
from .sim.runner import run as run_sim
from .sim.sweep import experiment_sweep, write_outputs

EXIT_OK = 0
EXIT_DIAG = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FAULT = 4


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SourceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DIAG
    except (ImageError, SwarmlangError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PlacementError as exc:  # --robots and --density do not fit
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swarmlang",
        description="Swarm scripting language toolchain and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a script to a .bo image")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True, metavar="OUT.bo")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("disasm", help="print a re-assemblable listing")
    p.add_argument("image")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("run", help="run one robot for a number of steps")
    p.add_argument("image")
    p.add_argument("--robot-id", type=int, default=0)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--bind", choices=["mock-set"], default=None,
                   help="register the standard mock bindings (goto, "
                        "set_wheels, camera)")
    p.set_defaults(func=cmd_run)

    for name in ("sim", "sweep"):
        p = sub.add_parser(name, help=("single simulation run" if name ==
                                       "sim" else "(N, P) grid of runs"))
        p.add_argument("--script", required=True,
                       help="built-in experiment name "
                            f"({', '.join(sorted(BUILDERS))}) or a script "
                            "path")
        p.add_argument("--robots", required=True,
                       help="robot count (sim) or comma list (sweep)")
        p.add_argument("--drop-prob", default="0",
                       help="drop probability (sim) or comma list (sweep)")
        p.add_argument("--density", type=float, default=0.1)
        p.add_argument("--range", type=float, default=1.0, dest="comm_range")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=100)
        p.add_argument("--readout", default=None,
                       help="global to sample for user-supplied scripts")
        p.add_argument("--convergence", default="none",
                       choices=sorted(ORACLES),
                       help="convergence predicate for user scripts")
        if name == "sweep":
            p.add_argument("--reps", type=int, required=True)
            p.add_argument("--out", required=True, metavar="DATA.csv")
            p.add_argument("--gnuplot", action="store_true",
                           help="also write a whitespace summary .dat")
            p.set_defaults(func=cmd_sweep)
        else:
            p.set_defaults(func=cmd_sim)

    return parser


def cmd_compile(args):
    image = compile_and_link(read_source(args.source), origin=args.source)
    with open(args.output, "wb") as fh:
        fh.write(image.encode())
    return EXIT_OK


def cmd_disasm(args):
    image = _load_image(args.image)
    sys.stdout.write(disassemble(image))
    return EXIT_OK


def cmd_run(args):
    if args.steps < 0:
        print("usage error: --steps must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    image = _load_image(args.image)
    try:
        vm = Vm(image, args.robot_id)
    except VmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.bind == "mock-set":
        _register_mocks(vm)
    for _ in range(args.steps):
        vm.step([])
        if vm.faulted:
            print(f"runtime error: {vm.faulted}", file=sys.stderr)
            return EXIT_FAULT
    try:
        vm.destroy()
    except VmRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    for name in sorted(vm.script_globals()):
        print(f"{name} = {to_display(vm.get_global(name))}")
    return EXIT_OK


def _register_mocks(vm):
    vm.register_function("goto", lambda _vm, _args: None, actuator=True)
    vm.register_function("set_wheels", lambda _vm, _args: None,
                         actuator=True)
    vm.set_table("camera", [])


def _load_image(path):
    with open(path, "rb") as fh:
        return BytecodeImage.decode(fh.read())


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise SwarmlangError(f"bad integer list {text!r}")


def _float_list(text):
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise SwarmlangError(f"bad number list {text!r}")


def cmd_sim(args):
    try:
        experiment = experiment_for(args.script, args.readout,
                                    args.convergence)
        n = int(args.robots)
        p = float(args.drop_prob)
        cfg = SimulationConfig(n_robots=n, drop_prob=p, seed=args.seed,
                               max_steps=args.max_steps,
                               density=args.density,
                               comm_range=args.comm_range)
    except SourceError:
        raise  # a diagnostic in the script, not in the command line
    except (SwarmlangError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = run_sim(cfg, experiment)
    print("step,converged,min,median,max")
    for m in result.metrics:
        values = sorted(v for v in m.readouts if isinstance(v, (int, float)))
        if values:
            mid = statistics.median(values)
            print(f"{m.step},{1 if m.converged else 0},"
                  f"{values[0]},{mid},{values[-1]}")
        else:
            print(f"{m.step},{1 if m.converged else 0},,,")
    for rid, err in sorted(result.faults.items()):
        print(f"fault,robot {rid}: {err}", file=sys.stderr)
    print(f"converged,{result.converged_step if result.converged else ''}")
    return EXIT_OK


def cmd_sweep(args):
    try:
        if args.reps < 0:
            raise SwarmlangError("--reps must be >= 0")
        n_grid = _int_list(args.robots)
        p_grid = _float_list(args.drop_prob)
        if not n_grid or not p_grid:
            raise SwarmlangError("empty N or P grid")
        for n in n_grid:
            for p in p_grid:
                SimulationConfig(n_robots=n, drop_prob=p, seed=args.seed,
                                 max_steps=args.max_steps,
                                 density=args.density,
                                 comm_range=args.comm_range)
        experiment_for(args.script, args.readout, args.convergence)
    except SourceError:
        raise  # a diagnostic in the script, not in the command line
    except (SwarmlangError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, summary = experiment_sweep(
        args.script, n_grid, p_grid, args.reps, master_seed=args.seed,
        max_steps=args.max_steps, density=args.density,
        comm_range=args.comm_range, readout=args.readout,
        convergence=args.convergence)
    paths = write_outputs(rows, summary, args.out, gnuplot=args.gnuplot)
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
