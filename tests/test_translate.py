"""Differential checks of the translated VM against the stack interpreter.

`reference_vm.ReferenceVm` runs script code in the dispatch loop the VM
used before translation.  Both engines run the same inputs, and after
every step of every robot these must be equal: the script's globals,
the outbox bytes, the actuation snapshot, what the script printed, the
fault (text and position) and the fuel left in `vm._fuel`.
"""

import dataclasses
import math
import random
import re
from unittest import mock

import pytest

from swarmlang import behaviors, sim, translate
from swarmlang.errors import SwarmlangError
from swarmlang.linker import compile_and_link
from swarmlang.sim import runner
from swarmlang.values import NativeClosure, SwarmHandle, Table, VStigHandle
from swarmlang.vm import Vm, VmConfig
from swarmlang.wire import Announce, Situated

from reference_vm import ReferenceVm
from test_image import SCRIPTS, splice
from test_vm_golden import BEHAVIOURS


def canonical(value, seen=()):
    """A value in a form that compares equal across the two engines."""
    if type(value) is float:
        return ("float", math.copysign(1.0, value), repr(value))
    if isinstance(value, Table):
        if id(value) in seen:
            return ("cycle",)
        inner = seen + (id(value),)
        return ("table", sorted(
            (repr(canonical(k)), canonical(v, inner))
            for k, v in value.data.items()))
    if isinstance(value, NativeClosure):
        return ("closure",)
    if isinstance(value, (SwarmHandle, VStigHandle)):
        return repr(value)
    return value


def observe(vm, outbox, actuation, printed):
    """Everything a step of `vm` left behind, engine-independent."""
    fault = vm.faulted
    return (vm.robot_id, vm.step_count,
            sorted((k, canonical(v)) for k, v in vm.script_globals().items()),
            [sent.raw for sent in outbox],
            sorted((k, canonical(Table(dict(enumerate(v)))))
                   for k, v in actuation.items()),
            list(printed),
            fault and (str(fault), fault.line, fault.col, fault.origin),
            vm._fuel)


def idle(vm):
    """True when no script level is left running on `vm`."""
    if isinstance(vm, ReferenceVm):
        # a fault in the top level left its root frame behind
        return vm.faulted or (vm.frames == [] and vm.stack == [])
    return vm.depth == 0


def record_run(engine, name, p, seed):
    """Per-step observations of a 10-step run of behaviour `name`."""
    experiment = dataclasses.replace(BEHAVIOURS[name](), convergence="none")
    cfg = sim.SimulationConfig(n_robots=12, drop_prob=p, seed=seed,
                               max_steps=10)
    seen = []
    real_step = engine.step

    def step(vm, inbox=()):
        outbox, actuation = real_step(vm, inbox)
        seen.append(observe(vm, outbox, actuation, ()))
        assert idle(vm)
        return outbox, actuation

    with mock.patch.object(runner, "Vm", engine), \
            mock.patch.object(engine, "step", step):
        sim.run(cfg, experiment)
    return seen


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("name", BEHAVIOURS)
def test_bundled_behaviours_match_the_interpreter(name, p):
    for seed in (1, 2):
        translated = record_run(Vm, name, p, seed)
        reference = record_run(ReferenceVm, name, p, seed)
        assert len(translated) == 120
        assert translated == reference


def run_script(engine, image, steps=3):
    """Observations of `steps` empty-inbox steps of one VM on `image`."""
    printed = []
    vm = engine(image, 0, VmConfig(), print_sink=printed.append)
    vm.register_function("goto", lambda _vm, args: None, actuator=True)
    seen = []
    for _ in range(steps):
        outbox, actuation = vm.step([])
        seen.append(observe(vm, outbox, actuation, printed))
        printed.clear()
        assert idle(vm)
    return seen


def test_mutated_sources_match_the_interpreter():
    # the corpus of test_mutated_sources_never_crash_the_host: seed 7,
    # 350 spliced copies per bundled script
    ran = faulted = 0
    for name in SCRIPTS:
        source = behaviors.load_script(name)
        rng = random.Random(7)
        for _ in range(350):
            try:
                image = compile_and_link(splice(source, rng))
            except SwarmlangError:
                continue
            translated = run_script(Vm, image)
            assert translated == run_script(ReferenceVm, image), name
            ran += 1
            faulted += translated[-1][6] is not None
    assert ran > 500 and faulted > 100  # faults are compared too


@pytest.mark.parametrize("budget", range(1, 40))
def test_every_budget_faults_at_the_same_instruction(budget):
    # a loop, a closure, a host call and a script call inside the budget
    image = compile_and_link("""
function add(a, b) { return a + b }
function step() {
  var i = 0
  var total = 0
  var bump = function(x) { total = total + x }
  while (i < 3) {
    bump(add(i, math.abs(-2)))
    i = i + 1
  }
  done = total
}
""")
    seen = []
    for engine in (Vm, ReferenceVm):
        vm = engine(image, 0, VmConfig(instruction_budget=10_000))
        vm.step([])
        vm.config.instruction_budget = budget
        outbox, actuation = vm.step([])
        seen.append(observe(vm, outbox, actuation, ()))
    assert seen[0] == seen[1]


# The shape of the segregation script: a `reduce` whose script callback
# calls a script function, `math.cos`/`sin`, and reads and writes tables.
SEGREGATION_SHAPED = """
DELTA = 50.
function force(dist, delta) {
  return -(delta / dist) * ((delta / dist)^4 - (delta / dist)^2)
}
function sum(rid, data, accum) {
  var fm = force(data.distance, DELTA)
  accum.x = accum.x + fm * math.cos(data.azimuth)
  accum.y = accum.y + fm * math.sin(data.azimuth)
  return accum
}
function step() {
  if (neighbors.count() > 0) {
    var dir = neighbors.reduce(sum, {x=0, y=0})
    dir.x = dir.x / neighbors.count()
    dir.y = dir.y / neighbors.count()
    last = dir
  }
}
"""
HEARD = [Situated(rid, 40.0 * rid, 0.7 * rid, 0.0, (Announce(),))
         for rid in (1, 2, 3)]


def second_step(engine, image, budget, inbox=()):
    """Observations of a second step run on `budget`, the first on a full
    one."""
    vm = engine(image, 0, VmConfig())
    vm.step([])
    vm.config.instruction_budget = budget
    outbox, actuation = vm.step(list(inbox))
    assert idle(vm)
    return observe(vm, outbox, actuation, ())


def test_every_budget_of_a_segregation_step_matches_the_interpreter():
    # every budget the step can run out on, inside the reduce callback and
    # the math host calls included, and the first one it does not
    image = compile_and_link(SEGREGATION_SHAPED)
    full = second_step(Vm, image, 10_000, HEARD)
    assert full[6] is None and "last" in dict(full[2])
    used = 10_000 - full[7]
    assert used > 100
    for budget in range(1, used + 2):
        translated = second_step(Vm, image, budget, HEARD)
        assert translated == second_step(ReferenceVm, image, budget, HEARD)
        assert (translated[6] is None) == (budget > used), budget


@pytest.mark.parametrize("body", [
    "var a = 1\n  var b = a + nil\n  var c = 2\n  done = b + c",
    "var t = nil\n  var b = t.x\n  var c = 2\n  done = b + c",
    "var t = {}\n  t[nil] = 1\n  var c = 2\n  done = c",
], ids=["add", "index", "key"])
def test_a_fault_inside_a_segment_refunds_the_rest(body):
    # the fault's instruction has straight-line code after it, charged on
    # entry to its segment and given back when the fault leaves it
    image = compile_and_link(f"function step() {{\n  {body}\n}}\n")
    translated = second_step(Vm, image, 10_000)
    assert translated[6] is not None and translated[6][0] != \
        "instruction budget exceeded"
    assert translated == second_step(ReferenceVm, image, 10_000)


CHARGE = re.compile(r"^ *if \(fuel := fuel - (\d+)\) <= 0:$", re.M)


@pytest.mark.parametrize("k", range(4))
def test_straight_line_code_charges_once_per_script_call_and_once_more(k):
    calls = "; ".join(["g(t.x + 1)"] * k)
    image = compile_and_link("function g(a) { }\n"
                             f"function f() {{ var t = {{x=1}}; {calls} }}\n")
    program = image.program
    entry = program.offsets.index(image.function_offsets()["f"]) + 1
    start, end, nparams, nlocals = next(
        region for region in program.regions if region[0] == entry)
    source, _, _ = translate._generate(program.instrs, program.depths, {},
                                       start, end, nparams, nlocals)
    charges = [int(n) for n in CHARGE.findall(source)]
    assert len(charges) == k + 1
    assert sum(charges) == end - start  # each instruction charged once
