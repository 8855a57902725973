"""Quickened built-in calls (`translate._QUICK`) against the interpreter.

Each script calls a built-in under a quickened name and arity, on the
inline arm's types and off them.  Every budget up to the step's end or
fault must leave `Vm` and `reference_vm.ReferenceVm` alike
(`test_translate.observe`), so fuel and fault positions cannot tell the
inline arm from the host call it stands for.
"""

import collections
import re

import pytest

from swarmlang import behaviors, translate
from swarmlang.linker import compile_and_link
from swarmlang.neighbors import make_view
from swarmlang.vm import Vm, VmConfig
from swarmlang.wire import Announce, Broadcast, Situated

from reference_vm import ReferenceVm
from test_translate import idle, observe


def second_step(engine, image, budget, inbox):
    """Observations of robot 5's second step, run on `budget` after a
    first one on a full budget (gradient's robot 0 is its source, which
    does not listen)."""
    vm = engine(image, 5, VmConfig())
    vm.step([])
    vm.config.instruction_budget = budget
    outbox, actuation = vm.step(list(inbox))
    assert idle(vm)
    return observe(vm, outbox, actuation, ())


INF = "var inf = 1e308 * 10.\n  var nan = inf - inf\n  "
QUICKENED = {
    "gradient": (behaviors.load_script("gradient"), [
        Situated(rid, 30.0 * rid, 0.0, 0.0,
                 (Announce(), Broadcast("dist_to_source", 10.0 * rid)))
        for rid in (3, 1, 2)]),
    "rebound": ("function step() {\n  builtin = builtin or math.min\n"
                "  math.min = builtin\n  var a = math.min(3., 4.)\n"
                "  math.min = math.abs\n  b = math.min(-3., 4.)\n"
                "  math.min = function(x, y) { return x - y }\n"
                "  c = math.min(3., 4.) + a\n}\n", ()),
    # a script function under a quickened name, faulting mid-body: its
    # fuel is the callee's, whatever arms follow the script call
    "script-min": ("function step() {\n"
                   "  math.min = function(a, b) {\n    var c = a + b\n"
                   "    var d = c + nil\n    return d\n  }\n"
                   "  x = math.min(1., 2.)\n}\n", ()),
    "script-get": ("function step() {\n"
                   "  neighbors.get = function(r) { return r.x }\n"
                   "  x = neighbors.get(5)\n}\n", ()),
    # the same names on another table: not a quickened site
    "table-min": ("function step() {\n  var t = {}\n"
                  "  t.min = function(a, b) {\n    var c = a + b\n"
                  "    var d = c + nil\n    return d\n  }\n"
                  "  x = t.min(1., 2.)\n}\n", ()),
    "min-arity": ("function step() {\n  a = math.min(1., 2., 0.5)\n"
                  "  b = math.min(7.)\n}\n", ()),
    "min-types": ("function step() {\n  " + INF
                  + "a = math.min(2, 1.5) + math.min(nan, 1.) "
                  "+ math.min(1., nan)\n  b = math.min(1., nil)\n}\n", ()),
    "min-string": ('function step() {\n  a = math.min("a", 1.)\n}\n', ()),
    "trig": ("function step() {\n  " + INF
             + "a = math.cos(0.5) + math.sin(-0.) + math.cos(nan) "
             "+ math.sin(2)\n  b = math.cos(1., 2.)\n  c = math.sin(inf)\n"
             "}\n", ()),
    "trig-none": ("function step() {\n  a = math.cos()\n}\n", ()),
    "get": ("function step() {\n  if (neighbors.count() > 0) {\n"
            "    a = neighbors.get(2).distance + neighbors.get(2.).azimuth\n"
            "    b = neighbors.get(7)\n    c = neighbors.get(2, 3)\n  }\n}\n",
            [Situated(2, 20.0, 0.5, 0.0, (Announce(),))]),
    "get-unbound": ("function step() {\n  var t = {}\n"
                    "  t.get = neighbors.get\n  a = t.get(1)\n"
                    "  var g = neighbors.get\n  b = g(1)\n}\n", ()),
}


def every_budget(name):
    """The full-budget second step of QUICKENED[name], after checking the
    engines agree on it and on every smaller budget."""
    source, inbox = QUICKENED[name]
    image = compile_and_link(source)
    full = second_step(Vm, image, 10_000, inbox)
    assert full == second_step(ReferenceVm, image, 10_000, inbox)
    used = 10_000 - full[7]
    for budget in range(1, used + 2):
        assert second_step(Vm, image, budget, inbox) == \
            second_step(ReferenceVm, image, budget, inbox), budget
    return full


@pytest.mark.parametrize("name", QUICKENED)
def test_quickened_calls_match_the_interpreter_at_every_budget(name):
    every_budget(name)


def quick_arms(source):
    """The quickened arms in the translation of `source`."""
    program = compile_and_link(source).program
    built = collections.defaultdict(lambda: None)  # for MKCLOSURE
    arms = []
    for start, end, nparams, nlocals in program.regions:
        text, _, _ = translate._generate(program.instrs, program.depths,
                                         built, start, end, nparams,
                                         nlocals)
        arms += re.findall(r"\bif (s\d+) is k\d+ and ", text)
    return arms


@pytest.mark.parametrize("name, arms", [
    ("gradient", 2), ("rebound", 3), ("script-min", 1), ("script-get", 1),
    ("table-min", 0), ("min-arity", 0), ("trig", 5), ("get", 3),
    ("get-unbound", 0),
])
def test_the_quickened_sites_get_an_inline_arm(name, arms):
    assert len(quick_arms(QUICKENED[name][0])) == arms


def test_quickened_results_are_exact():
    got = every_budget("rebound")
    # abs(-3.) under the name min, then the script function
    assert dict(got[2])["b"] == ("float", 1.0, "3.0")
    assert dict(got[2])["c"] == ("float", 1.0, "2.0")
    got = every_budget("get")
    assert got[6][:2] == ("<script>:5:19: get expects a robot id", 5)
    assert dict(got[2])["a"] == ("float", 1.0, "20.5")
    assert dict(got[2])["b"] is None
    # every listener call ran, each through both quickened arms
    got = every_budget("gradient")
    assert got[6] is None
    assert dict(got[2])["mydist"] == ("float", 1.0, "40.0")  # 30 + 10
    for name, fault in [
            ("trig", "6:12: math.sin of an infinite number"),
            ("script-min", "4:15: cannot apply '+' to float and nil"),
            ("script-get", "2:42: indexing a int value"),
            ("table-min", "5:15: cannot apply '+' to float and nil"),
            ("min-types", "5:12: math.min expects numeric arguments"),
            ("min-string", "2:12: math.min expects numeric arguments"),
            ("min-arity", "3:12: math.min expects numeric arguments"),
            ("trig-none", "2:12: math.cos expects numeric arguments"),
            ("get-unbound", "6:8: get called on a nil value")]:
        assert every_budget(name)[6][0] == "<script>:" + fault, name


def test_quickened_get_coerces_a_bool_the_host_put_in_a_table():
    source = ("function step() {\n  neighbors = t\n"
              "  a = neighbors.get(5)\n  b = neighbors.get(6)\n}\n")
    assert len(quick_arms(source)) == 2
    seen = []
    for engine in (Vm, ReferenceVm):
        vm = engine(compile_and_link(source), 0)
        vm.set_global("t", make_view({5: True, 6: False}))
        vm.step([])
        assert vm.faulted is None
        seen.append((vm.get_global("a"), vm.get_global("b"), vm._fuel))
    assert seen[0] == seen[1]
    assert [type(v) for v in seen[0][:2]] == [int, int]
    assert seen[0][:2] == (1, 0)
