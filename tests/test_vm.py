import cProfile
import itertools
import pstats
import sys
import threading

import pytest

from swarmlang.errors import VmError, VmRuntimeError
from swarmlang.linker import compile_and_link
from swarmlang.neighbors import VIEW_METHODS, make_view
from swarmlang.values import (NativeClosure, SwarmHandle, Table,
                              VStigHandle, type_name)
from swarmlang.vm import FRAMES_PER_LEVEL, HOST_FRAMES, Vm, VmConfig
from swarmlang.wire import (Announce, Broadcast, Situated, SwarmJoin,
                            SwarmLeave, SwarmList, VstigGet, VstigPut,
                            decode_message)

from conftest import build_vm
from reference_vm import ReferenceVm


def test_id_global_bound(run_script):
    vm = run_script("x = id", robot_id=7)
    assert vm.get_global("x") == 7


def test_toplevel_not_run_at_create():
    vm = build_vm("marker = 1")
    assert vm.get_global("marker") is None
    vm.step([])
    assert vm.get_global("marker") == 1


def test_two_vms_share_image_but_not_globals():
    image = compile_and_link("x = id * 10")
    a, b = Vm(image, 1), Vm(image, 2)
    a.step([])
    b.step([])
    assert a.get_global("x") == 10
    assert b.get_global("x") == 20


def test_negative_robot_id_rejected():
    image = compile_and_link("a = 1")
    with pytest.raises(VmError):
        Vm(image, -1)


def test_step_runs_step_function_and_announces():
    vm = build_vm("function step() { x = 1 }")
    outbox, _ = vm.step([])
    assert vm.get_global("x") == 1
    assert len(outbox) == 1
    assert isinstance(outbox[0].message, Announce)
    sender, msg = decode_message(outbox[0].raw)
    assert sender == vm.robot_id and isinstance(msg, Announce)


def test_toplevel_runs_once_then_step_each_time():
    vm = build_vm("count = 0\nfunction step() { ticks = (ticks or 0) + 1 }")
    vm.step([])
    vm.step([])
    vm.step([])
    assert vm.get_global("ticks") == 3


def test_init_runs_once_before_step():
    vm = build_vm("""
order = ""
function init() { order = "i" }
function step() { started = order }
""")
    vm.step([])
    assert vm.get_global("started") == "i"


def test_payload_budget_zero_sends_nothing_but_retains_queue():
    vm = build_vm("function step() { neighbors.broadcast(\"k\", 1) }",
                  config=VmConfig(payload_budget=0))
    outbox, _ = vm.step([])
    assert outbox == []
    assert len(vm.out_queue) == 1
    # raising the budget later drains the retained message
    vm.config.payload_budget = 200
    outbox, _ = vm.step([])
    kinds = [type(s.message).__name__ for s in outbox]
    assert kinds.count("Broadcast") >= 1


def test_calling_nil_faults_with_position():
    vm = build_vm("x = 1\nset_wheels(10.0, 5.0)")
    vm.step([])
    assert isinstance(vm.faulted, VmRuntimeError)
    assert vm.faulted.line == 2
    # faulted VM stays frozen
    outbox, snapshot = vm.step([])
    assert outbox == [] and snapshot == {}


def test_register_function_receives_args():
    vm = build_vm("function step() { set_wheels(10.0, 5.0) }")
    seen = []
    vm.register_function("set_wheels", lambda _vm, args: seen.append(args))
    vm.step([])
    assert seen == [[10.0, 5.0]]


def test_register_duplicate_name_rejected():
    vm = build_vm("a = 1")
    vm.register_function("motor", lambda _vm, args: None)
    with pytest.raises(VmError):
        vm.register_function("motor", lambda _vm, args: None)


def test_register_after_first_step_rejected():
    vm = build_vm("a = 1")
    vm.step([])
    with pytest.raises(VmError):
        vm.register_function("late", lambda _vm, args: None)


def test_host_set_table_visible_to_script():
    vm = build_vm("function step() { if(prox[0] > 100 or prox[7] > 100) "
                  "evade = 1 }")
    vm.set_table("prox", [(i, 200 if i == 0 else 10) for i in range(8)])
    vm.step([])
    assert vm.get_global("evade") == 1


def test_host_set_table_replaces_old_entries():
    vm = build_vm("a = 1")
    vm.set_table("prox", [(0, 1), (1, 2)])
    vm.set_table("prox", [(5, 9)])
    t = vm.get_global("prox")
    assert t.get(0) is None and t.get(5) == 9


def test_host_call_function():
    vm = build_vm("function inc(x) { return x + 1 }")
    vm.step([])
    assert vm.call_function("inc", [5]) == 6


def test_host_call_with_missing_arg_binds_nil():
    vm = build_vm("function probe(x) { if(x == nil) return \"none\"\n"
                  "return x }")
    vm.step([])
    assert vm.call_function("probe") == "none"


def test_host_call_non_closure_errors():
    vm = build_vm("target = 4")
    vm.step([])
    with pytest.raises(VmError):
        vm.call_function("target", [1])


def test_host_call_on_a_faulted_vm_errors():
    vm = build_vm("function f() { return 1 }\nx = 1 / 0")
    vm.step([])
    assert vm.faulted is not None
    with pytest.raises(VmError, match="faulted"):
        vm.call_function("f")


def test_actuator_calls_recorded_in_snapshot():
    vm = build_vm("function step() { goto(3.0, 4.0) }")
    vm.register_function("goto", lambda _vm, args: None, actuator=True)
    _, snapshot = vm.step([])
    assert snapshot == {"goto": (3.0, 4.0)}
    # snapshot is per step
    _, snapshot2 = vm.step([])
    assert snapshot2 == {"goto": (3.0, 4.0)}


def test_message_from_step_k_not_visible_before_k_plus_one():
    image = compile_and_link("""
function init() { neighbors.listen("ping", function(k, v, rid) { got = v }) }
function step() { neighbors.broadcast("ping", id) }
""")
    a, b = Vm(image, 1), Vm(image, 2)
    out_a, _ = a.step([])
    out_b, _ = b.step([])
    assert b.get_global("got") is None  # step 1: nothing delivered yet
    inbox_b = [Situated(1, 100.0, 0.0, 0.0, (m.message,)) for m in out_a
               if isinstance(m.message, Broadcast)]
    b.step(inbox_b)
    assert b.get_global("got") == 1


def test_determinism_same_inboxes_same_outboxes():
    src = """
function init() { vs = stigmergy.create(1) }
function step() { vs.put("k", id)\nneighbors.broadcast("d", id) }
"""
    image = compile_and_link(src)

    def trace():
        vm = Vm(image, 3, print_sink=lambda s: None)
        out = []
        for _ in range(5):
            outbox, _ = vm.step([])
            out.append(tuple(s.raw for s in outbox))
        return out, dict(vm.script_globals())

    t1, g1 = trace()
    t2, g2 = trace()
    assert t1 == t2
    assert set(g1) == set(g2)


def test_swarm_stack_balances_after_exec(run_script):
    vm = run_script("""
s = swarm.create(1)
s.join()
s.exec(function() { inside = swarm.id() })
after = swarm.id()
""")
    assert vm.get_global("inside") == 1
    assert vm.get_global("after") is None
    assert vm.swarm_stack == []


def test_instruction_budget_faults_infinite_loop():
    vm = build_vm("while(1) { x = 1 }",
                  config=VmConfig(instruction_budget=10_000))
    vm.step([])
    assert isinstance(vm.faulted, VmRuntimeError)
    assert "budget" in str(vm.faulted)


FUEL_SRC = """
function f() {
  var i = 0
  while (i < 10) { i = i + 1 }
  return i
}
function destroy() { done = f() }
function step() {
  var k = 0
  while (k < spin) { k = k + 1 }
  if (calls_back) got = again()
}
"""


def _spun_vm(spin, calls_back=0):
    # f takes about 100 units; a step of 1,000 passes leaves 980 of the
    # 10,000, one of 1,100 passes 80
    vm = build_vm(FUEL_SRC, config=VmConfig(instruction_budget=10_000))
    vm.register_function("again", lambda vm, args: vm.call_function("f"))
    vm.set_global("spin", spin)
    vm.set_global("calls_back", calls_back)
    vm.step([])
    return vm


def test_a_host_call_between_steps_starts_with_the_full_budget():
    vm = _spun_vm(1100)
    assert vm.faulted is None
    assert vm.call_function("f") == 10
    vm = _spun_vm(1100)
    vm.destroy()
    assert vm.get_global("done") == 10


def test_a_host_call_back_during_a_step_draws_on_the_step_budget():
    vm = _spun_vm(1000, calls_back=1)
    assert vm.faulted is None and vm.get_global("got") == 10
    vm = _spun_vm(1100, calls_back=1)
    assert vm.faulted.message == "instruction budget exceeded"
    assert vm.get_global("got") is None


def test_deep_recursion_faults_as_stack_overflow():
    vm = build_vm("function f(n) { return f(n + 1) }\nfunction step() "
                  "{ f(0) }", config=VmConfig(max_frames=50))
    vm.step([])
    assert isinstance(vm.faulted, VmRuntimeError)
    assert "overflow" in str(vm.faulted)


def test_operand_stack_empty_between_statements():
    vm = build_vm("a = 1\nf = function() { return 2 }\nb = f()\nc = a + b")
    vm.step([])
    assert vm.depth == 0  # every call returned through its depth count
    assert vm.get_global("c") == 3


def test_destroy_entry_point():
    vm = build_vm("function destroy() { cleaned = 1 }")
    vm.step([])
    vm.destroy()
    assert vm.get_global("cleaned") == 1
    vm.destroy()  # idempotent
    assert vm.get_global("cleaned") == 1


# --- fuel and fault positions across script calls ------------------------
#
# The instruction counts below were recorded before the dispatch loop
# cached frame state in locals and inlined calls; any later change to the
# loop must run exactly the same instruction stream, host re-entry
# included.

CALL_SRC = """
function add(a, b) {
  return a + b
}
function step() { x = add(1, 2) }
"""

REDUCE_SRC = """
function add(rid, data, acc) {
  return acc + data.distance
}
function step() { total = neighbors.reduce(add, 0) }
"""

LISTEN_SRC = """
function init() {
  neighbors.listen("k", function(key, value, sender) {
    got = value * 2
  })
}
function step() { }
"""

NEIGHBORS = [Situated(rid, 10.0 * rid, 0.0, 0.0, (Announce(),))
             for rid in (1, 2, 3)]
PING = [Situated(3, 100.0, 0.0, 0.0, (Broadcast("k", 5),))]


def _second_step(src, inbox, budget=None):
    """Run the first step on an empty inbox, then one step on `inbox`."""
    vm = build_vm(src)
    vm.step([])
    if budget is not None:
        vm.config.instruction_budget = budget
    vm.step(inbox)
    return vm


@pytest.mark.parametrize("src, inbox, k, last_line, name, value", [
    (CALL_SRC, [], 11, 5, "x", 3),
    (REDUCE_SRC, NEIGHBORS, 28, 5, "total", 60.0),
    (LISTEN_SRC, PING, 7, 7, "got", 10),
], ids=["call", "reduce", "listen"])
def test_step_fuel_is_exact(src, inbox, k, last_line, name, value):
    # a budget of K lets the step's K-1 instructions run; K-1 faults on
    # the last of them
    vm = _second_step(src, inbox, budget=k)
    assert vm.faulted is None
    assert vm.get_global(name) == value
    vm = _second_step(src, inbox, budget=k - 1)
    assert vm.faulted.message == "instruction budget exceeded"
    assert vm.faulted.line == last_line


@pytest.mark.parametrize("src, inbox, line, col", [
    ("""
function bad(x) {
  return x + nil
}
function step() { bad(1) }
""", [], 3, 12),
    ("""
function bad(rid, data, acc) {
  return acc + nil
}
function step() { neighbors.reduce(bad, 0) }
""", NEIGHBORS, 3, 14),
    ("""
function init() {
  neighbors.listen("k", function(key, value, sender) {
    got = value + nil
  })
}
""", PING, 4, 17),
], ids=["call", "reduce", "listen"])
def test_fault_inside_closure_reports_its_own_line(src, inbox, line, col):
    vm = _second_step(src, inbox)
    assert vm.faulted.message == "cannot apply '+' to int and nil"
    assert (vm.faulted.line, vm.faulted.col) == (line, col)
    assert vm.depth == 0  # the fault unwound every script level


def test_a_profile_keeps_each_script_function_apart():
    # f and g have one shape, so one compiled factory builds both; each
    # still has its own code object, named after its region
    vm = build_vm("function f() { return 1 }\nfunction g() { return 2 }\n"
                  "function step() { a = f()\n b = g()\n c = g() }")
    profile = cProfile.Profile()
    profile.runcall(vm.step, [])
    calls = {name: stats[1] for (file, _, name), stats
             in pstats.Stats(profile).stats.items() if file == "<swarmlang>"}
    f, g = (vm.get_global(name).code.__name__ for name in "fg")
    assert f != g and f.startswith("fn@") and g.startswith("fn@")
    assert (calls[f], calls[g]) == (1, 2)


@pytest.mark.parametrize("src, inbox", [
    ("""
function f(n) {
  depth = n
  f(n + 1)
}
function step() { f(1) }
""", []),
    ("""
function f(rid, data, n) {
  depth = n
  return neighbors.reduce(f, n + 1)
}
function step() { neighbors.reduce(f, 1) }
""", NEIGHBORS[:1]),
], ids=["direct", "reduce"])
@pytest.mark.parametrize("max_frames", [30, 31])
def test_recursion_overflows_at_exactly_max_frames(src, inbox, max_frames):
    vm = build_vm(src, config=VmConfig(max_frames=max_frames))
    vm.step([])
    vm.step(inbox)
    assert vm.faulted.message == "stack overflow"
    assert vm.faulted.line == 4
    # the step frame plus one frame per level of f fill max_frames
    assert vm.get_global("depth") == max_frames - 1


# --- the Python frames a script level costs --------------------------------
#
# Each chain recurses until max_frames stops it; `probe()` records how
# many Python frames are live at each level.  `python tests/test_vm.py`
# prints the figures FRAMES_PER_LEVEL is set from.

FRAME_CHAINS = {
    "direct": ("""
function f(n) {
  depth = n
  probe()
  f(n + 1)
}
function step() { f(1) }
""", []),
    "reduce": ("""
function f(rid, data, n) {
  depth = n
  probe()
  return neighbors.reduce(f, n + 1)
}
function step() { neighbors.reduce(f, 1) }
""", NEIGHBORS[:1]),
    "exec": ("""
function f() {
  depth = depth + 1
  probe()
  s.exec(f)
}
depth = 0
s = swarm.create(1)
s.join()
function step() { s.exec(f) }
""", []),
    "listener": ("""
function h(key, value, sender) {
  depth = value
  probe()
  h(key, value + 1, sender)
}
function init() { neighbors.listen("k", h) }
""", [Situated(3, 100.0, 0.0, 0.0, (Broadcast("k", 1),))]),
}

# the depth global when "stack overflow" stops each chain: the step
# function is the first level of direct, reduce and exec, the listener
# itself the first of listener
OVERFLOW_DEPTH = {"direct": -1, "reduce": -1, "exec": -1, "listener": 0}


def _python_frames():
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def run_chain(name, max_frames=VmConfig.max_frames):
    """Drive chain `name` to its overflow: (vm, Python frames per level)."""
    src, inbox = FRAME_CHAINS[name]
    frames = []
    vm = build_vm(src, config=VmConfig(max_frames=max_frames))
    vm.register_function("probe", lambda _vm, _args: frames.append(
        _python_frames()))
    vm.step([])
    vm.step(inbox)
    return vm, frames


def chain_frames(name):
    """(Python frames at the deepest level, frames per script level)."""
    _, frames = run_chain(name)
    steps = {b - a for a, b in zip(frames, frames[1:])}
    assert len(steps) == 1  # every level costs the same
    return frames[-1], steps.pop()


@pytest.mark.parametrize("name", FRAME_CHAINS)
def test_a_script_level_costs_at_most_frames_per_level(name):
    assert chain_frames(name)[1] <= FRAMES_PER_LEVEL


def test_frames_per_level_is_the_dearest_chain():
    # a call back through a built-in (a neighbor iterator, swarm exec) is
    # the dearest level: the built-in calls its callback's code itself,
    # one frame more than a direct call or a listener
    per_level = {name: chain_frames(name)[1] for name in FRAME_CHAINS}
    assert max(per_level.values()) == FRAMES_PER_LEVEL == per_level["exec"]
    assert per_level["reduce"] == FRAMES_PER_LEVEL
    assert per_level["direct"] == per_level["listener"] == \
        FRAMES_PER_LEVEL - 1


@pytest.mark.parametrize("in_thread", [False, True], ids=["main", "thread"])
@pytest.mark.parametrize("name", FRAME_CHAINS)
def test_default_max_frames_overflows_without_recursion_error(name,
                                                              in_thread):
    out = {}

    def drive():
        try:
            out["vm"] = run_chain(name)[0]
        except BaseException as exc:  # reported below, not swallowed
            out["error"] = exc

    if in_thread:
        worker = threading.Thread(target=drive)
        worker.start()
        worker.join()
    else:
        drive()
    assert "error" not in out, repr(out.get("error"))
    vm = out["vm"]
    assert isinstance(vm.faulted, VmRuntimeError)
    assert vm.faulted.message == "stack overflow"
    assert vm.faulted.line == 5  # the recursive call
    max_frames = VmConfig.max_frames
    assert vm.get_global("depth") == max_frames + OVERFLOW_DEPTH[name]
    assert vm.depth == 0


def test_max_frames_beyond_the_recursion_limit_is_refused():
    levels = (sys.getrecursionlimit() - HOST_FRAMES) // FRAMES_PER_LEVEL
    image = compile_and_link("x = 1")
    assert VmConfig.max_frames <= levels
    for fits in (30, 31, 50, levels):  # the values in use, and the bound
        Vm(image, 0, VmConfig(max_frames=fits))
    with pytest.raises(VmError, match="recursion limit"):
        Vm(image, 0, VmConfig(max_frames=levels + 1))


@pytest.mark.parametrize("src", [
    'function step() { neighbors.broadcast("k", s) }',
    'function step() { neighbors.broadcast(s, 1) }',
    'function init() { v = stigmergy.create(1) }\n'
    'function step() { v.put(s, 1) }',
], ids=["value", "key", "vstig-key"])
def test_unencodable_string_faults_only_its_robot(src):
    bad, good = build_vm(src, robot_id=1), build_vm(src, robot_id=2)
    bad.set_global("s", "\udc80")  # a lone surrogate has no UTF-8 form
    good.set_global("s", "fine")
    out, _ = bad.step([])
    assert isinstance(bad.faulted, VmRuntimeError)
    assert "UTF-8" in str(bad.faulted)
    assert [type(sent.message) for sent in out] == [Announce]
    assert bad.step([]) == ([], {})  # a faulted robot stays silent
    out, _ = good.step([])
    assert good.faulted is None and len(out) == 2


# numbers at the edges of int64 and float, made the way a script makes
# them: the last three are inf, -inf and nan
SPECIAL = ("0", "1", "-1", "0.0", "-0.0", "1.5", "9223372036854775807",
           "-9223372036854775807 - 1", "1e308 * 10", "-(1e308 * 10)",
           "1e308 * 10 - 1e308 * 10")
BINARY = ("a + b", "a - b", "a * b", "a / b", "a % b", "a ^ b", "a == b",
          "a != b", "a < b", "a <= b", "a > b", "a >= b", "math.min(a, b)")
UNARY = ("-a", "not a", "math.sin(a)", "math.cos(a)", "math.sqrt(a)",
         "math.abs(a)")


def test_special_numbers_fault_only_their_robot():
    maker = build_vm("\n".join(f"v{i} = {text}"
                               for i, text in enumerate(SPECIAL)))
    maker.step([])
    special = [maker.get_global(f"v{i}") for i in range(len(SPECIAL))]
    faults = {}
    for expr in BINARY + UNARY:
        image = compile_and_link(f"\nr = {expr}")
        for operands in itertools.product(special,
                                           repeat=2 if expr in BINARY else 1):
            vm = Vm(image, 0)
            for name, value in zip("ab", operands):
                vm.set_global(name, value)
            vm.step([])  # nothing but a fault of this robot comes out
            if vm.faulted:
                assert isinstance(vm.faulted, VmRuntimeError)
                assert vm.faulted.line == 2, (expr, operands)
                faults[expr, operands] = vm.faulted.message
    inf = float("inf")
    assert "infinite" in faults["math.sin(a)", (inf,)]
    assert "infinite" in faults["math.cos(a)", (-inf,)]
    assert "infinite" in faults["a % b", (-inf, 1.5)]
    assert "infinite" in faults["a % b", (inf, -inf)]
    assert ("a % b", (1.5, inf)) not in faults  # fmod(x, inf) is x


def test_ingest_applies_the_six_protocol_messages_in_arrival_order():
    vm = build_vm("function step() { }")
    vm.step([])
    applied = []
    store = vm.vstig_map(1)
    store.merge = lambda msg, _vm: applied.append(msg)
    vm.swarm_registry.handle_message = \
        lambda sender, msg: applied.append(msg)
    vm.listeners["k"] = NativeClosure(
        lambda _vm, _env, _self, *args: applied.append(
            Broadcast(args[0], args[1])), None)
    protocol = [SwarmList([5]), VstigGet(1, "b", None, 0, 0),
                Broadcast("k", 7), VstigPut(1, "a", 3, 1, 4),
                SwarmLeave(4), SwarmJoin(4)]
    foreign = object()
    messages = [Announce(), protocol[0], protocol[1], foreign, protocol[2],
                Announce(), protocol[3], protocol[4], protocol[5]]
    vm.step([Situated(sender, 10.0, 0.0, 0.0, (msg,))
             for sender, msg in enumerate(messages, start=1)])
    assert vm.faulted is None
    assert applied == protocol
    # every sender is heard, whatever it sent
    assert sorted(vm.neighbor_view.data) == list(range(1, 10))
    # one record carries all that its sender got through, in send order
    applied.clear()
    vm.step([Situated(1, 10.0, 0.0, 0.0, tuple(messages)),
             Situated(2, 20.0, 0.0, 0.0, (Announce(), protocol[2]))])
    assert vm.faulted is None
    assert applied == protocol + [protocol[2]]
    assert sorted(vm.neighbor_view.data) == [1, 2]


# --- listeners called straight from ingest --------------------------------
#
# `_ingest` calls a listener's code itself, not through `call_value`;
# the reference interpreter's listeners have a `code` that goes through
# its `call_value`, so each case runs on both engines.

FAULTY_LISTENER = """
function init() {
  neighbors.listen("k", function(key, value, sender) {
    var a = value + 1
    root = math.sqrt(value)
    var b = a * 2
    heard = (heard or 0) + b
  })
}
function step() { }
"""
TWO_PINGS = [Situated(1, 10.0, 0.0, 0.0, (Broadcast("k", 4),)),
             Situated(2, 20.0, 0.0, 0.0, (Broadcast("k", -1),))]


def _listener_step(engine, src, inbox, budget=10_000):
    """What the second step on `inbox` left: the fault, the fuel and the
    script's data globals."""
    vm = engine(compile_and_link(src), 0)
    vm.step([])
    vm.config.instruction_budget = budget
    vm.step(list(inbox))
    fault = vm.faulted
    return (fault and (fault.message, fault.line, fault.col, fault.origin),
            vm._fuel,
            sorted((k, v) for k, v in vm.script_globals().items()
                   if not isinstance(v, NativeClosure)))


def test_a_listener_fault_matches_the_interpreter():
    got = _listener_step(Vm, FAULTY_LISTENER, TWO_PINGS)
    assert got == _listener_step(ReferenceVm, FAULTY_LISTENER, TWO_PINGS)
    # the first sender's call ran whole; the second faults in sqrt
    assert got[0] == ("math.sqrt of a negative number", 5, 17, "<script>")
    assert got[2] == [("heard", 10), ("root", 2.0)]


def test_every_budget_of_a_listener_matches_the_interpreter():
    full = _listener_step(Vm, FAULTY_LISTENER, TWO_PINGS[:1])
    assert full[0] is None
    used = 10_000 - full[1]
    lines = set()
    for budget in range(1, used + 2):
        got = _listener_step(Vm, FAULTY_LISTENER, TWO_PINGS[:1], budget)
        assert got == _listener_step(ReferenceVm, FAULTY_LISTENER,
                                     TWO_PINGS[:1], budget), budget
        assert (got[0] is None) == (budget > used)
        if got[0] is not None:
            assert got[0][0] == "instruction budget exceeded"
            lines.add(got[0][1])
    # the budget ran out on each line of the listener's one segment
    assert lines >= {4, 5, 6, 7}


def test_a_host_closure_listener_still_runs():
    vm = build_vm('function init() { neighbors.listen("k", record) }\n'
                  'function step() { }')
    got = []
    vm.register_function("record", lambda _vm, args: got.append(args))
    vm.step([])
    table = Table({"x": 1})
    vm.step([Situated(3, 10.0, 0.0, 0.0,
                      (Broadcast("k", 5), Broadcast("k", table)))])
    assert vm.faulted is None
    assert got[0] == ["k", 5, 3]
    # a table value arrives as a copy
    assert got[1][1] is not table and got[1][1].data == {"x": 1}


def test_a_script_listener_gets_a_copy_of_a_table_value():
    vm = build_vm("""
function init() {
  neighbors.listen("k", function(key, value, sender) {
    value.x = 9
    seen = value
  })
}
function step() { }
""")
    vm.step([])
    table = Table({"x": 1})
    vm.step([Situated(3, 10.0, 0.0, 0.0, (Broadcast("k", table),))])
    assert vm.faulted is None
    assert table.data == {"x": 1}
    assert vm.get_global("seen").data == {"x": 9}


SWAPPING_LISTENERS = """
function init() {
  neighbors.listen("a", function(key, value, sender) {
    a_calls = (a_calls or 0) + 1
    neighbors.ignore("a")
    neighbors.listen("b", function(key, value, sender) {
      b_calls = (b_calls or 0) + 1
      b_from = sender
      neighbors.listen("b", function(key, value, sender) {
        b2_calls = (b2_calls or 0) + 1
      })
    })
  })
}
function step() { }
"""


def test_listen_and_ignore_during_ingest_apply_to_later_messages():
    # each sender sends "b" then "a": the first "b" has no listener yet,
    # the "a" that adds it then ignores itself, and each "b" listener
    # replaces itself for the messages after it
    inbox = [Situated(rid, 10.0 * rid, 0.0, 0.0,
                      (Broadcast("b", 0), Broadcast("a", 1)))
             for rid in (1, 2, 3, 4)]
    got = _listener_step(Vm, SWAPPING_LISTENERS, inbox)
    assert got == _listener_step(ReferenceVm, SWAPPING_LISTENERS, inbox)
    assert got[0] is None
    assert got[2] == [("a_calls", 1), ("b2_calls", 2), ("b_calls", 1),
                      ("b_from", 2)]


# --- neighbor iterators that call a script callback's code ----------------
#
# foreach, map, reduce and filter call their callback's code themselves;
# the reference interpreter's callbacks (a NativeClosure subclass) have a
# `code` that goes through its `call_value`, so each case runs on both
# engines.  The third record (distance 10) faults in sqrt.

ITERATOR_CALLS = {
    "reduce": "out = neighbors.reduce(cb, 0)",
    "foreach": "neighbors.foreach(cb)",
    "map": "out = neighbors.map(cb).count()",
    "filter": "out = neighbors.filter(cb).count()",
}
FAULTY_CALLBACK = """
function cb(rid, data, acc) {
  var a = data.distance + 1
  root = math.sqrt(a - 15)
  var b = a * 2
  seen = (seen or 0) + b
  return b
}
function step() { CALL }
"""
THREE_NEIGHBORS = [Situated(rid, distance, 0.0, 0.0, (Announce(),))
                   for rid, distance in ((1, 20.0), (2, 30.0), (3, 10.0))]


@pytest.mark.parametrize("name", ITERATOR_CALLS)
def test_every_budget_of_an_iterator_callback_matches_the_interpreter(name):
    src = FAULTY_CALLBACK.replace("CALL", ITERATOR_CALLS[name])
    full = _listener_step(Vm, src, THREE_NEIGHBORS)
    assert full == _listener_step(ReferenceVm, src, THREE_NEIGHBORS)
    # the first two records' calls ran whole; the third faults in sqrt
    assert full[0] == ("math.sqrt of a negative number", 4, 15, "<script>")
    assert ("seen", 42.0 + 62.0) in full[2]
    # every budget up to the first that reaches the sqrt fault
    lines = set()
    for budget in range(1, 1_000):
        got = _listener_step(Vm, src, THREE_NEIGHBORS, budget)
        assert got == _listener_step(ReferenceVm, src, THREE_NEIGHBORS,
                                     budget), budget
        if got[0][0] != "instruction budget exceeded":
            break
        lines.add(got[0][1])
    assert got[0] == full[0]
    # the budget ran out on each line of the callback and in step's call
    assert lines == {3, 4, 5, 6, 7, 9}


# a callback of each iterator, and one that swarm `exec` runs (in the
# step that hears neighbors, as the iterators' callbacks run)
CALLBACK_CALLS = dict(ITERATOR_CALLS, exec="""var s = swarm.create(1)
  s.join()
  if (neighbors.count() > 0) {
    s.exec(function() { cb(1, {distance = 10.}, 0) })
  }""")


@pytest.mark.parametrize("name", CALLBACK_CALLS)
def test_a_faulting_callback_leaves_the_fuel_it_ran(name):
    # a built-in's callback faults: vm._fuel keeps what the callbacks
    # spent, so the step used exactly the instructions that ran, one less
    # than the smallest budget that reaches the fault
    src = FAULTY_CALLBACK.replace("CALL", CALLBACK_CALLS[name])
    fault, fuel, _ = _listener_step(Vm, src, THREE_NEIGHBORS)
    assert fault[0] == "math.sqrt of a negative number"
    assert _listener_step(ReferenceVm, src, THREE_NEIGHBORS)[1] == fuel
    used = 10_000 - fuel
    assert used > 20
    short = _listener_step(Vm, src, THREE_NEIGHBORS, used)
    assert short[0][0] == "instruction budget exceeded"
    assert _listener_step(Vm, src, THREE_NEIGHBORS, used + 1)[:2] == \
        (fault, 1)


@pytest.mark.parametrize("name", ITERATOR_CALLS)
def test_a_host_closure_callback_gets_each_record_in_id_order(name):
    # the host callback answers with a bool, which its closure coerces
    vm = build_vm("function step() { "
                  + ITERATOR_CALLS[name].replace("cb", "odd") + " }")
    called = []

    def odd(_vm, args):
        called.append(args[:2])
        return args[0] % 2 == 1

    vm.register_function("odd", odd)
    vm.step(THREE_NEIGHBORS)
    assert vm.faulted is None
    assert called == [[rid, vm.neighbor_view.get(rid)] for rid in (1, 2, 3)]
    out = vm.get_global("out")
    # reduce keeps the last answer, map every answer, filter the odd ids
    assert (out, type(out)) == {
        "reduce": (1, int), "foreach": (None, type(None)), "map": (3, int),
        "filter": (2, int)}[name]


# --- a host bool reaches a script as an int --------------------------------
#
# A bool comes only from the host: what a registered function returns, or
# a value the host put in a table or a store.  The built-in that hands it
# to the script turns it into an int, so no call site tests for one;
# `probe()` returns what the script got to the host as it is.

BOOL_SOURCES = {
    "registered-true": ("return yes()", None, 1),
    "registered-false": ("return no()", None, 0),
    # a receiver in a local: a built-in call, not the quickened `get`
    "view-get": ("var n = neighbors\n  return n.get(3)",
                 lambda vm: vm.set_global("neighbors", make_view({3: True})),
                 1),
    "reduce-of-none": (
        "return neighbors.reduce(function(rid, data, a) { return a }, "
        "t.flag)",
        lambda vm: vm.set_global("t", Table({"flag": False})), 0),
    "stigmergy-get": ('var s = stigmergy.create(1)\n  return s.get("k")',
                      lambda vm: vm.vstig_map(1).local_put("k", True, 0), 1),
}


@pytest.mark.parametrize("engine", [Vm, ReferenceVm],
                         ids=["vm", "reference"])
@pytest.mark.parametrize("name", BOOL_SOURCES)
def test_a_host_bool_reaches_the_script_as_an_int(name, engine):
    body, setup, want = BOOL_SOURCES[name]
    vm = engine(compile_and_link(f"function probe() {{\n  {body}\n}}\n"), 0)
    vm.register_function("yes", lambda _vm, _args: True)
    vm.register_function("no", lambda _vm, _args: False)
    vm.step([])  # defines probe; the view it leaves holds no neighbor
    if setup is not None:
        setup(vm)
    got = vm.call_function("probe")
    assert vm.faulted is None
    assert (got, type(got)) == (want, int)


# --- built-ins passed as script callbacks -----------------------------------
#
# A script can hand a built-in to an iterator, `listen` or swarm `exec`,
# which enter it as they enter a script function.  Each case runs on both
# engines; the three neighbors each send "k" on the step that runs it.

BUILT_IN_CALLBACKS = {  # name -> (call, fault, out, printed lines)
    "foreach-print": ("neighbors.foreach(print)", None, None,
                      ["1[table(3)]", "2[table(3)]", "3[table(3)]"]),
    "map-abs": ("out = neighbors.map(math.abs)", None, {1: 1, 2: 2, 3: 3},
                []),
    "filter-abs": ("out = neighbors.filter(math.abs).count()", None, 3, []),
    # a fault keeps the first step's `out`, which heard no neighbor
    "reduce-min": ("out = neighbors.reduce(math.min, 0)",
                   "math.min expects numeric arguments", 0, []),
    "map-get": ("out = neighbors.map(neighbors.get)",
                "get called on a nil value", {}, []),
    "listen-print": ('neighbors.listen("k", print)', None, None,
                     ["k-33", "k-11", "k-22"]),
    "exec-print": ("var s = swarm.create(1)\n  s.join()\n  s.exec(print)",
                   None, None, ["", ""]),
}
PINGING_NEIGHBORS = [Situated(rid, distance, 0.0, 0.0,
                              (Broadcast("k", -rid),))
                     for rid, distance in ((3, 10.0), (1, 20.0), (2, 30.0))]


def _built_in_callback_steps(engine, call):
    """What two steps left, the second hearing PINGING_NEIGHBORS: the
    fault, the fuel, `out` (a table as a dict) and the printed lines."""
    printed = []
    vm = engine(compile_and_link("function step() {\n  " + call + "\n}"),
                0, print_sink=printed.append)
    vm.step([])
    vm.step(list(PINGING_NEIGHBORS))
    fault = vm.faulted
    out = vm.get_global("out")
    return (fault and (fault.message, fault.line, fault.col, fault.origin),
            vm._fuel, out.data if type(out) is Table else out, printed)


@pytest.mark.parametrize("name", BUILT_IN_CALLBACKS)
def test_a_built_in_passed_as_a_callback_matches_the_interpreter(name):
    call, fault, out, printed = BUILT_IN_CALLBACKS[name]
    got = _built_in_callback_steps(Vm, call)
    assert got == _built_in_callback_steps(ReferenceVm, call)
    assert (got[0] and got[0][:2]) == (fault and (fault, 2))
    assert got[2:] == (out, printed)


# --- built-in methods away from their object --------------------------------
#
# A script can store a built-in method and call it alone (no receiver) or
# as a method of a table, and host code or a hand-made image can give it
# any receiver.  A method that reads its receiver checks its type and
# faults only its robot; broadcast, listen and ignore read none.

METHOD_ARGS = {  # (object, method) -> arguments it takes from its object
    **{("neighbors", name): args for name, args in (
        ("foreach", "f"), ("map", "f"), ("reduce", "f, 0"), ("filter", "f"),
        ("kin", ""), ("nonkin", ""), ("count", ""), ("get", "1"),
        ("broadcast", '"k", 1'), ("listen", '"k", f'), ("ignore", '"k"'))},
    **{("s", name): args for name, args in (
        ("select", "1"), ("unselect", "1"), ("join", ""), ("leave", ""),
        ("in", ""), ("exec", "f"), ("others", "7"))},
    **{("v", name): args for name, args in (
        ("put", '"k", 1'), ("get", '"k"'), ("size", ""), ("onconflict", "f"),
        ("onconflictlost", "f"))},
}
RECEIVER_CALLS = {
    "unbound": "var m = OBJECT.NAME\n  out = m(ARGS)",
    "table": "var t = {}\n  t.m = OBJECT.NAME\n  out = t.m(ARGS)",
}
RECEIVERLESS = {"broadcast", "listen", "ignore"}


def _method_step(engine, obj, name, call):
    call = RECEIVER_CALLS[call]
    vm = engine(compile_and_link(f"""
function f(a, b, c) {{ return a }}
function init() {{
  s = swarm.create(1)
  s.join()
  v = stigmergy.create(2)
}}
function step() {{
  {call.replace("OBJECT", obj).replace("NAME", name)
       .replace("ARGS", METHOD_ARGS[obj, name])}
}}
"""), 0)
    vm.step([])
    fault = vm.faulted
    return (fault and (str(fault), fault.line), vm._fuel,
            repr(vm.get_global("out")))


def test_every_built_in_method_is_listed():
    assert sorted(name for obj, name in METHOD_ARGS if obj == "neighbors") \
        == sorted(VIEW_METHODS)
    assert sorted(name for obj, name in METHOD_ARGS if obj == "s") == \
        sorted(SwarmHandle.METHODS)
    assert sorted(name for obj, name in METHOD_ARGS if obj == "v") == \
        sorted(VStigHandle.METHODS)


@pytest.mark.parametrize("call", RECEIVER_CALLS)
@pytest.mark.parametrize("obj, name", METHOD_ARGS)
def test_a_method_called_from_a_script_off_its_object(obj, name, call):
    got = _method_step(Vm, obj, name, call)
    assert got == _method_step(ReferenceVm, obj, name, call)
    receiver = {"unbound": "nil", "table": "table"}[call]
    if name in RECEIVERLESS or (obj == "neighbors" and call == "table"):
        # a table is a view's kind; kin/nonkin want a swarm exec too
        assert got[0] is None or "outside a swarm exec" in got[0][0]
    else:
        assert got[0][0].endswith(f"{name} called on a {receiver} value")


@pytest.mark.parametrize("obj, name", METHOD_ARGS)
def test_a_method_called_by_the_host_on_any_receiver(obj, name):
    others = {"neighbors": SwarmHandle(1), "s": VStigHandle(2),
              "v": SwarmHandle(1)}
    owner = {"neighbors": VIEW_METHODS, "s": SwarmHandle.METHODS,
             "v": VStigHandle.METHODS}[obj]
    for receiver in (None, Table(), 5, 2.5, "s", others[obj]):
        seen = []
        for engine in (Vm, ReferenceVm):
            vm = engine(compile_and_link("function f(a) { return a }"), 0)
            vm.step([])
            args = {"": [], "1": [1], "7": [7], '"k"': ["k"],
                    '"k", 1': ["k", 1], "f": [vm.get_global("f")],
                    "f, 0": [vm.get_global("f"), 0],
                    '"k", f': ["k", vm.get_global("f")]}
            try:
                seen.append(("ok", repr(vm.call_value(
                    owner[name], args[METHOD_ARGS[obj, name]], receiver))))
            except VmRuntimeError as exc:
                seen.append(("fault", exc.message))
        assert seen[0] == seen[1], receiver
        if name not in RECEIVERLESS and not (
                obj == "neighbors" and type(receiver) is Table):
            assert seen[0] == ("fault", f"{name} called on a "
                               f"{type_name(receiver)} value"), receiver

if __name__ == "__main__":
    # Python frames per script level of each chain, from which
    # FRAMES_PER_LEVEL and the max_frames bound are set
    limit = sys.getrecursionlimit()
    print(f"max_frames {VmConfig.max_frames}, FRAMES_PER_LEVEL "
          f"{FRAMES_PER_LEVEL}, HOST_FRAMES {HOST_FRAMES}, recursion limit "
          f"{limit}: max_frames may be at most "
          f"{(limit - HOST_FRAMES) // FRAMES_PER_LEVEL}")
    print(f"{'chain':10} {'deepest':>7} {'per level':>9}")
    for name in FRAME_CHAINS:
        deepest, per_level = chain_frames(name)
        print(f"{name:10} {deepest:7} {per_level:9}")
