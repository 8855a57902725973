import math

import pytest

from swarmlang import vm as vm_module
from swarmlang.errors import VmRuntimeError
from swarmlang.linker import compile_and_link
from swarmlang.vm import Vm
from swarmlang.wire import Announce, Broadcast, Situated

from conftest import build_vm


def announce(rid, dist, az=0.0, el=0.0):
    return Situated(rid, dist, az, el, (Announce(),))


def stepped(script, inbox, robot_id=0):
    # phase 2 precedes phase 3, so a first-step inbox is already visible
    vm = build_vm(script, robot_id=robot_id)
    vm.step(inbox)
    return vm


def test_empty_view():
    vm = stepped("function step() { n = neighbors.count() }", [])
    assert vm.get_global("n") == 0


def test_three_announcers():
    inbox = [announce(1, 10.0), announce(2, 20.0), announce(3, 30.0)]
    vm = stepped("function step() { n = neighbors.count() }", inbox)
    assert vm.get_global("n") == 3


def test_duplicate_announcement_last_wins():
    inbox = [announce(5, 10.0), announce(5, 99.0)]
    vm = stepped("function step() { n = neighbors.count()\n"
                 "d = neighbors.get(5).distance }", inbox)
    assert vm.get_global("n") == 1
    assert vm.get_global("d") == 99.0


def test_one_record_per_sender_last_message_first_order():
    inbox = [announce(5, 10.0), announce(2, 20.0),
             Situated(5, 99.0, 0.5, 0.0, (Broadcast("k", 1),))]
    vm = stepped("", inbox)
    records = vm.neighbor_view.data
    assert list(records) == [5, 2]
    assert records[5].data == {"distance": 99.0, "azimuth": 0.5,
                               "elevation": 0.0}
    assert records[2].get("distance") == 20.0


def test_view_rebuilt_each_step():
    vm = build_vm("function step() { n = neighbors.count() }")
    vm.step([])
    vm.step([announce(1, 10.0)])
    assert vm.get_global("n") == 1
    vm.step([])  # the announcer fell silent
    assert vm.get_global("n") == 0


@pytest.fixture
def record_calls(monkeypatch):
    """The number of neighbor record tables built, counted from here."""
    calls = [0]
    build = vm_module.record_table

    def counting(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(vm_module, "record_table", counting)
    return calls


STEPS = [[announce(1, 10.0)], [announce(2, 20.0), announce(3, 30.0)], []]


@pytest.mark.parametrize("script, seen", [
    # only a closure loads it; the script keeps what it got in `v`
    ("function step() { var f = function() { return neighbors }\n"
     "v = f() }", "v"),
    # only a store names it, and the store never runs
    ("function step() { if (id < 0) { neighbors = 0 } }", "neighbors"),
])
def test_code_naming_neighbors_gets_a_new_view_each_step(script, seen,
                                                         record_calls):
    vm = build_vm(script)
    assert "neighbors" in vm.image.global_names
    kept = []
    for inbox in STEPS:
        vm.step(inbox)
        assert record_calls[0] == sum(map(len, STEPS[:len(kept) + 1]))
        view = vm.get_global("neighbors")
        assert view is vm.neighbor_view
        assert sorted(view.data) == sorted(r[0] for r in inbox)
        assert all(view is not old for old in kept)
        assert vm.get_global(seen) is view
        kept.append(view)
    assert vm.faulted is None


def test_code_not_naming_neighbors_builds_no_records(record_calls):
    vm = build_vm("function step() { n = (n or 0) + 1 }")
    assert "neighbors" not in vm.image.global_names
    for inbox in STEPS * 2:
        vm.step(inbox)
    assert vm.get_global("n") == 6
    assert record_calls[0] == 0


@pytest.mark.parametrize("read", [
    lambda vm: vm.neighbor_view,
    lambda vm: vm.get_global("neighbors"),
])
def test_host_reads_the_last_view_of_code_not_naming_neighbors(read,
                                                               record_calls):
    vm = build_vm("")
    for inbox in STEPS:
        vm.step(inbox)
        view = read(vm)
        assert sorted(view.data) == sorted(r[0] for r in inbox)
        assert all(view.data[r[0]].data == {"distance": r[1],
                                            "azimuth": r[2],
                                            "elevation": r[3]}
                   for r in inbox)
        # built once per step, on the first read
        assert read(vm) is view
        assert vm.neighbor_view is vm.get_global("neighbors") is view
    assert record_calls[0] == sum(map(len, STEPS))
    assert vm.get_global("neighbors").data == {}  # a silent step


@pytest.mark.parametrize("script", [
    "", "function step() { n = neighbors.count() }"])
def test_a_host_binding_of_neighbors_lasts_until_the_next_step(script):
    vm = build_vm(script)
    vm.step([announce(1, 10.0)])
    vm.set_global("neighbors", 5)
    assert vm.get_global("neighbors") == 5
    assert sorted(vm.neighbor_view.data) == [1]
    assert vm.get_global("neighbors") == 5
    vm.step([announce(2, 10.0)])
    assert vm.get_global("neighbors") is vm.neighbor_view
    assert sorted(vm.neighbor_view.data) == [2]


def test_neighbors_in_unreachable_code_is_still_named(record_calls):
    # code after a return is never verified reachable, yet it names the
    # global, so the view is built: the gate errs toward building
    vm = build_vm("function step() { return 1\n n = neighbors }")
    program = vm.image.program
    assert [depth for (opcode, name), depth
            in zip(program.instrs, program.depths)
            if name == "neighbors"] == [None]
    assert "neighbors" in vm.image.global_names
    vm.step([announce(4, 1.0)])
    assert record_calls[0] == 1


def test_foreach_ascending_order():
    vm = build_vm("""
seen = ""
function step() {
  neighbors.foreach(function(rid, data) {
    seen = seen
    order = (order or 0) * 10 + rid
  })
}
""")
    vm.step([])
    vm.step([announce(3, 1.0), announce(1, 1.0), announce(2, 1.0)])
    assert vm.get_global("order") == 123


def test_map_to_cartesian_axis_aligned():
    vm = stepped("""
function step() {
  cart = neighbors.map(function(rid, data) {
    var c = {}
    c.x = data.distance * math.cos(data.elevation) *
          math.cos(data.azimuth)
    c.y = data.distance * math.cos(data.elevation) *
          math.sin(data.azimuth)
    c.z = data.distance * math.sin(data.elevation)
    return c })
  x = cart.get(4).x
  y = cart.get(4).y
  z = cart.get(4).z
}
""", [announce(4, 2.0)])
    assert vm.get_global("x") == 2.0
    assert vm.get_global("y") == 0.0
    assert vm.get_global("z") == 0.0


def test_map_preserves_key_set():
    vm = stepped("""
function step() {
  doubled = neighbors.map(function(rid, data) { return data.distance * 2 })
  n = doubled.count()
  a = doubled.get(1)
  b = doubled.get(9)
}
""", [announce(1, 5.0), announce(9, 7.0)])
    assert vm.get_global("n") == 2
    assert vm.get_global("a") == 10.0
    assert vm.get_global("b") == 14.0


@pytest.mark.parametrize("pick", ["odd_distance", "host_pick"])
def test_map_leaves_out_ids_mapped_to_nil(pick):
    # a table never holds nil, so an id whose callback gives nil is not in
    # the mapped view, and foreach over that view visits only the others
    vm = build_vm("""
function odd_distance(rid, data) {
  if (rid % 2 == 1) { return data.distance }
}
function step() {
  var odd = neighbors.map(PICK)
  n = odd.count()
  visits = 0
  odd.foreach(function(rid, data) { visits = visits + 1 })
  none = neighbors.map(function(rid, data) { return nil }).count()
  has_2 = odd.get(2) == nil
}
""".replace("PICK", pick))
    vm.register_function(
        "host_pick", lambda _vm, args: args[1].get("distance")
        if args[0] % 2 else None)
    vm.step([announce(1, 5.0), announce(2, 7.0), announce(3, 9.0)])
    assert vm.faulted is None
    assert vm.get_global("n") == 2
    assert vm.get_global("visits") == 2
    assert vm.get_global("none") == 0
    assert vm.get_global("has_2") == 1


def test_reduce_vector_sum():
    vm = stepped("""
function step() {
  cart = neighbors.map(function(rid, data) {
      var c = {}
      c.x = math.cos(data.azimuth)
      c.y = math.sin(data.azimuth)
      c.z = 0
      return c })
  r = cart.reduce(function(rid, data, accum) {
      accum.x = accum.x + data.x
      accum.y = accum.y + data.y
      accum.z = accum.z + data.z
      return accum
    }, {x=0, y=0, z=0})
  x = r.x
  y = r.y
  z = r.z
}
""", [announce(1, 1.0, az=0.0), announce(2, 1.0, az=math.pi / 2)])
    assert abs(vm.get_global("x") - 1.0) < 1e-12
    assert abs(vm.get_global("y") - 1.0) < 1e-12
    assert vm.get_global("z") == 0


def test_reduce_over_empty_view_returns_init():
    vm = stepped("""
function step() {
  out = neighbors.reduce(function(rid, data, accum) { return accum + 1 }, 41)
}
""", [])
    assert vm.get_global("out") == 41


def test_filter_by_distance():
    vm = stepped("""
function step() {
  onemeter = neighbors.filter(function(rid, data) {
      return data.distance < 100 })
  n = onemeter.count()
  kept = onemeter.get(1)
  dropped = onemeter.get(2)
}
""", [announce(1, 50.0), announce(2, 150.0)])
    assert vm.get_global("n") == 1
    assert vm.get_global("kept") is not None
    assert vm.get_global("dropped") is None


def test_kin_nonkin_partition_with_unknown_excluded():
    image = compile_and_link("""
s = swarm.create(7)
s.join()
function step() {
  s.exec(function() {
    kin_n = neighbors.kin().count()
    nonkin_n = neighbors.nonkin().count()
    kin_has_1 = neighbors.kin().get(1)
    nonkin_has_2 = neighbors.nonkin().get(2)
  })
}
""")
    vm = Vm(image, 0, print_sink=lambda s: None)
    vm.step([])
    # rid 1 shares swarm 7, rid 2 known not to, rid 3 unknown membership
    from swarmlang.wire import SwarmList
    inbox = [
        announce(1, 10.0), Situated(1, 10.0, 0.0, 0.0, (SwarmList([7]),)),
        announce(2, 10.0), Situated(2, 10.0, 0.0, 0.0, (SwarmList([4]),)),
        announce(3, 10.0),
    ]
    vm.step(inbox)
    assert vm.faulted is None
    assert vm.get_global("kin_n") == 1
    assert vm.get_global("nonkin_n") == 1
    assert vm.get_global("kin_has_1") is not None
    assert vm.get_global("nonkin_has_2") is not None


def test_kin_and_nonkin_read_the_registry_once_per_call(monkeypatch):
    # the split reads the neighbor knowledge itself; no lookup per record
    vm = build_vm("""
s = swarm.create(7)
s.join()
function step() {
  s.exec(function() {
    kin = neighbors.kin().reduce(function(rid, d, acc) {
      return acc + rid }, 0)
    nonkin = neighbors.nonkin().reduce(function(rid, d, acc) {
      return acc + rid }, 0)
  })
}
""")
    from swarmlang.swarms import SwarmRegistry
    from swarmlang.wire import SwarmList
    vm.step([])
    calls = []
    split = SwarmRegistry.split
    monkeypatch.setattr(SwarmRegistry, "swarms_of", lambda *a: calls.append(a))
    monkeypatch.setattr(SwarmRegistry, "split",
                        lambda *a: calls.append(a) or split(*a))
    vm.step([Situated(rid, 10.0, 0.0, 0.0, (SwarmList(swarms),))
             for rid, swarms in ((1, [7]), (2, [4]), (4, [7, 4]), (8, []))]
            + [announce(16, 10.0)])
    assert vm.faulted is None
    assert (vm.get_global("kin"), vm.get_global("nonkin")) == (5, 10)
    assert len(calls) == 2  # one split per kin()/nonkin(), no swarms_of


def test_kin_outside_exec_faults():
    vm = build_vm("function step() { neighbors.kin() }")
    vm.step([])
    assert isinstance(vm.faulted, VmRuntimeError)


def test_broadcast_same_key_keeps_most_recent():
    vm = build_vm("""
function step() {
  neighbors.broadcast("d", 1)
  neighbors.broadcast("d", 2)
}
""")
    outbox, _ = vm.step([])
    bcasts = [s.message for s in outbox if isinstance(s.message, Broadcast)]
    assert bcasts == [Broadcast("d", 2)]


def test_listen_then_ignore_stops_listener():
    vm = build_vm("""
function init() {
  neighbors.listen("k", function(vid, value, rid) { heard = value })
  neighbors.ignore("k")
}
""")
    vm.step([])
    vm.step([Situated(4, 1.0, 0.0, 0.0, (Broadcast("k", 5),))])
    assert vm.get_global("heard") is None


def test_listener_signature_and_get_consistency():
    # the record a listener reads via get(rid) is the same step's record
    vm = build_vm("""
function init() {
  neighbors.listen("dist", function(vid, value, rid) {
    key = vid
    sender = rid
    total = neighbors.get(rid).distance + value
  })
}
""")
    vm.step([])
    vm.step([Situated(6, 120.0, 0.5, 0.0, (Broadcast("dist", 30.0),))])
    assert vm.faulted is None
    assert vm.get_global("key") == "dist"
    assert vm.get_global("sender") == 6
    assert vm.get_global("total") == 150.0


def test_broadcast_closure_rejected():
    vm = build_vm('function step() { neighbors.broadcast("k", '
                  "function() { return 1 }) }")
    vm.step([])
    assert isinstance(vm.faulted, VmRuntimeError)


def test_gradient_listener_min_update():
    vm = build_vm("""
mydist = 50000.
function init() {
  neighbors.listen("dist_to_source",
    function(vid, value, rid) {
      mydist = math.min(
        mydist,
        neighbors.get(rid).distance + value)
    })
}
""")
    vm.step([])
    vm.step([Situated(2, 70.0, 0.0, 0.0,
                      (Broadcast("dist_to_source", 10.0),))])
    assert vm.get_global("mydist") == 80.0
