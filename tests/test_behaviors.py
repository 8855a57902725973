import math
import random

import pytest

from swarmlang.behaviors import (direction, force_magnitude, load_script,
                                 manifest, segregation_direction)
from swarmlang.linker import compile_and_link
from swarmlang.sim import (SimulationConfig, build_target_select, run)
from swarmlang.vm import Vm
from swarmlang.wire import Announce, Situated, SwarmList


# --- force magnitude oracle ---------------------------------------------------

def test_force_zero_at_target_distance():
    assert force_magnitude(50.0, 50.0, 2700.0) == pytest.approx(0.0, abs=1e-12)


def test_force_repulsive_below_target():
    # -(2700/25) * ((50/25)^4 - (50/25)^2) = -108 * 12
    assert force_magnitude(25.0, 50.0, 2700.0) == pytest.approx(-1296.0)


def test_force_attractive_above_target():
    # -(2700/100) * (0.0625 - 0.25) = 5.0625
    assert force_magnitude(100.0, 50.0, 2700.0) == pytest.approx(5.0625)


def test_force_rejects_non_positive_distance():
    with pytest.raises(ValueError):
        force_magnitude(0.0, 50.0, 2700.0)


# --- direction oracle ----------------------------------------------------------

def test_direction_single_neighbor_on_axis():
    x, y = direction([(25.0, 0.0)])
    assert x == pytest.approx(-1296.0)
    assert y == pytest.approx(0.0)


def test_direction_symmetric_pair_cancels_y():
    _, y = direction([(25.0, 0.7), (25.0, -0.7)])
    assert y == pytest.approx(0.0, abs=1e-12)


def test_direction_empty_view_zero_vector():
    assert direction([]) == (0.0, 0.0)


# --- script vs oracle agreement --------------------------------------------------

def _announces(records):
    return [Situated(rid, dist, az, 0.0, (Announce(),))
            for rid, (dist, az) in sorted(records.items())]


def _formation_vm():
    vm = Vm(compile_and_link(load_script("formation"), "formation.swl"), 0,
            print_sink=lambda s: None)
    vm.register_function("goto", lambda _vm, args: None, actuator=True)
    return vm


def test_formation_script_matches_oracle_on_random_views():
    rng = random.Random(0xf0ece)
    vm = _formation_vm()
    first = True
    for _ in range(100):
        records = {rid: (rng.uniform(20.0, 200.0),
                         rng.uniform(-math.pi, math.pi))
                   for rid in range(1, rng.randrange(2, 9))}
        vm.step(_announces(records))
        assert vm.faulted is None
        if first:
            first = False
        got = vm.call_function("direction")
        want = direction(list(records.values()))
        assert got.get("x") == pytest.approx(want[0], abs=1e-6)
        assert got.get("y") == pytest.approx(want[1], abs=1e-6)


def test_formation_goto_receives_direction_table():
    vm = _formation_vm()
    _, snapshot = vm.step(_announces({1: (25.0, 0.0)}))
    (arg,) = snapshot["goto"]
    assert arg.get("x") == pytest.approx(-1296.0)
    assert arg.get("y") == pytest.approx(0.0)


# --- segregation ----------------------------------------------------------------

def _segregation_vm(robot_id=0):
    vm = Vm(compile_and_link(load_script("segregation"), "segregation.swl"),
            robot_id, print_sink=lambda s: None)
    vm.register_function("goto", lambda _vm, args: None, actuator=True)
    return vm


def _segregation_inbox(records, membership):
    inbox = []
    for rid in sorted(records):
        dist, az = records[rid]
        inbox.append(Situated(rid, dist, az, 0.0, (Announce(),)))
        if rid in membership:
            inbox.append(Situated(rid, dist, az, 0.0,
                                  (SwarmList(membership[rid]),)))
    return inbox


def test_segregation_all_kin_equals_plain_formation():
    rng = random.Random(77)
    records = {rid: (rng.uniform(30.0, 150.0),
                     rng.uniform(-math.pi, math.pi)) for rid in (2, 4, 6)}
    vm = _segregation_vm(robot_id=0)  # even: swarm 1
    vm.step([])  # init: select/others
    membership = {rid: [1] for rid in records}
    _, snapshot = vm.step(_segregation_inbox(records, membership))
    assert vm.faulted is None
    (arg,) = snapshot["goto"]
    want = direction(list(records.values()))  # kin constants = plain ones
    assert arg.get("x") == pytest.approx(want[0], abs=1e-9)
    assert arg.get("y") == pytest.approx(want[1], abs=1e-9)


def test_segregation_mixed_neighborhood_matches_fold_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        rids = list(range(1, rng.randrange(3, 9)))
        records = {rid: (rng.uniform(30.0, 180.0),
                         rng.uniform(-math.pi, math.pi)) for rid in rids}
        membership = {}
        kin_ids, unknown_ids = set(), set()
        for rid in rids:
            roll = rng.random()
            if roll < 0.4:
                membership[rid] = [1]
                kin_ids.add(rid)
            elif roll < 0.8:
                membership[rid] = [2]
            else:
                unknown_ids.add(rid)  # no membership message at all
        vm = _segregation_vm(robot_id=0)
        vm.step([])
        _, snapshot = vm.step(_segregation_inbox(records, membership))
        assert vm.faulted is None
        (arg,) = snapshot["goto"]
        want = segregation_direction(records, kin_ids, unknown_ids)
        assert arg.get("x") == pytest.approx(want[0], abs=1e-6)
        assert arg.get("y") == pytest.approx(want[1], abs=1e-6)


def test_segregation_constants_compile_and_run_smoke():
    cfg_src = load_script("segregation")
    assert "DELTA_NONKIN   = 150." in cfg_src
    assert "EPSILON_NONKIN = 8000." in cfg_src
    vm = _segregation_vm(robot_id=3)  # odd: swarm 2 via others()
    vm.step([])
    vm.step(_segregation_inbox({1: (60.0, 0.5)}, {1: [2]}))
    assert vm.faulted is None


# --- barrier scripts --------------------------------------------------------------

BARRIER_STAGGERED_DRIVER = """
function init() {
  barrier_set()
  tick = 0
  ready = 0
  passed = 0
}
function step() {
  tick = tick + 1
  if(ready == 0) {
    if(tick > id * 2) {
      barrier_ready()
      ready = 1
    }
  }
  if(passed == 0) {
    if(barrier_wait(THRESHOLD)) passed = 1
  }
}
"""


def test_barrier_safety_no_phantom_tuples():
    """A robot's tuple count never exceeds the barrier_ready calls so far."""
    from swarmlang.compiler import compile_source
    from swarmlang.linker import link
    from swarmlang.sim.config import Topology, rng_for
    from swarmlang.sim.network import deliver

    n = 5
    image = link([compile_source(load_script("barrier"), "barrier.swl"),
                  compile_source(BARRIER_STAGGERED_DRIVER, "driver.swl")])
    cfg = SimulationConfig(n_robots=n, arena_side=1.2, comm_range=5.0,
                           drop_prob=0.3, seed=21, max_steps=40)
    poses = [(0.1 * i, 0.05 * i) for i in range(n)]
    topo = Topology.build(cfg, poses)
    vms = []
    for rid in range(n):
        vm = Vm(image, rid, print_sink=lambda s: None)
        vm.set_global("THRESHOLD", n)
        vms.append(vm)
    rng = rng_for(cfg, 2)
    inboxes = [[] for _ in range(n)]
    for step in range(1, cfg.max_steps + 1):
        outboxes = [vm.step(inboxes[rid])[0] for rid, vm in enumerate(vms)]
        ready_count = sum(1 for vm in vms if vm.get_global("ready") == 1)
        for vm in vms:
            store = vm.vstig_map(1)
            assert store.size() <= ready_count
        inboxes = deliver(cfg.drop_prob, topo, outboxes, rng)
    assert all(vm.get_global("passed") == 1 for vm in vms)
    assert all(vm.faulted is None for vm in vms)


# --- target selection relay --------------------------------------------------------

def test_target_select_relay_smoke():
    n = 6
    poses = [(0.15 * i, 0.0) for i in range(n)]
    targets = ((0.0, 0.1, 1), (0.75, 0.1, 2))
    cfg = SimulationConfig(n_robots=n, arena_side=2.0, comm_range=1.0,
                           drop_prob=0.0, seed=4, max_steps=40)
    exp = build_target_select(targets=targets, visibility=0.2)
    result = run(cfg, exp, poses=poses, keep_vms=True)
    assert result.faults == {}
    assert result.converged  # everybody found a target through the relay
    colors = [vm.get_global("mytargetdata").get("color")
              for vm in result.vms]
    assert set(colors) <= {1, 2}
    assert all(c is not None for c in colors)
    # robots adjacent to each target adopt its color
    assert colors[0] == 1
    assert colors[5] == 2


def test_manifest_covers_all_scripts():
    entries = manifest()
    assert {"consensus", "gradient", "formation", "barrier", "segregation",
            "target_select"} <= set(entries)
    for name, entry in entries.items():
        text = load_script(name)
        compile_and_link(text, f"{name}.swl")  # compiles unmodified


def test_a_script_is_read_once_and_an_unknown_name_still_raises(monkeypatch):
    from swarmlang import behaviors
    text = load_script("consensus")
    reads = []
    monkeypatch.setattr(behaviors, "script_path",
                        lambda name: reads.append(name))
    assert load_script("consensus") is text
    assert reads == []
    monkeypatch.undo()
    for _ in range(2):  # a miss is not cached
        with pytest.raises(KeyError, match="unknown behavior script"):
            load_script("no_such_script")
    # the manifest is still a fresh dict each call
    assert manifest() is not manifest()
