import random

import pytest

from swarmlang.errors import VmRuntimeError
from swarmlang.linker import compile_and_link
from swarmlang.values import Table, copy_value
from swarmlang.vstig import VStigMap, enqueue_vstig_message
from swarmlang.vm import Vm
from swarmlang.wire import Broadcast, Situated, VstigGet, VstigPut

from reference_vm import ReferenceVm

class StubVm:
    """call_value stand-in for handler-level tests without a full VM."""

    def call_value(self, fn, args, self_val=None):
        return fn(*args)


# --- script-level access ------------------------------------------------------

def test_create_empty_and_idempotent(run_script):
    vm = run_script("""
v = stigmergy.create(1)
n0 = v.size()
w = stigmergy.create(1)
v.put("a", 6)
n1 = w.size()
""")
    assert vm.get_global("n0") == 0
    assert vm.get_global("n1") == 1  # same underlying store


def test_independent_stores(run_script):
    vm = run_script("""
a = stigmergy.create(1)
b = stigmergy.create(2)
a.put("k", 1)
na = a.size()
nb = b.size()
""")
    assert vm.get_global("na") == 1
    assert vm.get_global("nb") == 0


def test_put_then_get_locally(run_script):
    vm = run_script('v = stigmergy.create(1)\nv.put("a", 6)\nx = v.get("a")')
    assert vm.get_global("x") == 6


def test_get_absent_key_is_nil(run_script):
    vm = run_script('v = stigmergy.create(1)\nx = v.get("missing")\n'
                    "if(x == nil) ok = 1")
    assert vm.get_global("ok") == 1


def test_put_closure_rejected(run_script):
    vm = run_script('v = stigmergy.create(1)\nv.put("k", function() '
                    "{ return 1 })")
    assert isinstance(vm.faulted, VmRuntimeError)


def test_put_nil_rejected(run_script):
    vm = run_script('v = stigmergy.create(1)\nv.put("k", nil)')
    assert isinstance(vm.faulted, VmRuntimeError)


def test_successive_puts_bump_timestamp():
    store = VStigMap(1)
    m1 = store.local_put("k", 1, robot_id=4)
    m2 = store.local_put("k", 2, robot_id=4)
    assert (m1.timestamp, m2.timestamp) == (1, 2)


def test_get_queues_probe_with_timestamp_zero_when_absent():
    store = VStigMap(1)
    value, msg = store.local_get("k")
    assert value is None
    assert isinstance(msg, VstigGet)
    assert msg.timestamp == 0 and msg.value is None


# --- merge: PUT ----------------------------------------------------------------

def test_put_higher_timestamp_adopted_and_propagated():
    store = VStigMap(1)
    store.local_put("k", 1, robot_id=2)  # ts 1
    incoming = VstigPut(1, "k", 9, 5, 3)
    out = store.merge(incoming, StubVm())
    assert store.entries["k"].value == 9
    assert out == incoming


def test_put_lower_timestamp_ignored():
    store = VStigMap(1)
    for _ in range(5):
        store.local_put("k", 1, robot_id=2)  # ts 5
    out = store.merge(VstigPut(1, "k", 9, 3, 3), StubVm())
    assert out is None
    assert store.entries["k"].value == 1


def test_put_equal_timestamp_default_resolver_highest_robot_wins():
    store = VStigMap(1)
    store.local_put("k", 30, robot_id=3)  # ts 1
    out = store.merge(VstigPut(1, "k", 70, 1, 7), StubVm())
    assert store.entries["k"].robot_id == 7
    assert store.entries["k"].value == 70
    assert out is not None and out.robot_id == 7


def test_put_equal_timestamp_same_robot_silent():
    store = VStigMap(1)
    store.local_put("k", 5, robot_id=3)
    out = store.merge(VstigPut(1, "k", 5, 1, 3), StubVm())
    assert out is None


def test_custom_resolver_keeps_local_on_smaller_remote():
    store = VStigMap(1)
    store.local_put("k", 9, robot_id=3)

    def resolver(key, local, remote):
        if remote.get("data") < local.get("data"):
            return local
        return remote

    store.onconflict = resolver
    out = store.merge(VstigPut(1, "k", 4, 1, 7), StubVm())
    assert store.entries["k"].value == 9
    assert store.entries["k"].robot_id == 3
    assert out is not None  # the winner is still re-propagated


def test_onconflictlost_fires_for_losing_local():
    store = VStigMap(1)
    store.local_put("k", 3, robot_id=3)
    lost = []
    store.onconflictlost = lambda key, entry: lost.append(
        (key, entry.get("data"), entry.get("robot")))
    store.merge(VstigPut(1, "k", 9, 1, 7), StubVm())
    assert lost == [("k", 3, 3)]


@pytest.mark.parametrize("cls", [VstigPut, VstigGet])
def test_a_resolver_cannot_change_the_received_message(cls):
    # every receiver of a message shares the one decoded object
    vm = Vm(compile_and_link("""
v = stigmergy.create(1)
v.onconflict(function(key, local, remote) {
  remote.data.x = 99
  return remote
})
v.put("k", 1)
"""), 1)
    vm.step()
    msg = cls(1, "k", Table({"x": 1}), 1, 7)
    vm.step([Situated(7, 10.0, 0.0, 0.0, (msg,))])
    assert vm.faulted is None
    assert msg.value.data == {"x": 1}
    assert vm.vstig_map(1).entries["k"].value.data == {"x": 99}


def test_resolver_returning_non_entry_raises():
    store = VStigMap(1)
    store.local_put("k", 1, robot_id=1)
    store.onconflict = lambda key, local, remote: None
    with pytest.raises(VmRuntimeError):
        store.merge(VstigPut(1, "k", 2, 1, 2), StubVm())


# --- merge: GET ----------------------------------------------------------------

def make_store_ts(ts, value=1, robot=2):
    store = VStigMap(1)
    for _ in range(ts):
        store.local_put("k", value, robot_id=robot)
    return store


def test_get_with_newer_local_replies_put():
    store = make_store_ts(7)
    out = store.merge(VstigGet(1, "k", 0, 4, 9), StubVm())
    assert isinstance(out, VstigPut)
    assert out.timestamp == 7


def test_get_with_older_local_adopts_and_rebroadcasts():
    store = make_store_ts(2)
    out = store.merge(VstigGet(1, "k", 42, 4, 9), StubVm())
    assert store.entries["k"].value == 42
    assert store.entries["k"].timestamp == 4
    assert out is not None and out.value == 42


@pytest.mark.parametrize("cls", [VstigPut, VstigGet])
def test_an_adopted_entry_is_the_queued_put_unless_it_holds_a_table(cls):
    for value in (42, Table({"x": 1})):
        store = make_store_ts(2)
        msg = cls(1, "k", value, 4, 9)
        out = store.merge(msg, StubVm())
        entry = store.entries["k"]
        assert type(out) is VstigPut and (out is msg) == (cls is VstigPut)
        assert out.value is value  # the queue sends what arrived
        assert (entry.timestamp, entry.robot_id) == (4, 9)
        if type(value) is Table:  # a copy: the store's script may change it
            assert entry.value is not value and entry.value.data == {"x": 1}
        else:
            assert entry is out


def test_get_with_identical_entry_is_silent():
    store = make_store_ts(3, value=5, robot=2)
    out = store.merge(VstigGet(1, "k", 5, 3, 2), StubVm())
    assert out is None


def test_get_equal_timestamp_different_robot_resolves_conflict():
    # a stale reader polling forever must eventually be corrected even
    # when clocks tie, otherwise one lost PUT volley can wedge a robot
    store = make_store_ts(1, value=9, robot=9)
    out = store.merge(VstigGet(1, "k", 2, 1, 2), StubVm())
    assert out is not None
    assert out.value == 9 and out.robot_id == 9


def test_get_absent_on_both_sides_is_silent():
    store = VStigMap(1)
    out = store.merge(VstigGet(1, "k", None, 0, 0), StubVm())
    assert out is None


# --- outbound queue optimization --------------------------------------------------

def test_queue_keeps_highest_timestamp():
    queue = {}
    enqueue_vstig_message(queue, VstigPut(1, "k", 1, 2, 0))
    enqueue_vstig_message(queue, VstigPut(1, "k", 2, 3, 0))
    assert list(queue.values()) == [VstigPut(1, "k", 2, 3, 0)]


def test_queue_distinct_keys_kept():
    queue = {}
    enqueue_vstig_message(queue, VstigPut(1, "k1", 1, 1, 0))
    enqueue_vstig_message(queue, VstigPut(1, "k2", 1, 1, 0))
    assert len(queue) == 2


def test_queue_put_beats_get_on_tie():
    queue = {}
    enqueue_vstig_message(queue, VstigGet(1, "k", 1, 3, 0))
    enqueue_vstig_message(queue, VstigPut(1, "k", 1, 3, 0))
    assert list(queue.values()) == [VstigPut(1, "k", 1, 3, 0)]
    # and an incoming GET does not displace a queued PUT at equal ts
    enqueue_vstig_message(queue, VstigGet(1, "k", 1, 3, 0))
    assert list(queue.values()) == [VstigPut(1, "k", 1, 3, 0)]


def test_queue_lower_timestamp_discarded():
    queue = {}
    enqueue_vstig_message(queue, VstigPut(1, "k", 9, 5, 0))
    enqueue_vstig_message(queue, VstigGet(1, "k", 1, 2, 0))
    assert list(queue.values()) == [VstigPut(1, "k", 9, 5, 0)]


def test_queue_ignores_other_vstig_ids():
    queue = {}
    enqueue_vstig_message(queue, VstigPut(1, "k", 1, 1, 0))
    enqueue_vstig_message(queue, VstigPut(2, "k", 2, 2, 0))
    assert len(queue) == 2


def test_queue_leaves_non_vstig_messages_alone():
    queue = {("bcast", "b"): Broadcast("b", 1)}
    enqueue_vstig_message(queue, VstigPut(1, "k", 1, 1, 0))
    assert len(queue) == 2


# --- properties -------------------------------------------------------------------

def test_lamport_dominance_over_random_message_stream():
    rng = random.Random(0xfeed)
    store = VStigMap(1)
    stub = StubVm()
    last_ts = {}
    for i in range(500):
        key = rng.choice(["a", "b", "c"])
        if rng.random() < 0.3:
            store.local_put(key, rng.randrange(100), robot_id=5)
        elif rng.random() < 0.5:
            store.merge(VstigPut(1, key, rng.randrange(100),
                                 rng.randrange(1, 8), rng.randrange(8)),
                        stub)
        else:
            store.merge(VstigGet(1, key, rng.randrange(100),
                                 rng.randrange(0, 8), rng.randrange(8)),
                        stub)
        for k, entry in store.entries.items():
            assert entry.timestamp >= last_ts.get(k, 0)
            last_ts[k] = entry.timestamp


# The two handlers `merge` replaced, kept verbatim as its reference model.

def _reference_on_put(self, msg, vm):
    key = msg.key
    local = self.entries.get(key)
    if local is None or msg.timestamp > local.timestamp:
        self.entries[key] = VstigPut(self.vstig_id, key,
                                     copy_value(msg.value),
                                     msg.timestamp, msg.robot_id)
        return [msg]
    if msg.timestamp < local.timestamp:
        return []
    if msg.robot_id == local.robot_id:
        return []  # same provenance, nothing to do
    winner = self._resolve(key, local, msg, vm)
    return [VstigPut(self.vstig_id, key, winner.value, winner.timestamp,
                     winner.robot_id)]


def _reference_on_get(self, msg, vm):
    key = msg.key
    local = self.entries.get(key)
    local_ts = local.timestamp if local else 0
    if local_ts > msg.timestamp:
        return [VstigPut(self.vstig_id, key, local.value, local.timestamp,
                         local.robot_id)]
    if local_ts < msg.timestamp:
        self.entries[key] = VstigPut(self.vstig_id, key,
                                     copy_value(msg.value),
                                     msg.timestamp, msg.robot_id)
        return [VstigPut(self.vstig_id, key, msg.value, msg.timestamp,
                         msg.robot_id)]
    if local is None:
        return []  # both sides lack the key
    if msg.robot_id == local.robot_id:
        return []  # identical entries
    winner = self._resolve(key, local, msg, vm)
    return [VstigPut(self.vstig_id, key, winner.value, winner.timestamp,
                     winner.robot_id)]


RESOLVER_SCRIPT = """
lost = 0
v = stigmergy.create(1)
v.onconflict(function(key, local, remote) {
  if(remote.data > local.data) return remote
  return local
})
v.onconflictlost(function(key, local) { lost = lost + 1 })
"""


@pytest.mark.parametrize("script", ["v = stigmergy.create(1)",
                                    RESOLVER_SCRIPT],
                         ids=["default-resolver", "script-resolver"])
def test_merge_matches_the_put_and_get_handlers_it_replaced(run_script,
                                                            script):
    rng = random.Random(0x5eed)
    vm, ref_vm = run_script(script), run_script(script)
    store, ref = vm.vstig_map(1), ref_vm.vstig_map(1)
    cases = set()
    for _ in range(2000):
        key = rng.choice(["a", "b", "c", 4])
        if rng.random() < 0.05:
            value, robot = rng.randrange(50), rng.randrange(6)
            store.local_put(key, value, robot)
            ref.local_put(key, value, robot)
            continue
        # clocks near the local one, so ties and both orders are common
        local = store.entries.get(key)
        local_ts = local.timestamp if local is not None else 0
        cls = rng.choice([VstigPut, VstigGet])
        msg = cls(1, key, rng.randrange(50),
                  max(0, local_ts + rng.choice([-1, 0, 0, 1])),
                  rng.randrange(6))
        cases.add((cls, "absent" if local is None else
                   "newer" if msg.timestamp > local_ts else
                   "older" if msg.timestamp < local_ts else
                   "same" if msg.robot_id == local.robot_id else "tie"))
        expected = (_reference_on_put if cls is VstigPut
                    else _reference_on_get)(ref, msg, ref_vm)
        assert len(expected) <= 1
        got = store.merge(msg, vm)
        assert got == (expected[0] if expected else None)
        assert store.entries == ref.entries
        assert vm.get_global("lost") == ref_vm.get_global("lost")
    assert vm.faulted is None and ref_vm.faulted is None
    assert len(cases) == 10  # every case, for both message kinds


def test_queue_optimization_does_not_change_protocol_fixpoint(monkeypatch):
    """Concurrent writes plus random drop schedules: the optimized and the
    unoptimized outbound queue converge to the identical resolver-maximal
    entry everywhere.  The unoptimized queue gives every stigmergy message
    a slot of its own, so each one is sent in enqueue order.

    Arbitrary message soups are not a valid handler-level comparison (a
    real queue only holds snapshots of the sender's monotonically-winning
    local entry), so equivalence is asserted over whole protocol runs
    whose fixpoint is schedule-insensitive by construction.
    """
    from swarmlang import vm as vm_mod
    from swarmlang import vstig as vstig_mod
    from swarmlang.linker import compile_and_link
    from swarmlang.sim import SimulationConfig, Topology
    from swarmlang.sim.config import rng_for
    from swarmlang.sim.network import deliver
    from swarmlang.vm import Vm, VmConfig

    image = compile_and_link("""
function init() {
  vs = stigmergy.create(1)
  vs.put("k", id * 7)
}
function step() { observed = vs.get("k") }
""")
    n = 6
    poses = [(0.25 * (i % 3), 0.25 * (i // 3)) for i in range(n)]

    def one_slot_per_message(queue, msg):
        queue[("vstig", object())] = msg

    def final_entries(optimize, drop_prob, seed):
        with monkeypatch.context() as patch:
            if not optimize:
                for module in (vm_mod, vstig_mod):
                    patch.setattr(module, "enqueue_vstig_message",
                                  one_slot_per_message)
            return run(drop_prob, seed)

    def run(drop_prob, seed):
        cfg = SimulationConfig(n_robots=n, arena_side=1.4, comm_range=1.0,
                               drop_prob=drop_prob, seed=seed, max_steps=50)
        topo = Topology.build(cfg, poses)
        vms = [Vm(image, rid, VmConfig(payload_budget=4096),
                  print_sink=lambda s: None)
               for rid in range(n)]
        rng = rng_for(cfg, 2)
        inboxes = [[] for _ in range(n)]
        for _ in range(cfg.max_steps):
            outboxes = [vm.step(inboxes[rid])[0]
                        for rid, vm in enumerate(vms)]
            inboxes = deliver(cfg.drop_prob, topo, outboxes, rng)
        assert all(vm.faulted is None for vm in vms)
        return {(e.value, e.timestamp, e.robot_id)
                for vm in vms
                for e in [vm.vstig_map(1).entries.get("k")]
                if e is not None}

    expected = {(35, 1, 5)}  # concurrent ts=1 writes: robot 5's entry wins
    for seed in (1, 2, 3):
        for drop_prob in (0.0, 0.5):
            assert final_entries(True, drop_prob, seed) == expected
            assert final_entries(False, drop_prob, seed) == expected


def test_resolver_with_an_unencodable_robot_faults_only_its_robot():
    image = compile_and_link("""
function init() {
  v = stigmergy.create(1)
  if(id == 1) v.onconflict(function(key, local, remote) {
    remote.robot = -1
    return remote
  })
  v.put("k", id)
}
""")
    vms = [Vm(image, rid) for rid in (1, 2)]
    inboxes = [[], []]
    for _ in range(4):
        outboxes = [vm.step(inbox)[0] for vm, inbox in zip(vms, inboxes)]
        # each robot hears the other
        inboxes = [[Situated(sender, 10.0, 0.0, 0.0, (sent.message,))
                    for sent in outbox]
                   for sender, outbox in zip((2, 1), reversed(outboxes))]
    bad, good = vms
    assert isinstance(bad.faulted, VmRuntimeError)
    assert "u32" in str(bad.faulted)
    assert good.faulted is None and good.step_count == 4
    assert good.vstig_map(1).entries["k"].robot_id == 2


def _two_steps(engine, script, inbox):
    vm = engine(compile_and_link(script), 1)
    vm.step()
    vm.step(inbox)
    fault = vm.faulted
    return (fault and (str(fault), fault.line), vm._fuel,
            vm.get_global("x"))


# name -> (script, second step's inbox, the end of the fault's text)
FAULT_CASES = {
    "resolver-entry-without-robot": ("""
v = stigmergy.create(1)
v.onconflict(function(key, local, remote) { return {data=remote.data} })
v.put("k", 1)
""", [Situated(7, 10.0, 0.0, 0.0, (VstigPut(1, "k", 2, 1, 7),))],
        "conflict resolver entry needs an integer 'robot' field"),
    "put-arity": ('v = stigmergy.create(1)\nv.put("k")', [],
                  "put expects (key, value)"),
    "create-out-of-range": ("x = stigmergy.create(-1)", [],
                            "stigmergy id -1 out of range"),
}


@pytest.mark.parametrize("case", FAULT_CASES)
def test_stigmergy_faults_match_the_reference(case):
    script, inbox, error = FAULT_CASES[case]
    got = _two_steps(Vm, script, inbox)
    assert got == _two_steps(ReferenceVm, script, inbox)
    assert got[0][0].endswith(error)


def test_size_counts_distinct_keys(run_script):
    vm = run_script("""
v = stigmergy.create(1)
v.put(1, 1)
v.put(2, 1)
v.put(2, 5)
n = v.size()
""")
    assert vm.get_global("n") == 2


def test_table_values_snapshotted_on_put(run_script):
    vm = run_script("""
v = stigmergy.create(1)
t = {}
t.x = 1
v.put("k", t)
t.x = 99
got = v.get("k")
snap = got.x
""")
    assert vm.get_global("snap") == 1
