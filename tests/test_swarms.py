import random

import pytest

from swarmlang.linker import compile_and_link
from swarmlang.swarms import (FORGET_THRESHOLD, LIST_PERIOD, SwarmRegistry,
                              apply_to_view, enqueue_swarm_message,
                              optimize_queue)
from swarmlang.vm import Vm
from swarmlang.wire import SwarmJoin, SwarmLeave, SwarmList

from conftest import build_vm
from reference_vm import ReferenceVm


# --- registry ---------------------------------------------------------------

def test_create_starts_empty(run_script):
    vm = run_script("s = swarm.create(1)\nx = s.in()")
    assert vm.get_global("x") == 0


def test_create_is_idempotent(run_script):
    vm = run_script("""
s = swarm.create(1)
s.join()
t = swarm.create(1)
x = t.in()
""")
    assert vm.get_global("x") == 1


def test_independent_swarms(run_script):
    vm = run_script("""
a = swarm.create(1)
b = swarm.create(2)
a.join()
xa = a.in()
xb = b.in()
""")
    assert vm.get_global("xa") == 1
    assert vm.get_global("xb") == 0


def test_select_by_parity():
    members = []
    for rid in range(6):
        vm = build_vm("s = swarm.create(1)\ns.select(id % 2 == 0)\n"
                      "x = s.in()", robot_id=rid)
        vm.step([])
        if vm.get_global("x") == 1:
            members.append(rid)
    assert members == [0, 2, 4]


def test_unselect_false_predicate_no_change_no_message():
    vm = build_vm("s = swarm.create(1)\ns.join()\ns.unselect(id > 5)",
                  robot_id=2)
    vm.step([])
    # only JOIN queued; the unselect with a false predicate adds nothing
    reg = vm.swarm_registry
    assert reg.is_member(1)


def test_join_then_leave_one_step_keeps_only_leave():
    queue = {}
    enqueue_swarm_message(queue, SwarmJoin(1))
    enqueue_swarm_message(queue, SwarmLeave(1))
    assert list(queue.values()) == [SwarmLeave(1)]


def test_membership_message_only_on_change():
    reg = SwarmRegistry()
    assert reg.set_membership(1, True) == SwarmJoin(1)
    assert reg.set_membership(1, True) is None
    assert reg.set_membership(1, False) == SwarmLeave(1)
    assert reg.set_membership(1, False) is None


# --- set operations ----------------------------------------------------------

def test_difference_membership(run_script):
    vm = run_script("""
a = swarm.create(1)
b = swarm.create(2)
a.join()
d = swarm.difference(102, a, b)
x = d.in()
""")
    assert vm.get_global("x") == 1


def test_others_excludes_member(run_script):
    vm = run_script("""
s = swarm.create(1)
s.join()
n = s.others(103)
x = n.in()
""")
    assert vm.get_global("x") == 0


def test_union_with_self_is_identity(run_script):
    vm = run_script("""
a = swarm.create(1)
a.join()
u = swarm.union(101, a, a)
x = u.in()
""")
    assert vm.get_global("x") == 1


def test_intersection(run_script):
    vm = run_script("""
a = swarm.create(1)
b = swarm.create(2)
a.join()
b.join()
i = swarm.intersection(100, a, b)
x = i.in()
""")
    assert vm.get_global("x") == 1


# --- exec and the swarm stack -------------------------------------------------

def test_exec_skips_non_members(run_script):
    vm = run_script("""
s = swarm.create(1)
s.exec(function() { ran = 1 })
""")
    assert vm.get_global("ran") is None


def test_nested_exec_swarm_ids(run_script):
    vm = run_script("""
a = swarm.create(1)
b = swarm.create(2)
a.join()
b.join()
a.exec(function() {
  b.exec(function() {
    top = swarm.id()
    below = swarm.id(1)
    past = swarm.id(2)
  })
})
""")
    assert vm.get_global("top") == 2
    assert vm.get_global("below") == 1
    assert vm.get_global("past") is None


def test_swarm_id_outside_exec_is_nil(run_script):
    vm = run_script("x = swarm.id()")
    assert vm.get_global("x") is None
    assert vm.faulted is None


# --- argument errors ------------------------------------------------------------

# name -> (script, the end of its fault's text or None, `x` after the step)
SCRIPT_CASES = {
    "unselect-true": ("s = swarm.create(1)\ns.join()\ns.unselect(id < 5)\n"
                      "x = s.in()", None, 0),
    "others-not-int": ('s = swarm.create(1)\nx = s.others("a")',
                       "others expects a new swarm id", None),
    "create-not-int": ("x = swarm.create(1.5)",
                       "swarm.create expects an integer id", None),
    "create-out-of-range": ("x = swarm.create(65536)",
                            "swarm id 65536 out of range", None),
    "set-op-arity": ("a = swarm.create(1)\nx = swarm.union(2, a)",
                     "swarm.union expects (new_id, a, b)", None),
    "set-op-id-not-int": ('a = swarm.create(1)\n'
                          'x = swarm.difference("n", a, a)',
                          "swarm.difference expects (new_id, a, b)", None),
    "set-op-not-swarm": ("a = swarm.create(1)\n"
                         "x = swarm.intersection(2, a, 3)",
                         "swarm.intersection expects swarm arguments", None),
    "id-negative": ("s = swarm.create(1)\ns.join()\n"
                    "s.exec(function() { x = swarm.id(-1) })",
                    "swarm.id expects a non-negative integer", None),
}


def _one_step(engine, script):
    vm = engine(compile_and_link(script), 0)
    vm.step([])
    fault = vm.faulted
    return (fault and (str(fault), fault.line), vm._fuel,
            vm.get_global("x"))


@pytest.mark.parametrize("case", SCRIPT_CASES)
def test_swarm_calls_with_bad_arguments_fault_as_the_reference(case):
    script, error, x = SCRIPT_CASES[case]
    got = _one_step(Vm, script)
    assert got == _one_step(ReferenceVm, script)
    if error is None:
        assert got[0] is None
    else:
        assert got[0][0].endswith(error)
    assert got[2] == x


# --- aging and the periodic LIST ----------------------------------------------

def test_fresh_join_resets_age():
    reg = SwarmRegistry()
    reg.handle_message(9, SwarmJoin(1))
    for step in range(1, FORGET_THRESHOLD + 1):
        reg.on_step(step)
    assert reg.neighbor_info[9][1] == FORGET_THRESHOLD
    reg.handle_message(9, SwarmJoin(2))
    assert reg.neighbor_info[9][1] == 0
    assert reg.swarms_of(9) == {1, 2}


def test_silent_neighbor_forgotten_past_threshold():
    reg = SwarmRegistry()
    reg.handle_message(9, SwarmList([1]))
    for step in range(1, FORGET_THRESHOLD + 1):
        reg.on_step(step)
        assert reg.knows(9)
    reg.on_step(FORGET_THRESHOLD + 1)  # age 51 > 50
    assert not reg.knows(9)


def test_list_queued_on_schedule():
    reg = SwarmRegistry()
    reg.set_membership(1, True)
    for step in range(1, LIST_PERIOD):
        assert reg.on_step(step) == []
    msgs = reg.on_step(LIST_PERIOD)
    assert msgs == [SwarmList([1])]


def test_leave_then_list_reflects_membership():
    reg = SwarmRegistry()
    reg.set_membership(1, True)
    reg.set_membership(2, True)
    reg.set_membership(1, False)
    assert reg.membership_list() == [2]


# --- queue optimization --------------------------------------------------------

def test_rule_list_purges_older_swarm_messages():
    queue = {}
    enqueue_swarm_message(queue, SwarmJoin(1))
    enqueue_swarm_message(queue, SwarmList([1, 2]))
    assert list(queue.values()) == [SwarmList([1, 2])]


def test_rule_leave_edits_queued_list():
    queue = {}
    enqueue_swarm_message(queue, SwarmList([1, 2]))
    enqueue_swarm_message(queue, SwarmLeave(2))
    assert list(queue.values()) == [SwarmList([1])]


def test_rule_join_drops_older_leave():
    queue = {}
    enqueue_swarm_message(queue, SwarmLeave(3))
    enqueue_swarm_message(queue, SwarmJoin(3))
    assert list(queue.values()) == [SwarmJoin(3)]


def test_rule_join_added_to_queued_list():
    queue = {}
    enqueue_swarm_message(queue, SwarmList([1]))
    enqueue_swarm_message(queue, SwarmJoin(4))
    assert list(queue.values()) == [SwarmList([1, 4])]


def test_rule_duplicate_join_discarded():
    queue = {}
    enqueue_swarm_message(queue, SwarmJoin(1))
    enqueue_swarm_message(queue, SwarmJoin(1))
    assert list(queue.values()) == [SwarmJoin(1)]


def test_rule_leave_drops_older_join():
    queue = {}
    enqueue_swarm_message(queue, SwarmJoin(5))
    enqueue_swarm_message(queue, SwarmLeave(5))
    assert list(queue.values()) == [SwarmLeave(5)]


def random_messages(rng, length):
    msgs = []
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            msgs.append(SwarmJoin(rng.randrange(4)))
        elif kind == 1:
            msgs.append(SwarmLeave(rng.randrange(4)))
        else:
            ids = [sid for sid in range(4) if rng.random() < 0.5]
            msgs.append(SwarmList(ids))
    return msgs


def final_view(messages):
    view = set()
    for msg in messages:
        apply_to_view(view, msg)
    return view


def test_optimized_queue_preserves_receiver_view():
    rng = random.Random(0xbee)
    for _ in range(200):
        msgs = random_messages(rng, rng.randrange(0, 30))
        # deep-copy lists: optimization mutates LIST messages in place
        copies = [SwarmList(list(m.swarm_ids)) if isinstance(m, SwarmList)
                  else m for m in msgs]
        assert final_view(optimize_queue(copies)) == final_view(msgs)


def test_optimized_queue_is_compact():
    rng = random.Random(7)
    for _ in range(100):
        msgs = random_messages(rng, 25)
        copies = [SwarmList(list(m.swarm_ids)) if isinstance(m, SwarmList)
                  else m for m in msgs]
        queue = optimize_queue(copies)
        lists = [m for m in queue if isinstance(m, SwarmList)]
        assert len(lists) <= 1
        if lists:
            assert len(queue) == 1  # a LIST subsumes everything
        per_id = {}
        for m in queue:
            if not isinstance(m, SwarmList):
                per_id.setdefault(m.swarm_id, []).append(m)
        assert all(len(v) == 1 for v in per_id.values())
