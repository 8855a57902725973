"""The keyed outbound queue against a list-based model of its rules.

`ListQueue` restates the three enqueue-time rules (broadcast, swarm,
stigmergy) on a plain oldest-first list, scanning it the way the rules
are worded in docs/wire.md.  Seeded mixed streams go through both it and
a real VM's queue, with drains at random budgets in between; every sent
envelope and the order of what stays queued must be identical.
"""

import random
from dataclasses import fields

from swarmlang.linker import compile_and_link
from swarmlang.swarms import enqueue_swarm_message
from swarmlang.values import Table, copy_value, value_eq
from swarmlang.vm import Vm, VmConfig
from swarmlang.vstig import enqueue_vstig_message
from swarmlang.wire import (Announce, Broadcast, SwarmJoin, SwarmLeave,
                            SwarmList, VstigGet, VstigPut, encode_message)

from conftest import build_vm

SWARM = (SwarmJoin, SwarmLeave, SwarmList)
VSTIG = (VstigPut, VstigGet)


def _key_eq(a, b):
    if isinstance(a, Table) or isinstance(b, Table):
        return a is b
    return value_eq(a, b)


class ListQueue:
    def __init__(self, robot_id):
        self.robot_id = robot_id
        self.items = []

    def enqueue(self, msg):
        q = self.items
        if isinstance(msg, Broadcast):
            q[:] = [m for m in q
                    if not (isinstance(m, Broadcast) and m.key == msg.key)]
            q.append(Broadcast(msg.key, copy_value(msg.value)))
        elif isinstance(msg, SwarmList):
            q[:] = [m for m in q if not isinstance(m, SWARM)]
            q.append(msg)
        elif isinstance(msg, (SwarmJoin, SwarmLeave)):
            sid = msg.swarm_id
            same = [m for m in q if type(m) is type(msg)
                    and m.swarm_id == sid]
            opposite = [m for m in q if isinstance(m, (SwarmJoin, SwarmLeave))
                        and type(m) is not type(msg) and m.swarm_id == sid]
            lists = [m for m in q if isinstance(m, SwarmList)]
            if same:
                return
            if opposite:
                q.remove(opposite[0])
                q.append(msg)
            elif lists:
                ids = lists[0].swarm_ids
                if isinstance(msg, SwarmJoin) and sid not in ids:
                    ids.append(sid)
                elif isinstance(msg, SwarmLeave) and sid in ids:
                    ids.remove(sid)
            else:
                q.append(msg)
        else:
            for i, old in enumerate(q):
                if not isinstance(old, VSTIG) or \
                   old.vstig_id != msg.vstig_id or \
                   not _key_eq(old.key, msg.key):
                    continue
                if old.timestamp > msg.timestamp or (
                        old.timestamp == msg.timestamp and
                        isinstance(old, VstigPut) and
                        isinstance(msg, VstigGet)):
                    return
                del q[i]
                break
            q.append(msg)

    def drain(self, budget):
        raws = [encode_message(self.robot_id, Announce())]
        budget -= len(raws[0])
        if budget < 0:
            return []
        while self.items:
            raw = encode_message(self.robot_id, self.items[0])
            if len(raw) > budget:
                break
            self.items.pop(0)
            raws.append(raw)
            budget -= len(raw)
        return raws


TABLES = [Table(), Table({"x": 1})]
KEYS = [1, 1.0, 2, 2.0, "a", "b"] + TABLES


def _random_message(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Broadcast(rng.choice("pqr"), rng.randrange(5))
    if kind == 1:
        return SwarmJoin(rng.randrange(4))
    if kind == 2:
        return SwarmLeave(rng.randrange(4))
    if kind == 3:
        return SwarmList([s for s in range(4) if rng.random() < 0.5])
    cls = VstigPut if kind == 4 else VstigGet
    return cls(rng.choice((1, 2)), rng.choice(KEYS), rng.randrange(3),
               rng.randrange(4), rng.randrange(3))


def _fresh(msg):
    # LIST messages are edited in place by both queues: one copy each
    return SwarmList(list(msg.swarm_ids)) if isinstance(msg, SwarmList) \
        else msg


def _enqueue(vm, msg):
    # the VM's own entry point for each protocol
    if isinstance(msg, Broadcast):
        vm.enqueue_broadcast(msg)
    elif isinstance(msg, SWARM):
        enqueue_swarm_message(vm.out_queue, msg)
    else:
        enqueue_vstig_message(vm.out_queue, msg)


def _signature(messages):
    # tell 1 from 1.0 and one table from an equal other one; the fields
    # of `==` only, so not the bytes a drain kept (`encoded`)
    return [(type(m), [(type(v), id(v) if isinstance(v, Table) else v)
                       for v in (getattr(m, f.name) for f in fields(m)
                                 if f.compare)])
            for m in messages]


def test_keyed_queue_matches_list_model():
    image = compile_and_link("")
    for seed in range(1000):
        rng = random.Random(seed)
        vm = Vm(image, 7, VmConfig())
        model = ListQueue(7)
        for _ in range(rng.randrange(1, 40)):
            if rng.random() < 0.15:
                vm.config.payload_budget = rng.randrange(0, 80)
                sent = [s.raw for s in vm._drain()]
                assert sent == model.drain(vm.config.payload_budget), seed
                assert vm.faulted is None
            msg = _random_message(rng)
            _enqueue(vm, _fresh(msg))
            model.enqueue(_fresh(msg))
        assert _signature(vm.out_queue.values()) == \
            _signature(model.items), seed


def test_nan_key_holds_one_slot_like_the_store():
    # the list model queued two PUTs here (NaN != NaN) while the store
    # held one entry; a slot keyed like VStigMap.entries holds one
    vm = build_vm("""
v = stigmergy.create(1)
a = 1e308 * 10.0
b = a - a
v.put(b, 1)
v.put(b, 2)
n = v.size()
""", config=VmConfig(payload_budget=0))
    vm.step([])
    assert vm.get_global("n") == 1
    [put] = vm.out_queue.values()
    assert isinstance(put, VstigPut)
    assert (put.value, put.timestamp) == (2, 2)
