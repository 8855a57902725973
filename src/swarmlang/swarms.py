"""Swarm membership: the local set, neighbor knowledge, queue optimization.

A robot's swarms are the set of ids it is a member of.  Membership
changes queue JOIN/LEAVE messages; a periodic LIST message carries the
complete current membership.  Knowledge about neighbors ages by one step
per silent step and is forgotten past a threshold.  The outbound queue is
optimized on enqueue: a JOIN or LEAVE for swarm id `sid` sits in slot
("swarm", sid) and the one LIST in slot ("swarm",), so at most one
message per swarm id is in flight, and while a LIST is queued it
subsumes everything (no JOIN/LEAVE slot is left beside it).
"""

from .errors import VmRuntimeError
from .values import (NativeClosure, SwarmHandle, is_truthy,
                     require_closure, wrong_receiver)
from .wire import SwarmJoin, SwarmLeave, SwarmList


LIST_PERIOD = 10  # a LIST goes out every this many steps
FORGET_THRESHOLD = 50  # a neighbor silent longer than this is forgotten


class SwarmRegistry:
    def __init__(self):
        self.members = set()     # the swarm ids this robot is a member of
        self.handles = {}        # swarm_id -> the script's SwarmHandle
        self.neighbor_info = {}  # robot_id -> [set(swarm_ids), age]

    def is_member(self, swarm_id):
        return swarm_id in self.members

    def set_membership(self, swarm_id, member):
        """Join or leave a swarm; returns the message to queue on change."""
        if (swarm_id in self.members) == member:
            return None
        if member:
            self.members.add(swarm_id)
            return SwarmJoin(swarm_id)
        self.members.remove(swarm_id)
        return SwarmLeave(swarm_id)

    def membership_list(self):
        return sorted(self.members)

    def handle_message(self, sender_id, msg):
        """Ingest a JOIN/LEAVE/LIST from a neighbor; zeroes its age."""
        info = self.neighbor_info.get(sender_id)
        if info is None:
            info = [set(), 0]
            self.neighbor_info[sender_id] = info
        apply_to_view(info[0], msg)
        info[1] = 0

    def on_step(self, step_count):
        """Age and prune neighbor knowledge; schedule the periodic LIST."""
        stale = []
        for rid, info in self.neighbor_info.items():
            info[1] += 1
            if info[1] > FORGET_THRESHOLD:
                stale.append(rid)
        for rid in stale:
            del self.neighbor_info[rid]
        if step_count % LIST_PERIOD == 0:
            return [SwarmList(self.membership_list())]
        return []

    def knows(self, robot_id):
        return robot_id in self.neighbor_info

    def swarms_of(self, robot_id):
        info = self.neighbor_info.get(robot_id)
        return info[0] if info is not None else None

    def split(self, records, swarm_id, kin):
        """The entries of {robot_id: record} whose robot is known to be in
        swarm `swarm_id` (kin) or known not to be (not kin); a robot of
        unknown membership is in neither."""
        info = self.neighbor_info
        out = {}
        for rid, record in records.items():
            known = info.get(rid)
            if known is not None and (swarm_id in known[0]) == kin:
                out[rid] = record
        return out


LIST_SLOT = ("swarm",)  # the one queued LIST; JOIN/LEAVE use ("swarm", sid)


def enqueue_swarm_message(queue, msg):
    """Apply the outbound-queue optimization rules for one new message.

    `queue` is the VM's outbound dict from slot to message; only the
    swarm slots are touched.  Mutates `queue` in place.
    """
    if isinstance(msg, SwarmList):
        for slot in [s for s in queue if s[0] == "swarm"]:
            del queue[slot]
        queue[LIST_SLOT] = msg
        return
    sid = msg.swarm_id
    slot = ("swarm", sid)
    old = queue.get(slot)
    if old is not None:
        if type(old) is not type(msg):  # JOIN cancels LEAVE and vice versa
            del queue[slot]
            queue[slot] = msg
        return  # a duplicate JOIN or LEAVE is discarded
    listed = queue.get(LIST_SLOT)
    if listed is None:
        queue[slot] = msg
    elif isinstance(msg, SwarmJoin):
        if sid not in listed.swarm_ids:
            listed.swarm_ids.append(sid)
    elif sid in listed.swarm_ids:
        listed.swarm_ids.remove(sid)


def optimize_queue(messages):
    """Fold a raw oldest-first swarm message sequence through the
    enqueue-time optimization; returns the optimized queue."""
    queue = {}
    for msg in messages:
        enqueue_swarm_message(queue, msg)
    return list(queue.values())


def apply_to_view(view, msg):
    """Receiver-side effect of one swarm message on a membership set."""
    if isinstance(msg, SwarmJoin):
        view.add(msg.swarm_id)
    elif isinstance(msg, SwarmLeave):
        view.discard(msg.swarm_id)
    elif isinstance(msg, SwarmList):
        view.clear()
        view.update(msg.swarm_ids)
    return view


# --- script-facing methods -------------------------------------------------

def _set_membership(vm, swarm_id, member):
    msg = vm.swarm_registry.set_membership(swarm_id, member)
    if msg is not None:
        enqueue_swarm_message(vm.out_queue, msg)


def _create(vm, swarm_id, member=False):
    """The handle of swarm `swarm_id`, one per id; joins it if `member`."""
    if not 0 <= swarm_id < 2 ** 16:
        raise VmRuntimeError(f"swarm id {swarm_id} out of range")
    handles = vm.swarm_registry.handles
    handle = handles.setdefault(swarm_id, SwarmHandle(swarm_id))
    if member:
        _set_membership(vm, swarm_id, True)
    return handle


def _m_select(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "select")
    pred = args[0] if args else None
    if is_truthy(pred):
        _set_membership(vm, handle.swarm_id, True)


def _m_unselect(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "unselect")
    pred = args[0] if args else None
    if is_truthy(pred):
        _set_membership(vm, handle.swarm_id, False)


def _m_join(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "join")
    _set_membership(vm, handle.swarm_id, True)


def _m_leave(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "leave")
    _set_membership(vm, handle.swarm_id, False)


def _m_in(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "in")
    return 1 if vm.swarm_registry.is_member(handle.swarm_id) else 0


def _m_exec(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "exec")
    fn = require_closure(args[0] if args else None, "exec")
    if not vm.swarm_registry.is_member(handle.swarm_id):
        return None
    vm.swarm_stack.append(handle.swarm_id)
    try:
        fn.code(vm, fn.env, None)
    finally:
        vm.swarm_stack.pop()


def _m_others(vm, _env, handle, *args):
    if type(handle) is not SwarmHandle:
        raise wrong_receiver(handle, "others")
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("others expects a new swarm id")
    new_id = args[0]
    member = not vm.swarm_registry.is_member(handle.swarm_id)
    return _create(vm, new_id, member)


SwarmHandle.METHODS = {
    "select": NativeClosure(_m_select, None),
    "unselect": NativeClosure(_m_unselect, None),
    "join": NativeClosure(_m_join, None),
    "leave": NativeClosure(_m_leave, None),
    "in": NativeClosure(_m_in, None),
    "exec": NativeClosure(_m_exec, None),
    "others": NativeClosure(_m_others, None),
}


def _f_create(vm, _env, _self, *args):
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("swarm.create expects an integer id")
    return _create(vm, args[0])


def _setop(vm, args, op, name):
    if len(args) != 3 or type(args[0]) is not int:
        raise VmRuntimeError(f"swarm.{name} expects (new_id, a, b)")
    new_id, a, b = args
    if not isinstance(a, SwarmHandle) or not isinstance(b, SwarmHandle):
        raise VmRuntimeError(f"swarm.{name} expects swarm arguments")
    reg = vm.swarm_registry
    fa, fb = reg.is_member(a.swarm_id), reg.is_member(b.swarm_id)
    return _create(vm, new_id, op(fa, fb))


def _f_intersection(vm, _env, _self, *args):
    return _setop(vm, args, lambda a, b: a and b, "intersection")


def _f_union(vm, _env, _self, *args):
    return _setop(vm, args, lambda a, b: a or b, "union")


def _f_difference(vm, _env, _self, *args):
    return _setop(vm, args, lambda a, b: a and not b, "difference")


def _f_id(vm, _env, _self, *args):
    stack = vm.swarm_stack
    if not stack:
        return None
    n = args[0] if args else 0
    if type(n) is not int or n < 0:
        raise VmRuntimeError("swarm.id expects a non-negative integer")
    if n >= len(stack):
        return None
    return stack[-1 - n]


FACTORY_METHODS = {
    "create": NativeClosure(_f_create, None),
    "intersection": NativeClosure(_f_intersection, None),
    "union": NativeClosure(_f_union, None),
    "difference": NativeClosure(_f_difference, None),
    "id": NativeClosure(_f_id, None),
}
