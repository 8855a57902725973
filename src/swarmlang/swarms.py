"""Swarm membership: local flags, neighbor knowledge, queue optimization.

Membership changes queue JOIN/LEAVE messages; a periodic LIST message
carries the complete current membership.  Knowledge about neighbors ages
by one step per silent step and is forgotten past a threshold.  The
outbound queue is optimized on enqueue: a JOIN or LEAVE for swarm id
`sid` sits in slot ("swarm", sid) and the one LIST in slot ("swarm",),
so at most one message per swarm id is in flight, and while a LIST is
queued it subsumes everything (no JOIN/LEAVE slot is left beside it).
"""

from .errors import VmRuntimeError
from .values import HostClosure, SwarmHandle, is_truthy, require_closure
from .wire import SwarmJoin, SwarmLeave, SwarmList


class SwarmRegistry:
    def __init__(self, list_period=10, forget_threshold=50):
        self.flags = {}          # swarm_id -> 0/1
        self.neighbor_info = {}  # robot_id -> [set(swarm_ids), age]
        self.list_period = list_period
        self.forget_threshold = forget_threshold

    def create(self, swarm_id):
        self.flags.setdefault(swarm_id, 0)

    def is_member(self, swarm_id):
        return self.flags.get(swarm_id, 0) == 1

    def set_membership(self, swarm_id, member):
        """Set the local flag; returns the message to queue on change."""
        self.create(swarm_id)
        flag = 1 if member else 0
        if self.flags[swarm_id] == flag:
            return None
        self.flags[swarm_id] = flag
        return SwarmJoin(swarm_id) if flag else SwarmLeave(swarm_id)

    def membership_list(self):
        return sorted(sid for sid, flag in self.flags.items() if flag)

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
            if info[1] > self.forget_threshold:
                stale.append(rid)
        for rid in stale:
            del self.neighbor_info[rid]
        if self.list_period > 0 and step_count % self.list_period == 0:
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

def _m_select(vm, handle, args):
    pred = args[0] if args else None
    if is_truthy(pred):
        vm.swarm_set_membership(handle.swarm_id, True)


def _m_unselect(vm, handle, args):
    pred = args[0] if args else None
    if is_truthy(pred):
        vm.swarm_set_membership(handle.swarm_id, False)


def _m_join(vm, handle, args):
    vm.swarm_set_membership(handle.swarm_id, True)


def _m_leave(vm, handle, args):
    vm.swarm_set_membership(handle.swarm_id, False)


def _m_in(vm, handle, args):
    return 1 if vm.swarm_registry.is_member(handle.swarm_id) else 0


def _m_exec(vm, handle, args):
    fn = require_closure(args[0] if args else None, "exec")
    if not vm.swarm_registry.is_member(handle.swarm_id):
        return None
    vm.swarm_stack.append(handle.swarm_id)
    try:
        vm.call_value(fn, [])
    finally:
        vm.swarm_stack.pop()


def _m_others(vm, handle, args):
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("others expects a new swarm id")
    new_id = args[0]
    member = not vm.swarm_registry.is_member(handle.swarm_id)
    return vm.swarm_create(new_id, member)


SwarmHandle.METHODS = {
    "select": HostClosure("select", _m_select),
    "unselect": HostClosure("unselect", _m_unselect),
    "join": HostClosure("join", _m_join),
    "leave": HostClosure("leave", _m_leave),
    "in": HostClosure("in", _m_in),
    "exec": HostClosure("exec", _m_exec),
    "others": HostClosure("others", _m_others),
}


def _f_create(vm, _self, args):
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("swarm.create expects an integer id")
    return vm.swarm_create(args[0])


def _setop(vm, args, op, name):
    if len(args) != 3 or type(args[0]) is not int:
        raise VmRuntimeError(f"swarm.{name} expects (new_id, a, b)")
    new_id, a, b = args
    if not isinstance(a, SwarmHandle) or not isinstance(b, SwarmHandle):
        raise VmRuntimeError(f"swarm.{name} expects swarm arguments")
    reg = vm.swarm_registry
    fa, fb = reg.is_member(a.swarm_id), reg.is_member(b.swarm_id)
    return vm.swarm_create(new_id, op(fa, fb))


def _f_intersection(vm, _self, args):
    return _setop(vm, args, lambda a, b: a and b, "intersection")


def _f_union(vm, _self, args):
    return _setop(vm, args, lambda a, b: a or b, "union")


def _f_difference(vm, _self, args):
    return _setop(vm, args, lambda a, b: a and not b, "difference")


def _f_id(vm, _self, args):
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
    "create": HostClosure("create", _f_create),
    "intersection": HostClosure("intersection", _f_intersection),
    "union": HostClosure("union", _f_union),
    "difference": HostClosure("difference", _f_difference),
    "id": HostClosure("id", _f_id),
}
