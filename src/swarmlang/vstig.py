"""Virtual stigmergy: a distributed (key, value) space with Lamport clocks.

Every local write bumps the key's logical clock and queues a PUT; every
read returns the local value and queues a GET carrying the local entry so
neighbors can correct stale readers.  Entries with a higher timestamp
always win; equal timestamps from different writers go through a conflict
resolver (highest robot id by default).  The outbound queue holds at most
one message per (stigmergy id, key), keeping the most up-to-date one, in
slot ("vstig", vstig_id, key).  Slots match keys the way `VStigMap.entries`
does: 1 and 1.0 share one, a table matches only itself, and a NaN key
matches only the same float object.
"""

from dataclasses import dataclass

from .errors import VmRuntimeError
from .values import (HostClosure, Table, VStigHandle, copy_value,
                     is_wire_value, require_closure, value_eq)
from .wire import VstigGet, VstigPut


@dataclass(slots=True)
class VStigEntry:
    value: object
    timestamp: int
    robot_id: int


class VStigMap:
    def __init__(self, vstig_id):
        self.vstig_id = vstig_id
        self.handle = VStigHandle(vstig_id)  # what the script holds
        self.entries = {}         # key -> VStigEntry
        self.onconflict = None    # script closure (k, local, remote) -> entry
        self.onconflictlost = None

    def size(self):
        return len(self.entries)

    # --- local access ---

    def local_put(self, key, value, robot_id):
        value = copy_value(value)  # snapshot: later mutations stay local
        old = self.entries.get(key)
        ts = (old.timestamp if old else 0) + 1
        self.entries[key] = VStigEntry(value, ts, robot_id)
        return VstigPut(self.vstig_id, key, value, ts, robot_id)

    def local_get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            # transmit timestamp 0 so holders of the key can correct us
            return None, VstigGet(self.vstig_id, key, None, 0, 0)
        return entry.value, VstigGet(self.vstig_id, key, entry.value,
                                     entry.timestamp, entry.robot_id)

    # --- protocol handler (phase 2) ---

    def merge(self, msg, vm):
        """Apply an incoming PUT or GET; returns the PUT to queue or None.

        The newer clock wins and is re-propagated, and a PUT for an absent
        key is adopted whatever its clock.  A GET older than the local
        entry is answered with that entry; an older PUT is dropped.  Equal
        clocks from different writers go to the conflict resolver (for a
        GET too, or a reader stuck on a stale entry could starve forever).
        """
        key = msg.key
        local = self.entries.get(key)
        local_ts = local.timestamp if local is not None else 0
        is_put = type(msg) is VstigPut
        if msg.timestamp > local_ts or (local is None and is_put):
            self.entries[key] = VStigEntry(copy_value(msg.value),
                                           msg.timestamp, msg.robot_id)
            if is_put:
                return msg
            entry = msg
        elif msg.timestamp < local_ts:
            if is_put:
                return None
            entry = local
        elif local is None or msg.robot_id == local.robot_id:
            return None  # both sides lack the key, or the same writer
        else:
            entry = self._resolve(key, local, msg, vm)
        return VstigPut(self.vstig_id, key, entry.value, entry.timestamp,
                        entry.robot_id)

    def _resolve(self, key, local, remote_msg, vm):
        """Run the conflict resolver; store the winner; fire the lost hook."""
        ts = max(local.timestamp, remote_msg.timestamp)
        if self.onconflict is not None:
            local_tbl = _entry_table(local.value, local.robot_id)
            # a copy: the script may change it, and the message is shared
            remote_tbl = _entry_table(copy_value(remote_msg.value),
                                      remote_msg.robot_id)
            ret = vm.call_value(self.onconflict, [key, local_tbl, remote_tbl])
            if not isinstance(ret, Table):
                raise VmRuntimeError(
                    "conflict resolver must return an entry table")
            value = ret.get("data")
            robot = ret.get("robot")
            if type(robot) is not int:
                raise VmRuntimeError(
                    "conflict resolver entry needs an integer 'robot' field")
            winner = VStigEntry(copy_value(value), ts, robot)
        else:
            # default: the entry written by the highest robot id wins
            if remote_msg.robot_id > local.robot_id:
                winner = VStigEntry(copy_value(remote_msg.value), ts,
                                    remote_msg.robot_id)
            else:
                winner = VStigEntry(local.value, ts, local.robot_id)
        self.entries[key] = winner
        local_lost = not (winner.robot_id == local.robot_id and
                          value_eq(winner.value, local.value))
        if local_lost and self.onconflictlost is not None:
            vm.call_value(self.onconflictlost,
                          [key, _entry_table(local.value, local.robot_id)])
        return winner


def _entry_table(value, robot_id):
    return Table({"data": value, "robot": robot_id})


def enqueue_vstig_message(queue, msg):
    """Keep at most one message per (vstig_id, key): highest timestamp
    wins; PUT beats GET on a tie; newer beats older among equals.
    Mutates `queue` (slot -> message) in place."""
    slot = ("vstig", msg.vstig_id, msg.key)
    old = queue.get(slot)
    if old is not None:
        if old.timestamp > msg.timestamp or (
                old.timestamp == msg.timestamp and
                isinstance(old, VstigPut) and isinstance(msg, VstigGet)):
            return
        del queue[slot]
    queue[slot] = msg


# --- script-facing methods -------------------------------------------------

def _check_wire(v, what):
    if not is_wire_value(v):
        raise VmRuntimeError(f"stigmergy {what} must be an int, float, "
                             "string, or table of those")


def _m_put(vm, handle, args):
    if len(args) != 2:
        raise VmRuntimeError("put expects (key, value)")
    key, value = args
    _check_wire(key, "key")
    _check_wire(value, "value")
    vstig = vm.vstig_map(handle.vstig_id)
    enqueue_vstig_message(vm.out_queue,
                          vstig.local_put(key, value, vm.robot_id))


def _m_get(vm, handle, args):
    if len(args) != 1:
        raise VmRuntimeError("get expects (key)")
    _check_wire(args[0], "key")
    vstig = vm.vstig_map(handle.vstig_id)
    value, msg = vstig.local_get(args[0])
    enqueue_vstig_message(vm.out_queue, msg)
    return value


def _m_size(vm, handle, args):
    return vm.vstig_map(handle.vstig_id).size()


def _m_onconflict(vm, handle, args):
    vm.vstig_map(handle.vstig_id).onconflict = require_closure(
        args[0] if args else None, "onconflict")


def _m_onconflictlost(vm, handle, args):
    vm.vstig_map(handle.vstig_id).onconflictlost = require_closure(
        args[0] if args else None, "onconflictlost")


VStigHandle.METHODS = {
    "put": HostClosure("put", _m_put),
    "get": HostClosure("get", _m_get),
    "size": HostClosure("size", _m_size),
    "onconflict": HostClosure("onconflict", _m_onconflict),
    "onconflictlost": HostClosure("onconflictlost", _m_onconflictlost),
}


def _f_create(vm, _self, args):
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("stigmergy.create expects an integer id")
    return vm.vstig_create(args[0])


FACTORY_METHODS = {
    "create": HostClosure("create", _f_create),
}
