"""Virtual stigmergy: a distributed (key, value) space with Lamport clocks.

Every local write bumps the key's logical clock and queues a PUT; every
read returns the local value and queues a GET carrying the local entry so
neighbors can correct stale readers.  Entries with a higher timestamp
always win; equal timestamps from different writers go through a conflict
resolver (highest robot id by default).  An entry is the PUT that carries
it, which nothing changes, so one PUT may be both entry and queued.  The
outbound queue holds at most one message per (stigmergy id, key), keeping
the most up-to-date one, in slot ("vstig", vstig_id, key).  Slots match
keys the way `VStigMap.entries` does: 1 and 1.0 share one, a table
matches only itself, and a NaN key matches only the same float object.
"""

from .errors import VmRuntimeError
from .values import (NativeClosure, Table, VStigHandle, coerce, copy_value,
                     is_wire_value, require_closure, value_eq,
                     wrong_receiver)
from .wire import VstigGet, VstigPut


class VStigMap:
    def __init__(self, vstig_id):
        self.vstig_id = vstig_id
        self.handle = VStigHandle(vstig_id)  # what the script holds
        self.entries = {}         # key -> the VstigPut that carries it
        self.onconflict = None    # script closure (k, local, remote) -> entry
        self.onconflictlost = None

    def size(self):
        return len(self.entries)

    # --- local access ---

    def local_put(self, key, value, robot_id):
        old = self.entries.get(key)
        ts = (old.timestamp if old else 0) + 1
        # a copy of the value: later mutations stay local
        put = VstigPut(self.vstig_id, key, copy_value(value), ts, robot_id)
        self.entries[key] = put
        return put

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
        An adopted PUT without a table value is itself the new entry.
        """
        key = msg.key
        local = self.entries.get(key)
        local_ts = local.timestamp if local is not None else 0
        is_put = type(msg) is VstigPut
        if msg.timestamp > local_ts or (local is None and is_put):
            put = msg if is_put else VstigPut(self.vstig_id, key, msg.value,
                                              msg.timestamp, msg.robot_id)
            # the entry copies a table: the queued PUT shares the message's
            self.entries[key] = put if type(put.value) is not Table else \
                VstigPut(self.vstig_id, key, copy_value(put.value),
                         put.timestamp, put.robot_id)
            return put
        if msg.timestamp < local_ts:
            # a GET is answered under its own key (1.0 and 1 share an entry)
            return None if is_put else VstigPut(
                self.vstig_id, key, local.value, local_ts, local.robot_id)
        if local is None or msg.robot_id == local.robot_id:
            return None  # both sides lack the key, or the same writer
        return self._resolve(key, local, msg, vm)

    def _resolve(self, key, local, remote_msg, vm):
        """Resolve a tie; store and return the winner; fire the lost hook."""
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
            robot = ret.get("robot")
            if type(robot) is not int:
                raise VmRuntimeError(
                    "conflict resolver entry needs an integer 'robot' field")
            value = copy_value(ret.get("data"))
        elif remote_msg.robot_id > local.robot_id:
            # default: the entry written by the highest robot id wins
            value, robot = copy_value(remote_msg.value), remote_msg.robot_id
        else:
            value, robot = local.value, local.robot_id
        winner = VstigPut(self.vstig_id, key, value, ts, robot)
        self.entries[key] = winner
        local_lost = not (robot == local.robot_id and
                          value_eq(value, local.value))
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


def _m_put(vm, _env, handle, *args):
    if type(handle) is not VStigHandle:
        raise wrong_receiver(handle, "put")
    if len(args) != 2:
        raise VmRuntimeError("put expects (key, value)")
    key, value = args
    _check_wire(key, "key")
    _check_wire(value, "value")
    vstig = vm.vstig_map(handle.vstig_id)
    enqueue_vstig_message(vm.out_queue,
                          vstig.local_put(key, value, vm.robot_id))


def _m_get(vm, _env, handle, *args):
    if type(handle) is not VStigHandle:
        raise wrong_receiver(handle, "get")
    if len(args) != 1:
        raise VmRuntimeError("get expects (key)")
    _check_wire(args[0], "key")
    vstig = vm.vstig_map(handle.vstig_id)
    value, msg = vstig.local_get(args[0])
    enqueue_vstig_message(vm.out_queue, msg)
    return coerce(value)


def _m_size(vm, _env, handle, *args):
    if type(handle) is not VStigHandle:
        raise wrong_receiver(handle, "size")
    return vm.vstig_map(handle.vstig_id).size()


def _m_onconflict(vm, _env, handle, *args):
    if type(handle) is not VStigHandle:
        raise wrong_receiver(handle, "onconflict")
    vm.vstig_map(handle.vstig_id).onconflict = require_closure(
        args[0] if args else None, "onconflict")


def _m_onconflictlost(vm, _env, handle, *args):
    if type(handle) is not VStigHandle:
        raise wrong_receiver(handle, "onconflictlost")
    vm.vstig_map(handle.vstig_id).onconflictlost = require_closure(
        args[0] if args else None, "onconflictlost")


VStigHandle.METHODS = {
    "put": NativeClosure(_m_put, None),
    "get": NativeClosure(_m_get, None),
    "size": NativeClosure(_m_size, None),
    "onconflict": NativeClosure(_m_onconflict, None),
    "onconflictlost": NativeClosure(_m_onconflictlost, None),
}


def _f_create(vm, _env, _self, *args):
    if not args or type(args[0]) is not int:
        raise VmRuntimeError("stigmergy.create expects an integer id")
    vstig_id = args[0]
    if not 0 <= vstig_id < 2 ** 16:
        raise VmRuntimeError(f"stigmergy id {vstig_id} out of range")
    return vm.vstig_map(vstig_id).handle


FACTORY_METHODS = {
    "create": NativeClosure(_f_create, None),
}
