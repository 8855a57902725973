"""Per-step neighbor view: spatial records plus functional operations.

The view is a table keyed by robot id whose entries are
{distance, azimuth, elevation} tables (distance in centimeters), one per
sender heard in the step's inbox.  Each step has a new view: the VM
builds it during the step when the image's code names `neighbors`, the
only way code reaches it, and otherwise on the host's first read
(`Vm.neighbor_view`).  foreach/map/reduce/filter iterate in ascending
robot id order so runs are reproducible; map and filter return detached
views with the same method set, and map leaves out an id mapped to nil
(a table holds no nil).  broadcast/listen/ignore implement key-based
neighbor messaging: one queued message per key (most recent wins, a
table value copied as it is queued), listeners fire during message
ingestion the following step.  Every method but broadcast, listen and
ignore reads its receiver and faults unless it is a table.
"""

from .errors import VmRuntimeError
from .values import (NativeClosure, Table, coerce, is_truthy,
                     is_wire_value, require_closure, wrong_receiver)
from .wire import Broadcast


def make_view(records):
    """Wrap {rid: payload} into a script-visible neighbor structure."""
    return Table(records, methods=VIEW_METHODS)


_new_table = Table.__new__


def record_table(distance, azimuth, elevation):
    # no `Table.__init__`, a Python frame per record: a view holds one
    # record per sender heard
    record = _new_table(Table)
    record.data = {"distance": distance, "azimuth": azimuth,
                   "elevation": elevation}
    record.methods = None
    return record


def _iter_sorted(view):
    return sorted(view.data.items())


def _m_foreach(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "foreach")
    fn = require_closure(args[0] if args else None, "foreach")
    code, env = fn.code, fn.env
    for rid, data in _iter_sorted(view):
        code(vm, env, None, rid, data)


def _m_map(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "map")
    fn = require_closure(args[0] if args else None, "map")
    code, env = fn.code, fn.env
    out = {}
    for rid, data in _iter_sorted(view):
        value = code(vm, env, None, rid, data)
        if value is not None:
            out[rid] = value
    return make_view(out)


def _m_reduce(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "reduce")
    if len(args) != 2:
        raise VmRuntimeError("reduce expects (closure, initial value)")
    fn = require_closure(args[0], "reduce")
    code, env = fn.code, fn.env
    accum = args[1]
    for rid, data in _iter_sorted(view):
        accum = code(vm, env, None, rid, data, accum)
    return coerce(accum)


def _m_filter(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "filter")
    fn = require_closure(args[0] if args else None, "filter")
    code, env = fn.code, fn.env
    out = {}
    for rid, data in _iter_sorted(view):
        if is_truthy(code(vm, env, None, rid, data)):
            out[rid] = data
    return make_view(out)


def _kin_split(vm, view, kin):
    if type(view) is not Table:
        raise wrong_receiver(view, "kin" if kin else "nonkin")
    if not vm.swarm_stack:
        raise VmRuntimeError("kin/nonkin outside a swarm exec call")
    return make_view(vm.swarm_registry.split(view.data, vm.swarm_stack[-1],
                                             kin))


def _m_kin(vm, _env, view, *args):
    return _kin_split(vm, view, True)


def _m_nonkin(vm, _env, view, *args):
    return _kin_split(vm, view, False)


def _m_count(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "count")
    return len(view.data)


def _m_get(vm, _env, view, *args):
    if type(view) is not Table:
        raise wrong_receiver(view, "get")
    if len(args) != 1:
        raise VmRuntimeError("get expects a robot id")
    return coerce(view.data.get(args[0]))


def _m_broadcast(vm, _env, view, *args):
    if len(args) != 2 or type(args[0]) is not str:
        raise VmRuntimeError("broadcast expects (string key, value)")
    key, value = args
    if not is_wire_value(value):
        raise VmRuntimeError("broadcast value must be an int, float, string,"
                             " or table of those")
    vm.enqueue_broadcast(Broadcast(key, value))


def _m_listen(vm, _env, view, *args):
    if len(args) != 2 or type(args[0]) is not str:
        raise VmRuntimeError("listen expects (string key, closure)")
    fn = require_closure(args[1], "listen")
    vm.listeners[args[0]] = fn


def _m_ignore(vm, _env, view, *args):
    if len(args) != 1 or type(args[0]) is not str:
        raise VmRuntimeError("ignore expects a string key")
    vm.listeners.pop(args[0], None)


VIEW_METHODS = {
    "foreach": NativeClosure(_m_foreach, None),
    "map": NativeClosure(_m_map, None),
    "reduce": NativeClosure(_m_reduce, None),
    "filter": NativeClosure(_m_filter, None),
    "kin": NativeClosure(_m_kin, None),
    "nonkin": NativeClosure(_m_nonkin, None),
    "count": NativeClosure(_m_count, None),
    "get": NativeClosure(_m_get, None),
    "broadcast": NativeClosure(_m_broadcast, None),
    "listen": NativeClosure(_m_listen, None),
    "ignore": NativeClosure(_m_ignore, None),
}
