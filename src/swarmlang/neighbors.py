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
neighbor messaging: one queued message per key (most recent wins),
listeners fire during message ingestion the following step.
"""

from .errors import VmRuntimeError
from .values import (HostClosure, NativeClosure, Table, is_truthy,
                     is_wire_value, require_closure)
from .wire import Broadcast


def make_view(records):
    """Wrap {rid: payload} into a script-visible neighbor structure."""
    return Table(records, methods=VIEW_METHODS)


def record_table(distance, azimuth, elevation):
    return Table({"distance": distance, "azimuth": azimuth,
                  "elevation": elevation})


def _iter_sorted(view):
    return sorted(view.data.items())


# Each iterator calls a script closure's translated code itself, as
# `call_closure`'s first arm does but with no frame of its own between:
# the test is for the exact type, so any other callee (a host closure, a
# subclass) goes through `vm.call_value`.

def _m_foreach(vm, view, args):
    fn = require_closure(args[0] if args else None, "foreach")
    if type(fn) is NativeClosure:
        code, env = fn.code, fn.env
        for rid, data in _iter_sorted(view):
            code(vm, env, None, rid, data)
    else:
        for rid, data in _iter_sorted(view):
            vm.call_value(fn, [rid, data])


def _m_map(vm, view, args):
    fn = require_closure(args[0] if args else None, "map")
    out = {}
    if type(fn) is NativeClosure:
        code, env = fn.code, fn.env
        for rid, data in _iter_sorted(view):
            value = code(vm, env, None, rid, data)
            if value is not None:
                out[rid] = value
    else:
        for rid, data in _iter_sorted(view):
            value = vm.call_value(fn, [rid, data])
            if value is not None:
                out[rid] = value
    return make_view(out)


def _m_reduce(vm, view, args):
    if len(args) != 2:
        raise VmRuntimeError("reduce expects (closure, initial value)")
    fn = require_closure(args[0], "reduce")
    accum = args[1]
    if type(fn) is NativeClosure:
        code, env = fn.code, fn.env
        for rid, data in _iter_sorted(view):
            accum = code(vm, env, None, rid, data, accum)
    else:
        for rid, data in _iter_sorted(view):
            accum = vm.call_value(fn, [rid, data, accum])
    return accum


def _m_filter(vm, view, args):
    fn = require_closure(args[0] if args else None, "filter")
    out = {}
    if type(fn) is NativeClosure:
        code, env = fn.code, fn.env
        for rid, data in _iter_sorted(view):
            if is_truthy(code(vm, env, None, rid, data)):
                out[rid] = data
    else:
        for rid, data in _iter_sorted(view):
            if is_truthy(vm.call_value(fn, [rid, data])):
                out[rid] = data
    return make_view(out)


def _kin_split(vm, view, kin):
    if not vm.swarm_stack:
        raise VmRuntimeError("kin/nonkin outside a swarm exec call")
    return make_view(vm.swarm_registry.split(view.data, vm.swarm_stack[-1],
                                             kin))


def _m_kin(vm, view, args):
    return _kin_split(vm, view, True)


def _m_nonkin(vm, view, args):
    return _kin_split(vm, view, False)


def _m_count(vm, view, args):
    return len(view.data)


def _m_get(vm, view, args):
    if len(args) != 1:
        raise VmRuntimeError("get expects a robot id")
    return view.data.get(args[0])


def _m_broadcast(vm, view, args):
    if len(args) != 2 or type(args[0]) is not str:
        raise VmRuntimeError("broadcast expects (string key, value)")
    key, value = args
    if not is_wire_value(value):
        raise VmRuntimeError("broadcast value must be an int, float, string,"
                             " or table of those")
    vm.enqueue_broadcast(Broadcast(key, value))


def _m_listen(vm, view, args):
    if len(args) != 2 or type(args[0]) is not str:
        raise VmRuntimeError("listen expects (string key, closure)")
    fn = require_closure(args[1], "listen")
    vm.listeners[args[0]] = fn


def _m_ignore(vm, view, args):
    if len(args) != 1 or type(args[0]) is not str:
        raise VmRuntimeError("ignore expects a string key")
    vm.listeners.pop(args[0], None)


VIEW_METHODS = {
    "foreach": HostClosure("foreach", _m_foreach),
    "map": HostClosure("map", _m_map),
    "reduce": HostClosure("reduce", _m_reduce),
    "filter": HostClosure("filter", _m_filter),
    "kin": HostClosure("kin", _m_kin),
    "nonkin": HostClosure("nonkin", _m_nonkin),
    "count": HostClosure("count", _m_count),
    "get": HostClosure("get", _m_get),
    "broadcast": HostClosure("broadcast", _m_broadcast),
    "listen": HostClosure("listen", _m_listen),
    "ignore": HostClosure("ignore", _m_ignore),
}
