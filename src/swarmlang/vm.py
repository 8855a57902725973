"""Stack-based virtual machine executing one robot's bytecode image.

A step runs the five-phase cycle: the host writes sensor state before the
call (phase 1), `step(inbox)` ingests messages into the neighbor, swarm
and stigmergy subsystems (phase 2), executes the script (phase 3: the
whole top level on the first step, then `init` once, then `step` each
step), drains the outbound queue up to the payload budget preserving
order (phase 4), and returns the actuation snapshot collected from
actuator bindings (phase 5).

Runtime errors fault the VM: the error (with source position recovered
from the image debug map) is stored and every later step is a no-op.

The script runs as Python: the first VM on an image has each function of
its verified program translated into one Python function
(`BytecodeImage.main`, `translate.py`), which every VM on the image
shares.  docs/bytecode.md, "Execution", states the invariants of that
translation: slots as Python locals, exact fuel, the frame depth count,
fault positions, direct calls and quickened built-in calls.
"""

import builtins
import sys
from dataclasses import dataclass

from .errors import VmError, VmRuntimeError, WireError
from .mathlib import METHODS as MATH_METHODS
from .neighbors import make_view, record_table
from .swarms import FACTORY_METHODS as SWARM_FACTORY
from .swarms import SwarmRegistry, enqueue_swarm_message
from .translate import call_closure
from .values import NativeClosure, Table, coerce, copy_value, to_display
from .vstig import FACTORY_METHODS as VSTIG_FACTORY
from .vstig import VStigMap, enqueue_vstig_message
from .wire import (Announce, Broadcast, SwarmJoin, SwarmLeave, SwarmList,
                   VstigGet, VstigPut, encode_message)


@dataclass
class VmConfig:
    payload_budget: int = 200        # bytes sent per step
    max_frames: int = 200
    instruction_budget: int = 5_000_000  # per step; guards runaway loops


@dataclass
class SentMessage:
    message: object
    raw: bytes


# Python frames per script level, at worst: a built-in that calls back
# into the script (`neighbors.reduce`, swarm `exec`) calls its callback's
# code itself, so it puts only itself between two generated functions.
# `python tests/test_vm.py` measures each chain, and its tests check
# that the dearest costs exactly this.  A VM refuses a
# max_frames whose levels would leave fewer than HOST_FRAMES of the
# interpreter's recursion limit to the host's own stack, so a script's
# recursion ends in "stack overflow", not in RecursionError.
FRAMES_PER_LEVEL = 2
HOST_FRAMES = 250


def _hc_print(vm, _env, _self, *args):
    vm.print_sink("".join(to_display(a) for a in args))


def _view_of(inbox):
    # one record per sender heard; a sender heard twice keeps its last
    return make_view({rid: record_table(distance, azimuth, elevation)
                      for rid, distance, azimuth, elevation, _ in inbox})


class Vm:
    def __init__(self, image, robot_id, config=None, print_sink=None):
        if type(robot_id) is not int or not 0 <= robot_id < 2 ** 32:
            raise VmError(f"robot id must be a u32, got {robot_id!r}")
        self.image = image
        self.main = image.main  # the first VM on an image translates it
        self.robot_id = robot_id
        announce = Announce()
        self._announce = SentMessage(announce,
                                     encode_message(robot_id, announce))
        self._head = self._announce.raw[:4]  # envelope head: the sender id
        self._broadcasts = {}  # key -> its last non-table Broadcast
        self.config = config or VmConfig()
        levels = (sys.getrecursionlimit() - HOST_FRAMES) // FRAMES_PER_LEVEL
        if self.config.max_frames > levels:
            raise VmError(f"max_frames {self.config.max_frames} needs more "
                          f"Python frames than the recursion limit allows "
                          f"(at most {levels})")
        self.print_sink = print_sink or builtins.print

        self.globals = {}
        self.depth = 0  # script functions running; see config.max_frames
        self.swarm_stack = []
        self.step_count = 0
        self.faulted = None
        self.out_queue = {}  # slot -> message, oldest first (docs/wire.md)
        self.actuation = {}
        self.listeners = {}
        self._fuel = 0
        self._destroyed = False

        self.swarm_registry = SwarmRegistry()
        self._vstigs = {}
        # whether `_ingest` builds the view for the script (see there)
        self._names_neighbors = "neighbors" in image.global_names
        self._view = make_view({})
        self._heard = None  # the inbox of a view not built yet

        self.globals["id"] = robot_id
        self.globals["math"] = Table(dict(MATH_METHODS))
        self.globals["print"] = NativeClosure(_hc_print, None)
        self.globals["swarm"] = Table(dict(SWARM_FACTORY))
        self.globals["stigmergy"] = Table(dict(VSTIG_FACTORY))
        self.globals["neighbors"] = self._view
        self.builtin_names = set(self.globals)

    # --- host API -----------------------------------------------------

    def register_function(self, name, fn, actuator=False):
        """Expose a host function to the script as a global closure.

        `fn(vm, args)` may return a value (None becomes nil, a bool an
        int).  With
        actuator=True each call is recorded in the per-step actuation
        snapshot.  Must be called before the first step.
        """
        if self.step_count != 0:
            raise VmError("host functions must be registered before the "
                          "first step")
        if name in self.globals:
            raise VmError(f"global '{name}' already exists")

        def call(vm, _env, _self, *args):
            if actuator:
                vm.actuation[name] = args
            return coerce(fn(vm, list(args)))

        self.globals[name] = NativeClosure(call, None)
        self.builtin_names.add(name)

    def set_table(self, name, entries):
        """(Re)bind global `name` to a fresh table built from entries."""
        t = Table()
        for key, value in entries:
            t.set(coerce(key), coerce(value))
        self.globals[name] = t

    def set_global(self, name, value):
        self.globals[name] = coerce(value)

    def get_global(self, name):
        if name == "neighbors":
            self.neighbor_view  # binds the step's view unless rebound
        return self.globals.get(name)

    @property
    def neighbor_view(self):
        """The neighbor view of the last step: every sender it heard."""
        if self._heard is not None:
            view = _view_of(self._heard)
            if self.globals.get("neighbors") is self._view:  # not rebound
                self.globals["neighbors"] = view
            self._view, self._heard = view, None
        return self._view

    def script_globals(self):
        """Globals created by the script (builtins and bindings excluded)."""
        return {k: v for k, v in self.globals.items()
                if k not in self.builtin_names}

    def call_function(self, name, args=()):
        """Call a script global by name; the host-facing entry point."""
        if self.faulted:
            raise VmError(f"VM is faulted: {self.faulted}")
        fn = self.globals.get(name)
        if not isinstance(fn, NativeClosure):
            raise VmError(f"global '{name}' is not a closure")
        if self.depth == 0:  # not a call back mid-step, so a full budget
            self._fuel = self.config.instruction_budget
        return self.call_value(fn, [coerce(a) for a in args])

    def destroy(self):
        """Run the script's `destroy` entry point, if any, once."""
        if self._destroyed or self.faulted:
            return
        self._destroyed = True
        if isinstance(self.globals.get("destroy"), NativeClosure):
            self.call_function("destroy")

    # --- protocol plumbing ---------------------------------------------

    def vstig_map(self, vstig_id):
        if vstig_id not in self._vstigs:
            self._vstigs[vstig_id] = VStigMap(vstig_id)
        return self._vstigs[vstig_id]

    def enqueue_broadcast(self, msg):
        # one queued message per key; the most recent wins and goes last.
        # A table value is copied, so later changes to it stay local.  A
        # value that is the very object of the key's last Broadcast (never
        # a table) queues that Broadcast again, with the bytes `_drain`
        # kept on it (`encoded`, see wire.py): the same object has the
        # same bytes
        value = msg.value
        if type(value) is Table:
            msg = Broadcast(msg.key, copy_value(value))
        else:
            last = self._broadcasts.get(msg.key)
            if last is not None and last.value is value:
                msg = last
            else:
                self._broadcasts[msg.key] = msg
        slot = ("bcast", msg.key)
        self.out_queue.pop(slot, None)
        self.out_queue[slot] = msg

    # --- the step cycle --------------------------------------------------

    def step(self, inbox=()):
        """Run one VM step; returns (outbox, actuation snapshot).

        The VM may keep `inbox` until its next step and build the step's
        neighbor view from it when the host reads the view, so the host
        must not change the list or its records until then.
        """
        if self.faulted:
            return [], {}
        self.step_count += 1
        self._fuel = self.config.instruction_budget
        self.actuation = {}
        try:
            self._ingest(inbox)
            self._execute()
        except VmRuntimeError as exc:
            self.faulted = exc
            return [], {}
        outbox = self._drain()
        snapshot = self.actuation
        self.actuation = {}
        return outbox, snapshot

    def _ingest(self, inbox):
        # phase 2: a new neighbor view of every sender heard this step,
        # then messages applied to the subsystems in arrival order.  Code
        # reaches the view only through the global `neighbors`.  Where the
        # image names it, the view is built now and the VM keeps no
        # reference to the inbox, so the step's records are freed with it
        # (kept to the next step, they slow the collector's passes);
        # otherwise no record is built unless the host reads the view
        if self._names_neighbors:
            self._view = self.globals["neighbors"] = _view_of(inbox)
        else:
            self._heard = inbox
            self.globals["neighbors"] = self._view  # until the view is built

        for msg in self.swarm_registry.on_step(self.step_count):
            enqueue_swarm_message(self.out_queue, msg)

        # exact wire types; an ANNOUNCE carries nothing more, and a message
        # of any other type is ignored
        vstigs = self._vstigs
        queue = self.out_queue
        listeners = self.listeners
        for sender_id, _, _, _, msgs in inbox:
            for msg in msgs:
                kind = type(msg)
                if kind is Announce:
                    continue
                if kind is VstigPut or kind is VstigGet:
                    vstig = vstigs.get(msg.vstig_id)
                    if vstig is not None:
                        # the same writer at the same clock: merge's no-op
                        local = vstig.entries.get(msg.key)
                        if (local is not None
                                and local.timestamp == msg.timestamp
                                and local.robot_id == msg.robot_id):
                            continue
                        out = vstig.merge(msg, self)
                        if out is not None:
                            enqueue_vstig_message(queue, out)
                elif kind is Broadcast:
                    listener = listeners.get(msg.key)
                    if listener is not None:
                        # a table is copied; a scalar is shared as decoded
                        value = msg.value
                        if type(value) is Table:
                            value = copy_value(value)
                        listener.code(self, listener.env, None, msg.key,
                                      value, sender_id)
                elif (kind is SwarmJoin or kind is SwarmLeave
                      or kind is SwarmList):
                    self.swarm_registry.handle_message(sender_id, msg)

    def _execute(self):
        # phase 3
        if self.step_count == 1:
            self.main(self, ())
            init = self.globals.get("init")
            if isinstance(init, NativeClosure):
                self.call_value(init, [])
        step_fn = self.globals.get("step")
        if isinstance(step_fn, NativeClosure):
            self.call_value(step_fn, [])

    def _drain(self):
        # phase 4: longest prefix of [announce] + queue that fits
        budget = self.config.payload_budget - len(self._announce.raw)
        if budget < 0:
            return []
        outbox = [self._announce]
        head = self._head
        queue = self.out_queue
        sent = []
        try:
            for slot, msg in queue.items():
                encoded = msg.encoded
                if encoded is not None:
                    raw = head + encoded
                else:
                    raw = encode_message(self.robot_id, msg)
                    # only a queued Broadcast never changes: a LIST is
                    # edited in place (enqueue_swarm_message), and a
                    # stigmergy message may share a table with the script
                    if type(msg) is Broadcast:
                        msg.encoded = raw[4:]
                if len(raw) > budget:
                    break
                sent.append(slot)
                outbox.append(SentMessage(msg, raw))
                budget -= len(raw)
        except WireError as exc:
            self.faulted = VmRuntimeError(
                f"cannot serialize outbound message: {exc}")
        for slot in sent:  # one walk, then the deletes (not pop-first)
            del queue[slot]
        return outbox

    # --- script calls ----------------------------------------------------

    # Host code calls a closure value with a list of arguments through
    # here (stigmergy resolvers, `init`, `step`, `destroy`); it enters
    # the closure's `code` with no frame of its own in between.  Where a
    # frame per call counts (`_ingest`'s listeners, the neighbor
    # iterators, swarm `exec`) host code enters `fn.code(vm, fn.env,
    # self, *args)` itself, the same call for a script function or a
    # built-in.
    call_value = call_closure
