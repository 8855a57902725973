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

Dispatch invariants of the interpreter loop (`Vm._run`):

- The running frame, its `ip` and its locals list are cached in Python
  locals.  `frame.ip` is written back only when a call leaves the loop
  (a script call switches frames, a host call may re-enter), on return,
  and when an error propagates, so the fault position is the instruction
  at `ip - 1` of the innermost frame.
- Fuel is exact: each source instruction costs one unit, charged and
  checked before it runs.  The remaining fuel lives in a local and is
  synced to `self._fuel` around every host call and on exit.
- Script-to-script calls push their frame inside the loop.  Host code
  enters the script only through `Vm.call_value` (listeners, `reduce` and
  the other neighbor methods, swarm and stigmergy callbacks, `init` and
  `step`), which runs a nested loop down to its own frame.
- The decoded `_Program` is built once per `BytecodeImage` object and
  kept by it (`image.program`), so every VM on that image shares it.
"""

import builtins
import math as _math
from dataclasses import dataclass

from .opcodes import (ADD, CALL, CALLM, DIV, DONE, DUP, EQ, FUNC, GLOAD,
                      GSTORE, GT, GTE, JFKEEP, JTKEEP, JUMP, JUMPF, LLOAD,
                      LSTORE, LT, LTE, MKCLOSURE, MKTABLE, MOD, MUL, NEG, NEQ,
                      NOP, NOT, OPERANDS, POP, POW, PUSHNIL, PUSHS, RET, RETN,
                      SUB, TGET, TSET, ULOAD, USTORE)
from .errors import VmError, VmRuntimeError, WireError
from .image import decode_instructions
from .neighbors import make_view, record_table
from .swarms import FACTORY_METHODS as SWARM_FACTORY
from .swarms import SwarmRegistry, enqueue_swarm_message
from .values import (HostClosure, NativeClosure, SwarmHandle, Table,
                     VStigHandle, arith_add, arith_div, arith_mod, arith_mul,
                     arith_neg, arith_pow, arith_sub, check_key, coerce,
                     copy_value, is_number, is_truthy, to_display, type_name,
                     value_eq, value_lt, value_lte)
from .vstig import FACTORY_METHODS as VSTIG_FACTORY
from .vstig import VStigMap, enqueue_vstig_message
from .wire import (Announce, Broadcast, SwarmJoin, SwarmLeave, SwarmList,
                   VstigGet, VstigPut, encode_message)


@dataclass
class VmConfig:
    payload_budget: int = 200        # bytes sent per step
    list_period: int = 10            # steps between SWARM_LIST refreshes
    forget_threshold: int = 50       # steps before neighbor info is dropped
    max_frames: int = 200
    instruction_budget: int = 5_000_000  # per step; guards runaway loops
    optimize_vstig_queue: bool = True    # off only for equivalence testing


@dataclass
class SentMessage:
    message: object
    raw: bytes


class _Program:
    """Image code decoded to an indexed list of (opcode, operand) pairs.

    Jump operands become instruction indices, string/const operands become
    the actual values, and MKCLOSURE operands become (entry, nparams,
    nlocals) prototypes, so the dispatch loop never touches the pools.
    An instruction without operands carries None, one with a single
    operand carries it bare, and ULOAD/USTORE carry (depth - 1, slot),
    the index of the captured frame in the closure's env.
    """

    def __init__(self, image):
        # holds no reference back to the image, which owns the program:
        # the pair is freed by reference counting, not the cycle collector
        raw = decode_instructions(image.code)
        off2idx = {offset: i for i, (offset, _, _) in enumerate(raw)}
        self.offsets = [offset for offset, _, _ in raw]
        headers = {}  # FUNC index -> (nparams, nlocals)
        for i, (offset, opcode, args) in enumerate(raw):
            if opcode == FUNC:
                headers[i] = args
        instrs = []
        for offset, opcode, args in raw:
            kinds = OPERANDS[opcode]
            vals = []
            for kind, arg in zip(kinds, args):
                if kind == "j":
                    if arg not in off2idx:
                        raise VmError(f"jump target {arg} is not an "
                                      "instruction boundary")
                    vals.append(off2idx[arg])
                elif kind == "s":
                    vals.append(image.strings[arg])
                elif kind == "c":
                    vals.append(image.consts[arg][1])
                else:
                    vals.append(arg)
            if opcode == MKCLOSURE:
                target = vals[0]
                if target not in headers:
                    raise VmError("closure target is not a function header")
                nparams, nlocals = headers[target]
                operand = (target + 1, nparams, nlocals)
            elif opcode == ULOAD or opcode == USTORE:
                operand = (vals[0] - 1, vals[1])
            elif len(vals) == 1:
                operand = vals[0]
            else:
                operand = tuple(vals) or None
            instrs.append((opcode, operand))
        self.instrs = instrs

    @classmethod
    def of(cls, image):
        """The image's program, decoded on first use and kept by the image."""
        if image.program is None:
            image.program = cls(image)
        return image.program


class _Frame:
    __slots__ = ("ip", "locals", "env", "base")

    def __init__(self, ip, locals_, env, base):
        self.ip = ip
        self.locals = locals_
        self.env = env
        self.base = base


def _hc_print(vm, _self, args):
    vm.print_sink("".join(to_display(a) for a in args))


def _num(args, i, name):
    if i >= len(args) or not is_number(args[i]):
        raise VmRuntimeError(f"math.{name} expects numeric arguments")
    return args[i]


_MATH_METHODS = {
    "sin": HostClosure("sin", lambda vm, s, a: _math.sin(_num(a, 0, "sin"))),
    "cos": HostClosure("cos", lambda vm, s, a: _math.cos(_num(a, 0, "cos"))),
    "min": HostClosure("min", lambda vm, s, a: min(_num(a, 0, "min"),
                                                   _num(a, 1, "min"))),
    "abs": HostClosure("abs", lambda vm, s, a: abs(_num(a, 0, "abs"))),
    "sqrt": HostClosure("sqrt", lambda vm, s, a: _sqrt(_num(a, 0, "sqrt"))),
}


def _sqrt(x):
    if x < 0:
        raise VmRuntimeError("math.sqrt of a negative number")
    return _math.sqrt(x)


class Vm:
    def __init__(self, image, robot_id, config=None, print_sink=None):
        if type(robot_id) is not int or not 0 <= robot_id < 2 ** 32:
            raise VmError(f"robot id must be a u32, got {robot_id!r}")
        self.image = image
        self.program = _Program.of(image)
        self.robot_id = robot_id
        self._announce = SentMessage(Announce(),
                                     encode_message(robot_id, Announce()))
        self.config = config or VmConfig()
        self.print_sink = print_sink or builtins.print

        self.globals = {}
        self.frames = []
        self.stack = []
        self.swarm_stack = []
        self.step_count = 0
        self.faulted = None
        self.out_queue = {}  # slot -> message, oldest first (docs/wire.md)
        self.actuation = {}
        self.listeners = {}
        self._fuel = 0
        self._destroyed = False

        self.swarm_registry = SwarmRegistry(self.config.list_period,
                                            self.config.forget_threshold)
        self._swarm_handles = {}
        self._vstigs = {}
        self._vstig_handles = {}
        self.neighbor_view = make_view({})

        self.globals["id"] = robot_id
        self.globals["math"] = Table(dict(_MATH_METHODS))
        self.globals["print"] = HostClosure("print", _hc_print)
        self.globals["swarm"] = Table(dict(SWARM_FACTORY))
        self.globals["stigmergy"] = Table(dict(VSTIG_FACTORY))
        self.globals["neighbors"] = self.neighbor_view
        self.builtin_names = set(self.globals)

    # --- host API -----------------------------------------------------

    def register_function(self, name, fn, actuator=False):
        """Expose a host function to the script as a global closure.

        `fn(vm, args)` may return a value (None becomes nil).  With
        actuator=True each call is recorded in the per-step actuation
        snapshot.  Must be called before the first step.
        """
        if self.step_count != 0:
            raise VmError("host functions must be registered before the "
                          "first step")
        if name in self.globals:
            raise VmError(f"global '{name}' already exists")

        def call(vm, _self, args):
            if actuator:
                vm.actuation[name] = tuple(args)
            return fn(vm, list(args))

        self.globals[name] = HostClosure(name, call)
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
        return self.globals.get(name)

    def script_globals(self):
        """Globals created by the script (builtins and bindings excluded)."""
        return {k: v for k, v in self.globals.items()
                if k not in self.builtin_names}

    def call_function(self, name, args=()):
        """Call a script global by name; the host-facing entry point."""
        if self.faulted:
            raise VmError(f"VM is faulted: {self.faulted}")
        fn = self.globals.get(name)
        if not isinstance(fn, (NativeClosure, HostClosure)):
            raise VmError(f"global '{name}' is not a closure")
        if self._fuel <= 0:
            self._fuel = self.config.instruction_budget
        return self.call_value(fn, [coerce(a) for a in args])

    def destroy(self):
        """Run the script's `destroy` entry point, if any, once."""
        if self._destroyed or self.faulted:
            return
        self._destroyed = True
        fn = self.globals.get("destroy")
        if isinstance(fn, (NativeClosure, HostClosure)):
            if self._fuel <= 0:
                self._fuel = self.config.instruction_budget
            self.call_value(fn, [])

    # --- protocol plumbing ---------------------------------------------

    def swarm_create(self, swarm_id, member=False):
        if not 0 <= swarm_id < 2 ** 16:
            raise VmRuntimeError(f"swarm id {swarm_id} out of range")
        self.swarm_registry.create(swarm_id)
        handle = self._swarm_handles.get(swarm_id)
        if handle is None:
            handle = SwarmHandle(swarm_id)
            self._swarm_handles[swarm_id] = handle
        if member:
            self.swarm_set_membership(swarm_id, True)
        return handle

    def swarm_set_membership(self, swarm_id, member):
        msg = self.swarm_registry.set_membership(swarm_id, member)
        if msg is not None:
            enqueue_swarm_message(self.out_queue, msg)

    def vstig_create(self, vstig_id):
        if not 0 <= vstig_id < 2 ** 16:
            raise VmRuntimeError(f"stigmergy id {vstig_id} out of range")
        if vstig_id not in self._vstigs:
            self._vstigs[vstig_id] = VStigMap(vstig_id)
            self._vstig_handles[vstig_id] = VStigHandle(vstig_id)
        return self._vstig_handles[vstig_id]

    def vstig_map(self, vstig_id):
        if vstig_id not in self._vstigs:
            self._vstigs[vstig_id] = VStigMap(vstig_id)
        return self._vstigs[vstig_id]

    def enqueue_vstig(self, msg):
        if self.config.optimize_vstig_queue:
            enqueue_vstig_message(self.out_queue, msg)
        else:
            self.out_queue[("vstig", object())] = msg  # a slot of its own

    def enqueue_broadcast(self, msg):
        # one queued message per key; the most recent wins and goes last
        slot = ("bcast", msg.key)
        self.out_queue.pop(slot, None)
        self.out_queue[slot] = Broadcast(msg.key, copy_value(msg.value))

    # --- the step cycle --------------------------------------------------

    def step(self, inbox=()):
        """Run one VM step; returns (outbox, actuation snapshot)."""
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
        # phase 2: rebuild the neighbor view from every sender heard this
        # step, then apply messages to the subsystems in arrival order
        last = {}  # sender -> its last message, in first-heard order
        for sm in inbox:
            last[sm.sender_id] = sm
        self.neighbor_view = make_view({
            rid: record_table(sm.distance, sm.azimuth, sm.elevation)
            for rid, sm in last.items()})
        self.globals["neighbors"] = self.neighbor_view

        for msg in self.swarm_registry.on_step(self.step_count):
            enqueue_swarm_message(self.out_queue, msg)

        for sm in inbox:
            msg = sm.message
            if isinstance(msg, (SwarmJoin, SwarmLeave, SwarmList)):
                self.swarm_registry.handle_message(sm.sender_id, msg)
            elif isinstance(msg, VstigPut):
                vstig = self._vstigs.get(msg.vstig_id)
                if vstig is not None:
                    for out in vstig.on_put(msg, self):
                        self.enqueue_vstig(out)
            elif isinstance(msg, VstigGet):
                vstig = self._vstigs.get(msg.vstig_id)
                if vstig is not None:
                    for out in vstig.on_get(msg, self):
                        self.enqueue_vstig(out)
            elif isinstance(msg, Broadcast):
                listener = self.listeners.get(msg.key)
                if listener is not None:
                    self.call_value(listener, [msg.key,
                                               copy_value(msg.value),
                                               sm.sender_id])

    def _execute(self):
        # phase 3
        if self.step_count == 1:
            self._run_toplevel()
            init = self.globals.get("init")
            if isinstance(init, (NativeClosure, HostClosure)):
                self.call_value(init, [])
        step_fn = self.globals.get("step")
        if isinstance(step_fn, (NativeClosure, HostClosure)):
            self.call_value(step_fn, [])

    def _drain(self):
        # phase 4: longest prefix of [announce] + queue that fits
        budget = self.config.payload_budget - len(self._announce.raw)
        if budget < 0:
            return []
        outbox = [self._announce]
        queue = self.out_queue
        sent = []
        try:
            for slot, msg in queue.items():
                raw = encode_message(self.robot_id, msg)
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

    # --- interpreter ------------------------------------------------------

    def _run_toplevel(self):
        root = _Frame(0, [None], (), len(self.stack))
        self.frames.append(root)
        self._run(len(self.frames) - 1)

    def call_value(self, fn, args, self_val=None):
        """Synchronously call a closure value; returns its result.

        Every entry from host code into the script comes through here.
        """
        floor = len(self.frames)
        stack_floor = len(self.stack)
        try:
            if isinstance(fn, NativeClosure):
                self._push_frame(fn, self_val, args)
                self._run(floor)
                return self.stack.pop()
            if isinstance(fn, HostClosure):
                return coerce(fn.fn(self, self_val, args))
            raise VmRuntimeError(f"called a {type_name(fn)} value")
        except BaseException:
            del self.frames[floor:]
            del self.stack[stack_floor:]
            raise

    def _push_frame(self, fn, self_val, args):
        # the CALL/CALLM arm of _run builds the same frame in place
        if len(self.frames) >= self.config.max_frames:
            raise VmRuntimeError("stack overflow")
        locals_ = [None] * max(fn.nlocals, len(args) + 1)
        locals_[0] = self_val
        take = min(len(args), fn.nparams)
        locals_[1:take + 1] = args[:take]
        self.frames.append(_Frame(fn.entry, locals_, fn.env,
                                  len(self.stack)))

    def _run(self, floor):
        # Run frames until the one at index `floor` returns.  The running
        # frame's ip and locals live in Python locals (see the module
        # docstring); the handler at the end reports errors at ip - 1.
        frames = self.frames
        stack = self.stack
        push = stack.append
        pop = stack.pop
        instrs = self.program.instrs
        globals_ = self.globals
        max_frames = self.config.max_frames
        fuel = self._fuel
        frame = frames[-1]
        ip = frame.ip
        locals_ = frame.locals
        try:
            while True:
                opcode, arg = instrs[ip]
                ip += 1
                fuel -= 1
                if fuel <= 0:
                    raise VmRuntimeError("instruction budget exceeded")

                # arms in measured order of frequency
                if opcode == LLOAD:
                    push(locals_[arg])
                elif PUSHNIL <= opcode <= PUSHS:
                    push(arg)  # PUSHNIL carries None
                elif opcode == TGET:
                    key = pop()
                    obj = pop()
                    if type(obj) is Table and type(key) is str:
                        value = obj.data.get(key)
                        if value is None and obj.methods is not None:
                            value = obj.methods.get(key)
                        push(value)
                    else:
                        push(_index(obj, key))
                elif opcode == GLOAD:
                    push(globals_.get(arg))
                elif opcode == DUP:
                    push(stack[-1])
                elif opcode == CALL or opcode == CALLM:
                    if arg:
                        call_args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        call_args = []
                    fn = pop()
                    self_val = pop() if opcode == CALLM else None
                    if isinstance(fn, NativeClosure):
                        # the frame _push_frame builds, without the call
                        if len(frames) >= max_frames:
                            raise VmRuntimeError("stack overflow")
                        frame.ip = ip
                        locals_ = [None] * max(fn.nlocals, arg + 1)
                        locals_[0] = self_val
                        take = min(arg, fn.nparams)
                        locals_[1:take + 1] = call_args[:take]
                        ip = fn.entry
                        frame = _Frame(ip, locals_, fn.env, len(stack))
                        frames.append(frame)
                    elif isinstance(fn, HostClosure):
                        # host code may re-enter call_value, which reads
                        # and leaves the remaining fuel in self._fuel
                        frame.ip = ip
                        self._fuel = fuel
                        result = fn.fn(self, self_val, call_args)
                        fuel = self._fuel
                        push(coerce(result))
                    else:
                        raise VmRuntimeError(
                            f"called a {type_name(fn)} value")
                elif opcode == ADD:
                    b = pop()
                    a = stack[-1]
                    if type(a) is float and type(b) is float:
                        stack[-1] = a + b
                    else:
                        stack[-1] = arith_add(a, b)
                elif opcode == MUL:
                    b = pop()
                    a = stack[-1]
                    if type(a) is float and type(b) is float:
                        stack[-1] = a * b
                    else:
                        stack[-1] = arith_mul(a, b)
                elif opcode == DIV:
                    b = pop()
                    a = stack[-1]
                    if type(a) is float and type(b) is float and b:
                        stack[-1] = a / b  # b == 0 raises on the slow path
                    else:
                        stack[-1] = arith_div(a, b)
                elif opcode == SUB:
                    b = pop()
                    a = stack[-1]
                    if type(a) is float and type(b) is float:
                        stack[-1] = a - b
                    else:
                        stack[-1] = arith_sub(a, b)
                elif opcode == POW:
                    b = pop()
                    stack[-1] = arith_pow(stack[-1], b)
                elif opcode == NEG:
                    stack[-1] = arith_neg(stack[-1])
                elif opcode == RET or opcode == RETN or opcode == DONE:
                    value = pop() if opcode == RET else None
                    done = frames.pop()
                    del stack[done.base:]
                    if opcode != DONE:
                        push(value)
                    if len(frames) <= floor:
                        break
                    frame = frames[-1]
                    ip = frame.ip
                    locals_ = frame.locals
                elif opcode == LSTORE:
                    locals_[arg] = pop()
                elif opcode == TSET:
                    value = pop()
                    key = pop()
                    obj = pop()
                    if not isinstance(obj, Table):
                        raise VmRuntimeError(
                            f"cannot write into a {type_name(obj)} value")
                    obj.set(key, value)
                elif opcode == GSTORE:
                    globals_[arg] = pop()
                elif opcode == POP:
                    pop()
                elif opcode == JUMPF:
                    if not is_truthy(pop()):
                        ip = arg
                elif opcode == JUMP:
                    ip = arg
                elif opcode == MKCLOSURE:
                    entry, nparams, nlocals = arg
                    push(NativeClosure(entry, nparams, nlocals,
                                       (locals_,) + frame.env))
                elif opcode == EQ:
                    b = pop()
                    stack[-1] = 1 if value_eq(stack[-1], b) else 0
                elif opcode == NEQ:
                    b = pop()
                    stack[-1] = 0 if value_eq(stack[-1], b) else 1
                elif opcode == LT:
                    b = pop()
                    stack[-1] = 1 if value_lt(stack[-1], b) else 0
                elif opcode == LTE:
                    b = pop()
                    stack[-1] = 1 if value_lte(stack[-1], b) else 0
                elif opcode == GT:
                    b = pop()
                    stack[-1] = 1 if value_lt(b, stack[-1]) else 0
                elif opcode == GTE:
                    b = pop()
                    stack[-1] = 1 if value_lte(b, stack[-1]) else 0
                elif opcode == NOT:
                    stack[-1] = 0 if is_truthy(stack[-1]) else 1
                elif opcode == MOD:
                    b = pop()
                    stack[-1] = arith_mod(stack[-1], b)
                elif opcode == JFKEEP:
                    if is_truthy(stack[-1]):
                        pop()
                    else:
                        ip = arg
                elif opcode == JTKEEP:
                    if is_truthy(stack[-1]):
                        ip = arg
                    else:
                        pop()
                elif opcode == ULOAD:
                    depth, slot = arg
                    push(frame.env[depth][slot])
                elif opcode == USTORE:
                    depth, slot = arg
                    frame.env[depth][slot] = pop()
                elif opcode == MKTABLE:
                    push(Table())
                elif opcode == NOP:
                    pass
                elif opcode == FUNC:
                    raise VmRuntimeError("fell through into a function body")
                else:  # pragma: no cover
                    raise VmRuntimeError(f"unknown opcode {opcode}")
        except BaseException as exc:
            frame.ip = ip
            self._fuel = fuel
            if isinstance(exc, VmRuntimeError) and exc.line is None:
                pos = self.image.position_at(self.program.offsets[ip - 1])
                if pos:
                    raise VmRuntimeError(exc.message, pos[1], pos[2],
                                         pos[0]) from None
            raise
        self._fuel = fuel


def _index(obj, key):
    """TGET on anything but a table indexed by a string."""
    if isinstance(obj, Table):
        check_key(key)
        return obj.get(key)
    if isinstance(obj, (SwarmHandle, VStigHandle)):
        return type(obj).METHODS.get(key) if type(key) is str else None
    raise VmRuntimeError(f"indexing a {type_name(obj)} value")

