"""The stack interpreter the VM ran before translation, kept as a model.

`ReferenceVm` is a `Vm` whose script code runs in the old dispatch loop
over `image.program.instrs`: one `_Frame` per script call, an operand
stack shared by all frames, `max_frames` checked against the frame list.
Everything else (ingest, queues, drain, host API) is the VM's own, so a
differential test that runs both on the same inputs checks the
translation alone (tests/test_translate.py).  Like `LevelWalk` in
test_parser_differential.py, it is test code: nothing in the package
uses it.
"""

from swarmlang.errors import VmRuntimeError
from swarmlang.opcodes import (ADD, CALL, CALLM, DIV, DONE, DUP, EQ, GLOAD,
                               GSTORE, GT, GTE, JFKEEP, JTKEEP, JUMP, JUMPF,
                               LLOAD, LSTORE, LT, LTE, MKCLOSURE, MKTABLE,
                               MOD, MUL, NEG, NEQ, NOP, NOT, POP, POW,
                               PUSHNIL, PUSHS, RET, RETN, SUB, TGET, TSET,
                               ULOAD, USTORE)
from swarmlang.values import (NativeClosure, SwarmHandle, Table,
                              VStigHandle, arith_add, arith_div, arith_mod,
                              arith_mul, arith_neg, arith_pow, arith_sub,
                              check_key, is_truthy, type_name, value_eq,
                              value_lt, value_lte)
from swarmlang.vm import Vm


class RefClosure(NativeClosure):
    """A script function as the interpreter saw it: an entry index.

    Host code enters it as any closure, `fn.code(vm, fn.env, self,
    *args)`; its `code` re-enters the interpreter through the VM's
    `call_value`.
    """

    __slots__ = ("entry", "nparams", "nlocals")

    def __init__(self, entry, nparams, nlocals, env):
        self.env = env
        self.entry = entry
        self.nparams = nparams
        self.nlocals = nlocals

    def code(self, vm, _env, self_val, *args):
        return vm.call_value(self, list(args), self_val)

    def __repr__(self):
        return f"RefClosure({self.entry})"


class _Frame:
    __slots__ = ("ip", "locals", "env", "base")

    def __init__(self, ip, locals_, env, base):
        self.ip = ip
        self.locals = locals_
        self.env = env
        self.base = base


class ReferenceVm(Vm):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = []
        self.stack = []

    def _execute(self):
        # phase 3
        if self.step_count == 1:
            self._run_toplevel()
            init = self.globals.get("init")
            if isinstance(init, NativeClosure):
                self.call_value(init, [])
        step_fn = self.globals.get("step")
        if isinstance(step_fn, NativeClosure):
            self.call_value(step_fn, [])

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
            if isinstance(fn, RefClosure):
                self._push_frame(fn, self_val, args)
                self._run(floor)
                return self.stack.pop()
            if isinstance(fn, NativeClosure):
                return fn.code(self, fn.env, self_val, *args)
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
        instrs = self.image.program.instrs
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
                    if isinstance(fn, RefClosure):
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
                    elif isinstance(fn, NativeClosure):
                        # a built-in may re-enter call_value, which reads
                        # and leaves the remaining fuel in self._fuel,
                        # also when a callback it ran faulted
                        frame.ip = ip
                        self._fuel = fuel
                        try:
                            result = fn.code(self, fn.env, self_val,
                                             *call_args)
                        finally:
                            fuel = self._fuel
                        push(result)
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
                    push(RefClosure(entry, nparams, nlocals,
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
        except BaseException as exc:
            frame.ip = ip
            self._fuel = fuel
            if isinstance(exc, VmRuntimeError) and exc.line is None:
                offset = self.image.program.offsets[ip - 1]
                pos = self.image.position_at(offset)
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
