"""Translation of a verified code section into Python functions.

Each region of the verifier's region table (the bootstrap and every
function body) becomes one Python function, generated as source text,
built with `compile()` by the image's first VM and shared by every VM on
the image:

    def fn(vm, env, l0=None, l1=None, ..., l<nparams>=None, *_)

`env` is the closure's tuple of captured locals lists (innermost
first), `l0` is `self` and l1..l<nparams> are the arguments: a missing
argument is nil and extra ones are dropped.  docs/bytecode.md,
"Execution", states what the generated code does and the invariants the
VM relies on: slots and locals, the block loop, fuel per segment, the
line table and its refunds, and the constants tuple `K`.
"""

import functools
import math

from .errors import VmRuntimeError
from .mathlib import METHODS as MATH_METHODS
from .neighbors import VIEW_METHODS
from .opcodes import (ADD, BRANCHES, CALL, CALLM, DIV, DONE, DUP, EQ, GLOAD,
                      GSTORE, GT, GTE, JFKEEP, JTKEEP, JUMP, JUMPF, LLOAD,
                      LSTORE, LT, LTE, MKCLOSURE, MKTABLE, MOD, MUL, NEG, NEQ,
                      NOP, NOT, POP, POW, PUSHC, PUSHI, PUSHNIL, PUSHS, RET,
                      RETN, SUB, TGET, TSET, ULOAD, USTORE)
from .values import (NativeClosure, SwarmHandle, Table, VStigHandle,
                     arith_add, arith_div, arith_mod, arith_mul, arith_neg,
                     arith_pow, arith_sub, check_key, type_name, value_eq,
                     value_lt, value_lte)


def call_closure(vm, fn, args, self_val=None):
    """Call closure value `fn` with the list `args`; returns its result.

    This is `Vm.call_value`, and the CALL of a value that is not exactly
    a NativeClosure (a subclass, or no closure at all).  Every closure,
    script function or built-in, is entered the same way, through its
    `code` and `env`.
    """
    if not isinstance(fn, NativeClosure):
        raise VmRuntimeError(f"called a {type_name(fn)} value")
    return fn.code(vm, fn.env, self_val, *args)


def _index(obj, key):
    """TGET on anything but a table indexed by a string."""
    if isinstance(obj, Table):
        check_key(key)
        return obj.get(key)
    if isinstance(obj, (SwarmHandle, VStigHandle)):
        return type(obj).METHODS.get(key) if type(key) is str else None
    raise VmRuntimeError(f"indexing a {type_name(obj)} value")


def _tset(obj, key, value):
    """TSET off the string-key fast path."""
    if not isinstance(obj, Table):
        raise VmRuntimeError(f"cannot write into a {type_name(obj)} value")
    obj.set(key, value)


def _unwind(vm, exc, fuel, lines):
    """Leave a generated function on error: sync fuel, attach a position.

    `lines` maps a line of the function to (code offset, refund), the
    refund being the fuel charged for the instructions of its segment
    after it, which did not run.  A line that calls a closure leaves the
    callee's exact fuel in `vm._fuel`, callbacks that a built-in ran
    included, and has refund None; anywhere else the
    function's own count plus the refund is the one to keep.
    """
    offset, refund = lines.get(exc.__traceback__.tb_lineno, (None, 0))
    if refund is not None:
        vm._fuel = fuel + refund
    if offset is not None and isinstance(exc, VmRuntimeError) \
            and exc.line is None:
        pos = vm.image.position_at(offset)
        if pos:
            raise VmRuntimeError(exc.message, pos[1], pos[2],
                                 pos[0]) from None


# the names generated code uses besides its own locals and K
_RUNTIME = {
    "NativeClosure": NativeClosure, "Table": Table, "VmRuntimeError": VmRuntimeError,
    "arith_add": arith_add, "arith_sub": arith_sub, "arith_mul": arith_mul,
    "arith_div": arith_div, "arith_mod": arith_mod, "arith_pow": arith_pow,
    "arith_neg": arith_neg, "value_eq": value_eq, "value_lt": value_lt,
    "value_lte": value_lte, "index": _index, "tset": _tset,
    "call_closure": call_closure, "unwind": _unwind,
    "cos": math.cos, "sin": math.sin,
}

_BUDGET = ("if (fuel := fuel - 1) <= 0: "
           "raise VmRuntimeError('instruction budget exceeded')")
_EXHAUSTED = "fuel -= 1; raise VmRuntimeError('instruction budget exceeded')"


def _float_fast(op, slow):
    return (f"{{t2}} = {{t2}} {op} {{t1}} if type({{t2}}) is float and "
            f"type({{t1}}) is float else {slow}({{t2}}, {{t1}})")


# The lines of each instruction, unchecked.  `push` is the slot
# it pushes to, t1, t2 and t3 the top three slots it finds; `const` is
# its operand's name in K, `local` and `up` its slot, `go` its jump and
# `falsy` the test that t1 is nil or integer 0.  CALL and CALLM also get
# the callee `f`, the receiver `self`, the result slot `out` and the
# arguments `args`; their first line calls a closure, script function or
# built-in alike, and their second anything else.  A line that hands
# `fuel` to a callee (`_HANDOFF`) has no refund (see `_unwind`).
_CODE = {
    NOP: [], POP: [],
    PUSHNIL: ["{push} = None"],
    PUSHI: ["{push} = {const}"],
    PUSHC: ["{push} = {const}"],
    PUSHS: ["{push} = {const}"],
    DUP: ["{push} = {t1}"],
    LLOAD: ["{push} = {local}"],
    LSTORE: ["{local} = {t1}"],
    GLOAD: ["{push} = G.get({const})"],
    GSTORE: ["G[{const}] = {t1}"],
    ULOAD: ["{push} = {up}"],
    USTORE: ["{up} = {t1}"],
    MKTABLE: ["{push} = Table()"],
    MKCLOSURE: ["{push} = NativeClosure({const}, (L,) + env)"],
    TGET: ["if type({t2}) is Table and type({t1}) is str:",
           "    t = {t2}.data.get({t1})",
           "    {t2} = {t2}.methods.get({t1}) if t is None and "
           "{t2}.methods is not None else t",
           "else: {t2} = index({t2}, {t1})"],
    TSET: ["if type({t3}) is Table and type({t2}) is str and {t1} is not "
           "None: {t3}.data[{t2}] = {t1}",
           "else: tset({t3}, {t2}, {t1})"],
    ADD: [_float_fast("+", "arith_add")],
    SUB: [_float_fast("-", "arith_sub")],
    MUL: [_float_fast("*", "arith_mul")],
    DIV: ["{t2} = {t2} / {t1} if type({t2}) is float and type({t1}) is "
          "float and {t1} else arith_div({t2}, {t1})"],
    MOD: ["{t2} = arith_mod({t2}, {t1})"],
    # a float to an int power is a float, or an ArithmeticError that
    # arith_pow reports as a power error
    POW: ["if type({t2}) is float and type({t1}) is int:",
          "    try: {t2} = {t2} ** {t1}",
          "    except ArithmeticError: {t2} = arith_pow({t2}, {t1})",
          "else: {t2} = arith_pow({t2}, {t1})"],
    NEG: ["{t1} = -{t1} if type({t1}) is float else arith_neg({t1})"],
    NOT: ["{t1} = 1 if {falsy} else 0"],
    EQ: ["{t2} = 1 if value_eq({t2}, {t1}) else 0"],
    NEQ: ["{t2} = 0 if value_eq({t2}, {t1}) else 1"],
    LT: ["{t2} = 1 if value_lt({t2}, {t1}) else 0"],
    LTE: ["{t2} = 1 if value_lte({t2}, {t1}) else 0"],
    GT: ["{t2} = 1 if value_lt({t1}, {t2}) else 0"],
    GTE: ["{t2} = 1 if value_lte({t1}, {t2}) else 0"],
    JUMP: ["{go}"],
    JUMPF: ["if {falsy}: {go}"],
    JFKEEP: ["if {falsy}: {go}"],
    JTKEEP: ["if not ({falsy}): {go}"],
    CALL: ["if type({f}) is NativeClosure: vm._fuel = fuel; "
           "{out} = {f}.code(vm, {f}.env, {self}{more}); fuel = vm._fuel",
           "else: vm._fuel = fuel; {out} = call_closure(vm, {f}, [{args}], "
           "{self}); fuel = vm._fuel"],
    RET: ["vm.depth = d; vm._fuel = fuel; return {t1}"],
    RETN: ["vm.depth = d; vm._fuel = fuel; return None"],
}
_CODE[CALLM] = _CODE[CALL]
_CODE[DONE] = _CODE[RETN]
_HANDOFF = "vm._fuel = fuel;"

# Quickened calls: (global, key, arity) -> (built-in, lines).  A CALLM
# of that arity on `global.key(...)`, its receiver read by a GLOAD of
# that name and its callee by a TGET under that PUSHS constant key, gets
# these lines as an arm before the call: when the callee is that very
# built-in and the receiver `self` and arguments a0, a1 have the exact
# types the arm tests, it runs the built-in's body inline, with no fuel
# sync or frame.  Anything else takes the call arms after it, so the
# guards decide what runs and the site only picks which built-in to test
# for.
_QUICK = {
    ("math", "min", 2): (MATH_METHODS["min"], [
        "if {f} is {quick} and type({a0}) is float and type({a1}) is "
        "float: {out} = {a1} if {a1} < {a0} else {a0}"]),
    ("neighbors", "get", 1): (VIEW_METHODS["get"], [
        "if {f} is {quick} and type({self}) is Table and type({a0}) is "
        "int:",
        "    {out} = {self}.data.get({a0})",
        "    if {out} is True or {out} is False: {out} = int({out})"]),
    # a finite angle (x - x is NaN for an infinity and for NaN)
    ("math", "cos", 1): (MATH_METHODS["cos"], [
        "if {f} is {quick} and type({a0}) is float and {a0} - {a0} == 0: "
        "{out} = cos({a0})"]),
    ("math", "sin", 1): (MATH_METHODS["sin"], [
        "if {f} is {quick} and type({a0}) is float and {a0} - {a0} == 0: "
        "{out} = sin({a0})"]),
}
# the instructions that end a segment: a call syncs fuel with its callee
_ENDS = BRANCHES | {CALL, CALLM, RET, RETN, DONE}


def translate(program):
    """The bootstrap of a verified Program as a Python function.

    The region table lists each region after the regions it creates, so
    a region's MKCLOSUREs find their functions already built.
    """
    instrs, offsets, depths = program.instrs, program.offsets, program.depths
    built = {}
    for start, end, nparams, nlocals in program.regions:
        source, consts, lines = _generate(instrs, depths, built, start, end,
                                          nparams, nlocals)
        consts.append({n: (offsets[i], refund) for n, (i, refund)
                       in lines.items()})
        fn = _factory(source)(tuple(consts))
        # regions of one shape share a factory, so each function gets its
        # own code object named after its region, which keeps profilers
        # (pstats keys by file, line and co_name) from merging them
        name = f"fn@{offsets[start]}"
        fn.__code__ = fn.__code__.replace(co_name=name)
        fn.__name__ = fn.__qualname__ = name
        built[start] = fn
    return built[0]


@functools.lru_cache(maxsize=512)
def _factory(source):
    namespace = dict(_RUNTIME)
    exec(compile(source, "<swarmlang>", "exec"), namespace)
    return namespace.pop("_mk")


def _generate(instrs, depths, built, start, end, nparams, nlocals):
    """(source, constants, line table) of the region [start, end).

    `built` maps the entry of each region it creates to its function.
    The line table maps a source line to (instruction index, refund), see
    `_unwind`.  The last constant, the line table with offsets, is appended
    by the caller as k<len(constants)>.
    """
    reach = [i for i in range(start, end) if depths[i] is not None]
    leaders, backward = set(), False
    for i in reach:
        opcode, arg = instrs[i]
        if opcode in BRANCHES:
            leaders.add(arg)
            backward = backward or arg <= i
            if opcode != JUMP:
                leaders.add(i + 1)
    boot = start == 0
    captures = any(instrs[i][0] == MKCLOSURE for i in reach)
    nparams = min(nparams, max(nlocals - 1, 0))
    consts = []
    lines = []
    where = {}  # line number -> (instruction index, refund)

    def const(value):
        consts.append(value)
        return f"k{len(consts) - 1}"

    # the _QUICK entry of each CALLM on `g.key(...)`, in one pass: a TGET
    # after the compiler's `GLOAD g; DUP; PUSHS key` records (g, key) for
    # the slot it fills, any other TGET clears its slot, and a CALLM takes
    # the record of its callee's slot.  The arm's guards decide what runs,
    # so a record only picks which built-in the arm tests for
    quickened, filled = {}, {}
    for i in reach:
        opcode, arg = instrs[i]
        if opcode == TGET:
            at, head = depths[i] - 2, instrs[i - 3:i]
            if [op for op, _ in head] == [GLOAD, DUP, PUSHS] and \
                    depths[i - 3] == at - 1:
                filled[at] = (head[0][1], head[2][1])
            else:
                filled.pop(at, None)
        elif opcode == CALLM:
            record = filled.pop(depths[i] - 1 - arg, None)
            if record is not None:
                quickened[i] = _QUICK.get((*record, arg))

    def code(i):
        opcode, arg = instrs[i]
        h = depths[i]
        texts = _CODE[opcode]
        t1 = f"s{h - 1}"
        fields = {"push": f"s{h}", "t1": t1, "t2": f"s{h - 2}",
                  "t3": f"s{h - 3}",
                  "falsy": f"{t1} is None or type({t1}) is int and {t1} == 0"}
        if opcode in (PUSHI, PUSHC, PUSHS, GLOAD, GSTORE):
            fields["const"] = const(arg)
        elif opcode == MKCLOSURE:
            fields["const"] = const(built[arg[0]])
        elif opcode == LLOAD or opcode == LSTORE:
            fields["local"] = f"L[{arg}]" if captures else f"l{arg}"
        elif opcode == ULOAD or opcode == USTORE:
            fields["up"] = f"e{arg[0]}[{arg[1]}]"
        elif opcode in BRANCHES:
            fields["go"] = f"b = {arg}" + ("; continue" if arg <= i else "")
        elif opcode == CALL or opcode == CALLM:
            at = h - 1 - arg  # the callee's slot; CALLM's receiver below
            args = ", ".join(f"s{k}" for k in range(at + 1, h))
            fields.update(f=f"s{at}", args=args, more=", " * bool(args) + args)
            if opcode == CALLM:
                fields.update(self=f"s{at - 1}", out=f"s{at - 1}")
                quick = quickened.get(i)
                if quick is not None:
                    fields.update(quick=const(quick[0]), a0=f"s{at + 1}",
                                  a1=f"s{at + 2}")
                    # the arm goes first, and the call's `if` becomes `elif`
                    texts = quick[1] + ["el" + texts[0]] + texts[1:]
            else:
                fields.update(self="None", out=f"s{at}")
        return [text.format(**fields) for text in texts]

    def emit(text, at):
        lines.append(text)
        where[len(lines)] = at

    params = ", ".join(f"l{k}=None" for k in range(nparams + 1))
    lines += ["def _mk(K):", None, f"    def fn(vm, env, {params}, *_):",
              "        d = vm.depth"]
    if not boot:
        lines.append("        if d >= vm.config.max_frames: "
                     "raise VmRuntimeError('stack overflow')")
    lines.append("        fuel = vm._fuel")
    if any(instrs[i][0] in (GLOAD, GSTORE) for i in reach):
        lines.append("        G = vm.globals")
    for depth in sorted({instrs[i][1][0] for i in reach
                         if instrs[i][0] in (ULOAD, USTORE)}):
        lines.append(f"        e{depth} = env[{depth}]")
    if captures:
        rest = max(nlocals, 1) - nparams - 1
        first = ", ".join(f"l{k}" for k in range(nparams + 1))
        lines.append(f"        L = [{first}]"
                     + (f" + [None] * {rest}" if rest > 0 else ""))
    else:
        others = sorted({instrs[i][1] for i in reach
                         if instrs[i][0] in (LLOAD, LSTORE)
                         and instrs[i][1] > nparams})
        if others:
            lines.append("        " + " = ".join(f"l{k}" for k in others)
                         + " = None")
    lines += ["        vm.depth = d + 1", "        try:"]
    pad = " " * 12
    if leaders:
        lines.append(f"{pad}b = {start}")
        if backward:
            lines.append(f"{pad}while True:")
            pad += "    "
    body = pad
    for segment in _segments(instrs, reach, leaders):
        first, n = segment[0], len(segment)
        if first in leaders or (leaders and first == reach[0]):
            lines.append(f"{pad}if b <= {first}:")
            body = pad + "    "
        codes = [code(i) for i in segment]
        # the checked copy runs only where the budget runs out, so its
        # last check always fails and the last instruction is not needed
        lines += [f"{body}if (fuel := fuel - {n}) <= 0:",
                  f"{body}    fuel += {n}"]
        for i, texts in zip(segment, codes[:-1]):
            for text in [_BUDGET] + texts:
                emit(f"{body}    {text}", (i, 0))
        emit(f"{body}    {_EXHAUSTED}", (segment[-1], 0))
        for j, (i, texts) in enumerate(zip(segment, codes)):
            call = instrs[i][0] == CALL or instrs[i][0] == CALLM
            for text in texts:
                emit(body + text, (i, None if call and _HANDOFF in text
                                   else n - j - 1))
    lines += ["        except BaseException as exc:",
              "            vm.depth = d",
              f"            unwind(vm, exc, fuel, k{len(consts)})",
              "            raise",
              "    return fn", ""]
    lines[1] = f"    {', '.join(f'k{n}' for n in range(len(consts) + 1))}, = K"
    return "\n".join(lines), consts, where


def _segments(instrs, reach, leaders):
    """The reachable instructions split into straight-line segments.

    A segment starts at a block leader and ends at the last instruction
    before the next one or at a call, a return or a branch: nothing but
    its last instruction can change fuel or leave it.
    """
    segment = []
    for i in reach:
        if segment and i in leaders:
            yield segment
            segment = []
        segment.append(i)
        if instrs[i][0] in _ENDS:
            yield segment
            segment = []
