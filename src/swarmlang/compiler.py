"""Single-pass compiler from AST to a relocatable object unit.

Name resolution: `var` declares a slot in the enclosing function (or the
top-level frame); parameters and `self` are slots too, so neither a
parameter nor a `var` may be named `self` and no parameter may be named
twice.  Anything else is a global: loads of unknown names yield nil at run
time, stores create the global.  Nested functions reach enclosing slots
through (depth, slot) upvalue instructions; frames are shared by reference,
so captured locals alias the originals.
"""

from dataclasses import dataclass, field

from . import opcodes as op
from . import parser as ast
from .errors import CompileError
from .image import MAX_LOCALS
from .parser import parse
from .values import INT64_MAX, INT64_MIN

INT32_MIN, INT32_MAX = -(2 ** 31), 2 ** 31 - 1
# a name's (global, local, upvalue) opcodes
_LOAD = (op.GLOAD, op.LLOAD, op.ULOAD)
_STORE = (op.GSTORE, op.LSTORE, op.USTORE)


class Label:
    """Opaque code position resolved at link time."""

    __slots__ = ("name",)

    def __init__(self, name=None):
        self.name = name

    def __repr__(self):
        return f"Label({self.name or hex(id(self))})"


@dataclass
class Instr:
    op: int
    args: tuple = ()
    line: int = 0
    col: int = 0


@dataclass
class LabelMark:
    """Zero-width marker binding a label to the next instruction."""
    label: Label


@dataclass
class ObjectUnit:
    """Compiled, unlinked code for one script.

    String operands are the strings themselves and constant operands are
    ("i"|"f", value) pairs; the linker alone builds the pools.
    """

    origin: str
    main: list = field(default_factory=list)      # top-level Instr/LabelMark
    funcs: list = field(default_factory=list)     # function body stream
    functions: dict = field(default_factory=dict)  # top-level name -> Label
    toplevel_nlocals: int = 1                     # top-level chunk slots


class _Scope:
    def __init__(self, parent, is_toplevel=False):
        self.parent = parent
        self.is_toplevel = is_toplevel
        self.slots = {"self": 0}

    def declare(self, name):
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def resolve(self, name):
        """(frames out, slot) of `name`, or None for a global."""
        depth = 0
        scope = self
        while scope is not None:
            if name in scope.slots:
                return depth, scope.slots[name]
            scope = scope.parent
            depth += 1
        return None


class Compiler:
    def __init__(self, origin="<script>"):
        self.unit = ObjectUnit(origin)
        self._pending = []  # (FuncExpr/FuncDef, scope, entry label)

    # --- emission ---

    def emit(self, out, opcode, *args, node=None):
        line = node.line if node is not None else 0
        col = node.col if node is not None else 0
        out.append(Instr(opcode, tuple(args), line, col))

    def mark(self, out, label):
        out.append(LabelMark(label))

    def error(self, msg, node):
        raise CompileError(msg, node.line, node.col, self.unit.origin)

    def declare(self, scope, name, node):
        slot = scope.declare(name)
        if slot >= MAX_LOCALS:
            self.error(f"more than {MAX_LOCALS} locals in one function",
                       node)
        return slot

    # --- top level ---

    def compile_program(self, stmts):
        scope = _Scope(None, is_toplevel=True)
        for stmt in stmts:
            self.compile_stmt(stmt, scope, self.unit.main)
        # function bodies are emitted after all top-level code
        while self._pending:
            node, defscope, entry = self._pending.pop(0)
            self.compile_function_body(node, defscope, entry)
        self.unit.toplevel_nlocals = len(scope.slots)
        return self.unit

    def compile_function_body(self, node, defscope, entry):
        out = self.unit.funcs
        scope = _Scope(defscope)
        for p in node.params:
            if p in scope.slots:  # `self` holds slot 0 already
                self.error("'self' cannot be a parameter" if p == "self"
                           else f"duplicate parameter '{p}'", node)
            self.declare(scope, p, node)
        nparams = len(node.params)
        self.mark(out, entry)
        header = Instr(op.FUNC, (nparams, 0), node.line, node.col)
        out.append(header)
        for stmt in node.body:
            self.compile_stmt(stmt, scope, out)
        last = out[-1]
        if not (isinstance(last, Instr) and last.op in (op.RET, op.RETN)):
            self.emit(out, op.RETN, node=node)
        header.args = (nparams, len(scope.slots))

    # --- statements ---

    def compile_stmt(self, stmt, scope, out):
        if isinstance(stmt, ast.Assign):
            self.compile_assign(stmt, scope, out)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.name == "self":
                self.error("cannot declare 'self'", stmt)
            slot = self.declare(scope, stmt.name, stmt)
            if stmt.value is not None:
                self.compile_expr(stmt.value, scope, out)
                self.emit(out, op.LSTORE, slot, node=stmt)
        elif isinstance(stmt, ast.If):
            self.compile_expr(stmt.cond, scope, out)
            l_else = Label()
            self.emit(out, op.JUMPF, l_else, node=stmt)
            self.compile_stmt(stmt.then, scope, out)
            if stmt.orelse is not None:
                l_end = Label()
                self.emit(out, op.JUMP, l_end, node=stmt)
                self.mark(out, l_else)
                self.compile_stmt(stmt.orelse, scope, out)
                self.mark(out, l_end)
            else:
                self.mark(out, l_else)
        elif isinstance(stmt, ast.While):
            l_start, l_end = Label(), Label()
            self.mark(out, l_start)
            self.compile_expr(stmt.cond, scope, out)
            self.emit(out, op.JUMPF, l_end, node=stmt)
            self.compile_stmt(stmt.body, scope, out)
            self.emit(out, op.JUMP, l_start, node=stmt)
            self.mark(out, l_end)
        elif isinstance(stmt, ast.FuncDef):
            entry = Label(stmt.name)
            self._pending.append((stmt, scope, entry))
            self.emit(out, op.MKCLOSURE, entry, node=stmt)
            self.compile_name(stmt.name, stmt, scope, out, _STORE)
            if scope.is_toplevel:
                if stmt.name in self.unit.functions:
                    self.error(f"duplicate function '{stmt.name}'", stmt)
                self.unit.functions[stmt.name] = entry
        elif isinstance(stmt, ast.Return):
            if scope.is_toplevel:
                self.error("'return' outside function", stmt)
            if stmt.value is not None:
                self.compile_expr(stmt.value, scope, out)
                self.emit(out, op.RET, node=stmt)
            else:
                self.emit(out, op.RETN, node=stmt)
        elif isinstance(stmt, ast.ExprStat):
            self.compile_expr(stmt.expr, scope, out)
            self.emit(out, op.POP, node=stmt)
        elif isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self.compile_stmt(s, scope, out)
        else:
            self.error(f"cannot compile statement {type(stmt).__name__}", stmt)

    def compile_assign(self, stmt, scope, out):
        target = stmt.target
        if isinstance(target, ast.Name):
            self.compile_expr(stmt.value, scope, out)
            self.compile_name(target.name, target, scope, out, _STORE)
        elif isinstance(target, ast.Index):
            self.compile_expr(target.obj, scope, out)
            self.compile_expr(target.key, scope, out)
            self.compile_expr(stmt.value, scope, out)
            self.emit(out, op.TSET, node=stmt)
        else:
            self.error("invalid assignment target", stmt)

    def compile_name(self, name, node, scope, out, ops):
        """Load (ops=_LOAD) or store (ops=_STORE) `name`: a slot of this
        function, one of an enclosing function, or a global."""
        if name == "self":
            if ops is _STORE:
                self.error("cannot assign to 'self'", node)
            if scope.is_toplevel:
                self.error("'self' outside method position", node)
        found = scope.resolve(name)
        global_op, local_op, up_op = ops
        if found is None:
            self.emit(out, global_op, name, node=node)
        elif found[0] == 0:
            self.emit(out, local_op, found[1], node=node)
        else:
            self.emit(out, up_op, *found, node=node)

    # --- expressions ---

    def compile_expr(self, node, scope, out):
        if isinstance(node, ast.NilLit):
            self.emit(out, op.PUSHNIL, node=node)
        elif isinstance(node, ast.IntLit):
            v = node.value
            if INT32_MIN <= v <= INT32_MAX:
                self.emit(out, op.PUSHI, v, node=node)
            elif INT64_MIN <= v <= INT64_MAX:
                self.emit(out, op.PUSHC, ("i", v), node=node)
            else:
                self.error("integer literal out of 64-bit range", node)
        elif isinstance(node, ast.FloatLit):
            self.emit(out, op.PUSHC, ("f", node.value), node=node)
        elif isinstance(node, ast.StrLit):
            self.emit(out, op.PUSHS, node.value, node=node)
        elif isinstance(node, ast.Name):
            self.compile_name(node.name, node, scope, out, _LOAD)
        elif isinstance(node, ast.BinOp):
            self.compile_binop(node, scope, out)
        elif isinstance(node, ast.UnOp):
            self.compile_expr(node.operand, scope, out)
            self.emit(out, op.NEG if node.op == "-" else op.NOT, node=node)
        elif isinstance(node, ast.Index):
            self.compile_expr(node.obj, scope, out)
            self.compile_expr(node.key, scope, out)
            self.emit(out, op.TGET, node=node)
        elif isinstance(node, ast.Call):
            self.compile_expr(node.fn, scope, out)
            for arg in node.args:
                self.compile_expr(arg, scope, out)
            self.emit(out, op.CALL, len(node.args), node=node)
        elif isinstance(node, ast.MethodCall):
            self.compile_expr(node.obj, scope, out)
            self.emit(out, op.DUP, node=node)
            self.compile_expr(node.key, scope, out)
            self.emit(out, op.TGET, node=node)
            for arg in node.args:
                self.compile_expr(arg, scope, out)
            self.emit(out, op.CALLM, len(node.args), node=node)
        elif isinstance(node, ast.TableLit):
            self.emit(out, op.MKTABLE, node=node)
            for name, value in node.pairs:
                self.emit(out, op.DUP, node=node)
                self.emit(out, op.PUSHS, name, node=node)
                self.compile_expr(value, scope, out)
                self.emit(out, op.TSET, node=node)
        elif isinstance(node, ast.FuncExpr):
            entry = Label()
            self._pending.append((node, scope, entry))
            self.emit(out, op.MKCLOSURE, entry, node=node)
        else:
            self.error(f"cannot compile expression {type(node).__name__}",
                       node)

    _ARITH = {"+": op.ADD, "-": op.SUB, "*": op.MUL, "/": op.DIV,
              "%": op.MOD, "^": op.POW, "==": op.EQ, "!=": op.NEQ,
              "<": op.LT, "<=": op.LTE, ">": op.GT, ">=": op.GTE}

    def compile_binop(self, node, scope, out):
        if node.op == "and":
            l_end = Label()
            self.compile_expr(node.left, scope, out)
            self.emit(out, op.JFKEEP, l_end, node=node)
            self.compile_expr(node.right, scope, out)
            self.mark(out, l_end)
        elif node.op == "or":
            l_end = Label()
            self.compile_expr(node.left, scope, out)
            self.emit(out, op.JTKEEP, l_end, node=node)
            self.compile_expr(node.right, scope, out)
            self.mark(out, l_end)
        else:
            self.compile_expr(node.left, scope, out)
            self.compile_expr(node.right, scope, out)
            self.emit(out, self._ARITH[node.op], node=node)


def compile_source(text, origin="<script>"):
    """Compile source text to an ObjectUnit."""
    stmts = parse(text, origin)
    return Compiler(origin).compile_program(stmts)
