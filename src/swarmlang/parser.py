"""Recursive descent parser producing a plain dataclass AST.

Statements are parsed by recursive descent, expressions by precedence
climbing: one table, OPERATORS, lists every operator with its level and
form, and `Parser.parse_expr` reads an operand and then each operator
after it that binds at least as tightly as its caller allows, recursing
once per operand rather than once per precedence level.

Statement separators are newlines or `;`.  Newlines are transparent inside
parentheses, brackets and table constructors, after a binary operator, and
before an `if`/`while` body or `else` clause; everywhere else they end the
current statement.
"""

from dataclasses import dataclass, field

from .errors import ParseError
from .lexer import tokenize


# --- AST ------------------------------------------------------------------

@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


@dataclass
class NilLit(Node):
    pass


@dataclass
class IntLit(Node):
    value: int


@dataclass
class FloatLit(Node):
    value: float


@dataclass
class StrLit(Node):
    value: str


@dataclass
class Name(Node):
    name: str


@dataclass
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass
class UnOp(Node):
    op: str  # "-" or "not"
    operand: Node


@dataclass
class Index(Node):
    obj: Node
    key: Node


@dataclass
class Call(Node):
    fn: Node
    args: list


@dataclass
class MethodCall(Node):
    obj: Node
    key: Node  # StrLit for dot access, arbitrary expr for t[k](...)
    args: list


@dataclass
class TableLit(Node):
    pairs: list  # [(name str, expr)]


@dataclass
class FuncExpr(Node):
    params: list
    body: list  # statements


@dataclass
class Assign(Node):
    target: Node  # Name | Index
    value: Node


@dataclass
class VarDecl(Node):
    name: str
    value: Node | None


@dataclass
class If(Node):
    cond: Node
    then: Node
    orelse: Node | None


@dataclass
class While(Node):
    cond: Node
    body: Node


@dataclass
class FuncDef(Node):
    name: str
    params: list
    body: list


@dataclass
class Return(Node):
    value: Node | None


@dataclass
class ExprStat(Node):
    expr: Node


@dataclass
class Block(Node):
    stmts: list


# Every operator, loosest level first: (form, token kind, operators).  A
# "left" or "right" level is a binary operator of that associativity; a
# right one reads its right operand one level up, so `2^-3` is `2^(-3)`.
# A "prefix" operator's operand holds only its own level and tighter ones:
# `not a == b` is `not (a == b)`, `-2^2` is `-(2^2)`, `a == not b` is an
# error.
OPERATORS = (
    ("left", "KEYWORD", {"or"}),
    ("left", "KEYWORD", {"and"}),
    ("prefix", "KEYWORD", {"not"}),
    ("left", "OP", {"==", "!=", "<", "<=", ">", ">="}),
    ("left", "OP", {"+", "-"}),
    ("left", "OP", {"*", "/", "%"}),
    ("prefix", "OP", {"-"}),
    ("right", "OP", {"^"}),
)
PREFIX = {(kind, o): level
          for level, (form, kind, ops) in enumerate(OPERATORS)
          for o in ops if form == "prefix"}
# a binary operator -> (its level, the level its right operand is read at)
BINARY = {(kind, o): (level, level + 1 if form == "left" else level - 1)
          for level, (form, kind, ops) in enumerate(OPERATORS)
          for o in ops if form != "prefix"}

# Deepest nesting a program may have.  A statement, an operand, a prefix
# operator and each link of a chain (the `+` of `a + b + c`, the `(1)` of
# `f(1)(1)`) is one level.  The levels of one program may cost parsing and
# compiling FRAME_BUDGET Python frames, which leaves the rest of CPython's
# default recursion limit of 1000 to the frames below them and to the
# caller's own stack.  The dearest level costs FRAMES_PER_LEVEL frames: a
# parenthesised operand or a table constructor (`parse_expr`,
# `parse_postfix`, `parse_primary`), or half a function literal; `python
# tests/test_parser.py` measures each shape.
FRAME_BUDGET = 600
FRAMES_PER_LEVEL = 3
MAX_NESTING = FRAME_BUDGET // FRAMES_PER_LEVEL


class Parser:
    def __init__(self, tokens, origin="<script>"):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.paren_depth = 0
        self.depth = 0  # nesting levels open; see MAX_NESTING

    # --- token helpers ---

    def peek(self):
        i = self.pos
        if self.paren_depth > 0:
            while self.tokens[i].kind == "NEWLINE":
                i += 1
        return self.tokens[i]

    def advance(self):
        if self.paren_depth > 0:
            while self.tokens[self.pos].kind == "NEWLINE":
                self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind, value=None):
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind, value=None, hint=None):
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            got = repr(tok.value) if tok.value is not None else tok.kind
            raise ParseError(f"unexpected {got}", tok.line, tok.col,
                             self.origin, hint or value or kind)
        return self.advance()

    def error(self, msg, tok=None, hint=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col, self.origin, hint)

    def nest(self, tok):
        """Open one nesting level at `tok`; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting too deep", tok,
                       f"at most {MAX_NESTING} levels")

    # --- statements ---

    def parse_statements(self, until_eof=False):
        stmts = []
        while True:
            while self.at("NEWLINE") or self.at("OP", ";"):
                self.advance()
            if until_eof and self.at("EOF"):
                return stmts
            if not until_eof and self.at("OP", "}"):
                return stmts
            if self.at("EOF"):
                self.error("unexpected end of input", hint="'}'")
            stmts.append(self.parse_statement())
            # a statement must be followed by a separator, '}' or EOF
            tok = self.peek()
            if tok.kind in ("NEWLINE", "EOF") or \
               (tok.kind == "OP" and tok.value in (";", "}")):
                continue
            self.error(f"unexpected {tok.value!r} after statement",
                       hint="newline or ';'")

    def parse_statement(self):
        tok = self.peek()
        self.nest(tok)
        if tok.kind == "KEYWORD" and tok.value in ("if", "while"):
            self.advance()
            self.expect("OP", "(", hint=f"'(' after {tok.value}")
            self.paren_depth += 1
            cond = self.parse_expr()
            self.paren_depth -= 1
            self.expect("OP", ")")
            self.skip_newlines()  # the body may start on the next line
            body = self.parse_statement()
            if tok.value == "while":
                stmt = While(cond, body, line=tok.line, col=tok.col)
            else:
                orelse = None
                # else may appear after newlines/comments
                mark = self.pos
                self.skip_newlines()
                if self.at("KEYWORD", "else"):
                    self.advance()
                    self.skip_newlines()
                    orelse = self.parse_statement()
                else:
                    self.pos = mark
                stmt = If(cond, body, orelse, line=tok.line, col=tok.col)
        elif tok.kind == "KEYWORD" and tok.value == "var":
            self.advance()
            name = self.expect("IDENT", hint="variable name")
            value = None
            if self.at("OP", "="):
                self.advance()
                value = self.parse_expr()
            stmt = VarDecl(name.value, value, line=tok.line, col=tok.col)
        elif tok.kind == "KEYWORD" and tok.value == "return":
            self.advance()
            nxt = self.peek()
            value = None
            if not (nxt.kind in ("NEWLINE", "EOF") or
                    (nxt.kind == "OP" and nxt.value in (";", "}"))):
                value = self.parse_expr()
            stmt = Return(value, line=tok.line, col=tok.col)
        elif tok.kind == "KEYWORD" and tok.value == "function" and \
                self.tokens[self.pos + 1].kind == "IDENT":
            self.advance()
            name = self.advance()
            params = self.parse_params()
            stmt = FuncDef(name.value, params, self.parse_func_body(),
                           line=tok.line, col=tok.col)
        elif tok.kind == "OP" and tok.value == "{":
            self.advance()
            body = self.parse_statements()
            self.expect("OP", "}")
            stmt = Block(body, line=tok.line, col=tok.col)
        else:  # assignment or expression statement
            expr = self.parse_expr()
            if self.at("OP", "="):
                if not isinstance(expr, (Name, Index)):
                    self.error("invalid assignment target")
                self.advance()
                value = self.parse_expr()
                stmt = Assign(expr, value, line=expr.line, col=expr.col)
            else:
                stmt = ExprStat(expr, line=expr.line, col=expr.col)
        self.depth -= 1
        return stmt

    def skip_newlines(self):
        while self.tokens[self.pos].kind == "NEWLINE":
            self.pos += 1

    def parse_params(self):
        self.expect("OP", "(", hint="parameter list")
        params = []
        self.paren_depth += 1
        if not self.at("OP", ")"):
            while True:
                params.append(self.expect("IDENT", hint="parameter name").value)
                if self.at("OP", ","):
                    self.advance()
                    continue
                break
        self.paren_depth -= 1
        self.expect("OP", ")")
        return params

    def parse_func_body(self):
        self.skip_newlines()
        self.expect("OP", "{", hint="function body")
        saved = self.paren_depth
        self.paren_depth = 0
        body = self.parse_statements()
        self.paren_depth = saved
        self.expect("OP", "}")
        return body

    # --- expressions ---

    def parse_expr(self, level=0):
        """An operand and each operator after it of `level` or tighter:
        precedence climbing over OPERATORS, one Python frame per operand."""
        self.skip_newlines()  # operand position: newlines never end it
        tok = self.peek()
        depth = self.depth
        self.nest(tok)  # the operand, or its prefix operator
        prefix = PREFIX.get((tok.kind, tok.value), -1)
        if prefix >= level:
            self.advance()
            left = UnOp(tok.value, self.parse_expr(prefix), line=tok.line,
                        col=tok.col)
        else:
            left = self.parse_postfix()
        chain = None  # the level whose operators' nesting levels are open
        while True:
            tok = self.peek()
            op_level, right_level = BINARY.get((tok.kind, tok.value), (-1, 0))
            if op_level < level:
                self.depth = depth
                return left
            self.advance()
            if chain != op_level:  # close the operand's or a tighter chain's
                chain, self.depth = op_level, depth
            self.nest(tok)  # the tree deepens by one level per operator
            right = self.parse_expr(right_level)
            left = BinOp(tok.value, left, right, line=tok.line, col=tok.col)

    def parse_postfix(self):
        expr = self.parse_primary()
        depth = self.depth
        while True:
            tok = self.peek()
            if tok.kind != "OP" or tok.value not in (".", "[", "("):
                self.depth = depth
                return expr
            self.nest(tok)  # the tree deepens by one level per link
            if tok.value == ".":
                self.advance()
                name = self.expect("IDENT", hint="member name")
                key = StrLit(name.value, line=name.line, col=name.col)
                if self.at("OP", "("):
                    expr = MethodCall(expr, key, self.parse_args(),
                                      line=name.line, col=name.col)
                else:
                    expr = Index(expr, key, line=name.line, col=name.col)
            elif tok.value == "[":
                self.advance()
                self.paren_depth += 1
                key = self.parse_expr()
                self.paren_depth -= 1
                self.expect("OP", "]")
                if self.at("OP", "("):
                    args = self.parse_args()
                    expr = MethodCall(expr, key, args, line=tok.line,
                                      col=tok.col)
                else:
                    expr = Index(expr, key, line=tok.line, col=tok.col)
            else:
                args = self.parse_args()
                expr = Call(expr, args, line=tok.line, col=tok.col)

    def parse_args(self):
        self.expect("OP", "(")
        args = []
        self.paren_depth += 1
        if not self.at("OP", ")"):
            while True:
                args.append(self.parse_expr())
                if self.at("OP", ","):
                    self.advance()
                    continue
                break
        self.paren_depth -= 1
        self.expect("OP", ")")
        return args

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return IntLit(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "FLOAT":
            self.advance()
            return FloatLit(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "STRING":
            self.advance()
            return StrLit(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "IDENT":
            self.advance()
            return Name(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "KEYWORD":
            if tok.value == "nil":
                self.advance()
                return NilLit(line=tok.line, col=tok.col)
            if tok.value == "function":
                self.advance()
                params = self.parse_params()
                body = self.parse_func_body()
                return FuncExpr(params, body, line=tok.line, col=tok.col)
        if tok.kind == "OP":
            if tok.value == "(":
                self.advance()
                self.paren_depth += 1
                expr = self.parse_expr()
                self.paren_depth -= 1
                self.expect("OP", ")")
                return expr
            if tok.value == "{":
                self.advance()
                self.paren_depth += 1
                pairs = []
                if not self.at("OP", "}"):
                    while True:
                        name = self.expect("IDENT", hint="table key")
                        self.expect("OP", "=", hint="'=' in table constructor")
                        pairs.append((name.value, self.parse_expr()))
                        if self.at("OP", ","):
                            self.advance()
                            continue
                        break
                self.paren_depth -= 1
                self.expect("OP", "}")
                return TableLit(pairs, line=tok.line, col=tok.col)
        self.error("expected expression", tok)


def parse(text, origin="<script>"):
    """Parse source text into a list of statements."""
    parser = Parser(tokenize(text, origin), origin)
    return parser.parse_statements(until_eof=True)
