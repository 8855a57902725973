"""The precedence-climbing parser against the per-level walk it replaced.

`LevelWalk` keeps the old expression parser as a reference model: one
recursion per entry of its `BINARY_LEVELS` table, with prefix `not` a
special level and unary minus and `^` in methods of their own.  Both must
give the same tree, positions included, or the same ParseError text, on
every generated program.
"""

import random
import sys

from swarmlang.errors import ParseError
from swarmlang.lexer import tokenize
from swarmlang.parser import MAX_NESTING, BinOp, Parser, UnOp

BINARY_LEVELS = (
    ("KEYWORD", {"or"}),
    ("KEYWORD", {"and"}),
    ("KEYWORD", {"not"}),
    ("OP", {"==", "!=", "<", "<=", ">", ">="}),
    ("OP", {"+", "-"}),
    ("OP", {"*", "/", "%"}),
)
NOT_LEVEL = 2


class LevelWalk(Parser):
    def parse_expr(self):
        return self.parse_binary(0)

    def parse_binary(self, level):
        if level == len(BINARY_LEVELS):
            return self.parse_unary()
        kind, ops = BINARY_LEVELS[level]
        if level == NOT_LEVEL:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == kind and tok.value in ops:
                self.advance()
                self.nest(tok)
                operand = self.parse_binary(level)
                self.depth -= 1
                return UnOp(tok.value, operand, line=tok.line, col=tok.col)
            return self.parse_binary(level + 1)
        left = self.parse_binary(level + 1)
        depth = self.depth
        tok = self.peek()
        while tok.kind == kind and tok.value in ops:
            self.advance()
            self.nest(tok)
            right = self.parse_binary(level + 1)
            left = BinOp(tok.value, left, right, line=tok.line, col=tok.col)
            tok = self.peek()
        self.depth = depth
        return left

    def parse_unary(self):
        self.skip_newlines()
        self.nest(self.peek())
        if self.at("OP", "-"):
            tok = self.advance()
            expr = UnOp("-", self.parse_unary(), line=tok.line, col=tok.col)
        else:
            expr = self.parse_pow()
        self.depth -= 1
        return expr

    def parse_pow(self):
        base = self.parse_postfix()
        if self.at("OP", "^"):
            tok = self.advance()
            exponent = self.parse_unary()
            return BinOp("^", base, exponent, line=tok.line, col=tok.col)
        return base


def outcome(parser, tokens):
    try:
        return repr(parser(tokens).parse_statements(until_eof=True))
    except ParseError as err:
        return f"ParseError: {err}"


def check(text):
    tokens = tokenize(text)
    # the level walk spends about 12 frames a level, the parser at most
    # FRAMES_PER_LEVEL: only the model gets the stack to reach the bound
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * limit)
    try:
        want = outcome(LevelWalk, tokens)
    finally:
        sys.setrecursionlimit(limit)
    assert outcome(Parser, tokens) == want, text
    return want


OPS = ("or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/",
       "%", "^")
ATOMS = ("a", "b", "t", "2", "3", "1.5", '"s"', "nil")


def expr(rng, depth):
    text = operand(rng, depth)
    for _ in range(rng.choice((0, 1, 1, 2))):
        after = "\n" if rng.random() < 0.1 else " "  # newline after an op
        text += f" {rng.choice(OPS)}{after}{operand(rng, depth)}"
    return text


def operand(rng, depth):
    prefix = ""
    while rng.random() < 0.3:  # stacked, and `not` where it cannot go
        prefix += rng.choice(("-", "- ", "-", "not "))
    kind = rng.random() if depth > 0 else 0
    if kind < 0.6:
        core = rng.choice(ATOMS)
    elif kind < 0.8:
        core = f"({expr(rng, depth - 1)})"
    elif kind < 0.93:
        core = "{" + ", ".join(f"k{i}={expr(rng, depth - 1)}"
                               for i in range(rng.randint(0, 2))) + "}"
    else:
        core = f"function(p) {{ return {expr(rng, depth - 1)} }}"
    if depth > 0 and core[0].isalpha() and rng.random() < 0.3:
        core += rng.choice((
            lambda: f"({', '.join(expr(rng, depth - 1) for _ in range(2))})",
            lambda: f"[{expr(rng, depth - 1)}]",
            lambda: ".m",
            lambda: f".m({expr(rng, depth - 1)})",
        ))()
    return prefix + core


def program(rng):
    e = expr(rng, rng.randint(0, 2))
    return rng.choice((f"x = {e}", e, f"if({e}) y = 1", f"t.k = {e}",
                       f"function f(p) {{ return {e} }}"))


# shapes that must be among the programs checked, whatever the generator
PINNED = ("x = 2^-3", "x = -2^2", "x = 2^3^2", "x = 2^-3^2", "x = 2 ^\n-3",
          "x = - -2 ^ - -3", "x = -a.b(1)^c[2]", "x = not not a == b and c",
          "x = a == not b", "x = 2^not a", "x = a or\nnot b")


def test_climbing_matches_the_level_walk_on_generated_programs():
    rng = random.Random(11)
    outcomes = [check(text) for text in PINNED]
    outcomes += [check(program(rng)) for _ in range(20_000)]
    rejected = sum(o.startswith("ParseError") for o in outcomes)
    assert 2_000 < rejected < 10_000  # both outcomes are well represented


# (opening, closing, `not` may follow) fragments; chains of them reach the
# nesting bound from every side
FRAGMENTS = (("(", ")", True), ("-", "", False), ("not ", "", True),
             ("{a=", "}", True), ("f(", ")", True), ("t[", "]", True),
             ("1 + ", "", False), ("2 ^ ", "", False), ("a or ", "", True),
             ("b * ", "", False), ("c == ", "", False),
             ("g(1)(", ")", True), ("t.a.b[", "]", True),
             ("function() { return ", " }", True), ("2 ^ -", "", False),
             ("- 2 ^ ", "", False))


def test_climbing_matches_the_level_walk_at_the_nesting_bound():
    rng = random.Random(5)
    outcomes = []
    for _ in range(300):
        chain, loose = [], True
        # 3/5 to 16/15 of MAX_NESTING fragments: chains on both sides of it
        for _ in range(rng.randint(MAX_NESTING * 3 // 5,
                                   MAX_NESTING * 16 // 15)):
            fragment = rng.choice(FRAGMENTS)
            if fragment[0] == "not " and not loose and rng.random() < 0.9:
                continue
            chain.append(fragment)
            loose = fragment[2]
        outcomes.append(check("x = " + "".join(o for o, _, _ in chain) + "1"
                              + "".join(c for _, c, _ in reversed(chain))))
    too_deep = sum("nesting too deep" in o for o in outcomes)
    assert 50 < too_deep < 250
