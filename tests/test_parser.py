import math
import sys

import pytest

from swarmlang import parser as ast
from swarmlang.errors import ParseError
from swarmlang.linker import compile_and_link
from swarmlang.parser import (FRAME_BUDGET, FRAMES_PER_LEVEL, MAX_NESTING,
                              parse)


def test_if_with_comparison():
    (stmt,) = parse("if(a == 10) i = 0")
    assert isinstance(stmt, ast.If)
    assert isinstance(stmt.cond, ast.BinOp) and stmt.cond.op == "=="
    assert isinstance(stmt.then, ast.Assign)
    assert stmt.orelse is None


def test_method_assignment_with_lambda_self():
    (stmt,) = parse("t.m = function(p) { return self.a + p }")
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.target, ast.Index)
    assert isinstance(stmt.target.key, ast.StrLit)
    fn = stmt.value
    assert isinstance(fn, ast.FuncExpr) and fn.params == ["p"]
    ret = fn.body[0]
    assert isinstance(ret, ast.Return)
    add = ret.value
    assert isinstance(add.left, ast.Index) and add.left.key.value == "a"
    assert isinstance(add.left.obj, ast.Name) and add.left.obj.name == "self"


def test_while_missing_expression_errors():
    with pytest.raises(ParseError) as err:
        parse("while(")
    assert "expected" in str(err.value)


def test_precedence_power_tightest():
    (stmt,) = parse("x = 2+3*4^2")
    add = stmt.value
    assert add.op == "+"
    mul = add.right
    assert mul.op == "*"
    assert mul.right.op == "^"


def test_not_binds_looser_than_comparison():
    (stmt,) = parse("x = not a == b")
    assert isinstance(stmt.value, ast.UnOp) and stmt.value.op == "not"
    assert stmt.value.operand.op == "=="


def test_and_or_chain():
    (stmt,) = parse("x = a and b or c")
    assert stmt.value.op == "or"
    assert stmt.value.left.op == "and"


def test_else_after_newline_and_comment():
    stmts = parse("""
if(a < b) {
  x = 1
}
# comment between branches
else x = 2
""")
    (stmt,) = stmts
    assert isinstance(stmt, ast.If)
    assert stmt.orelse is not None


def test_expression_spanning_lines_after_operator():
    (stmt,) = parse("x = -(a / b) *\n    ((c / d)^4 - (c / d)^2)")
    assert stmt.value.op == "*"


def test_statement_separators_mixed():
    stmts = parse("i = 0; while(i < a) i = i + 1\nj = 2;")
    assert len(stmts) == 3
    assert isinstance(stmts[1], ast.While)


def test_table_constructor_with_fields():
    (stmt,) = parse("acc = {x=0, y=0, z=0}")
    assert isinstance(stmt.value, ast.TableLit)
    assert [k for k, _ in stmt.value.pairs] == ["x", "y", "z"]


def test_table_constructor_multiline_inside_call():
    (stmt,) = parse("r = c.reduce(f, {x=0,\n  y=0})")
    call = stmt.value
    assert isinstance(call, ast.MethodCall)
    assert isinstance(call.args[1], ast.TableLit)


def test_method_call_chain():
    (stmt,) = parse("d = neighbors.kin().reduce(f, {x=0, y=0})")
    outer = stmt.value
    assert isinstance(outer, ast.MethodCall)
    assert isinstance(outer.obj, ast.MethodCall)


def test_index_and_dot_targets():
    stmts = parse('t[6] = 5\nt.b = 9\nt["b"] = 10')
    assert isinstance(stmts[0].target, ast.Index)
    assert isinstance(stmts[1].target, ast.Index)
    assert isinstance(stmts[1].target.key, ast.StrLit)
    assert isinstance(stmts[2].target, ast.Index)


def test_named_and_anonymous_functions():
    stmts = parse("function f(a) { return a }\nl = function(a,b) { return a+b }")
    assert isinstance(stmts[0], ast.FuncDef) and stmts[0].params == ["a"]
    assert isinstance(stmts[1].value, ast.FuncExpr)


def test_var_declarations():
    stmts = parse("function g() { var c = {}\nvar d\nd = 1 }")
    body = stmts[0].body
    assert isinstance(body[0], ast.VarDecl) and body[0].value is not None
    assert isinstance(body[1], ast.VarDecl) and body[1].value is None


def test_invalid_assignment_target():
    with pytest.raises(ParseError):
        parse("f(1) = 2")


def test_error_carries_position_and_hint():
    with pytest.raises(ParseError) as err:
        parse("if a == 10) i = 0")
    assert err.value.line == 1
    assert err.value.hint is not None


def test_unclosed_block():
    with pytest.raises(ParseError):
        parse("function f() { x = 1")


def test_nil_literal_and_unary_minus():
    (s1, s2) = parse("a = nil\nb = -7 / 2")
    assert isinstance(s1.value, ast.NilLit)
    assert isinstance(s2.value, ast.BinOp) and s2.value.op == "/"
    assert isinstance(s2.value.left, ast.UnOp)


# shape: (source nested n deep, levels per step, levels around the nest)
NESTING = {
    "parentheses": (lambda n: "x = " + "(" * n + "1" + ")" * n, 1, 2),
    "tables": (lambda n: "x = " + "{a=" * n + "1" + "}" * n, 1, 2),
    "ifs": (lambda n: "if(1) " * n + "x = 1", 1, 2),
    "whiles": (lambda n: "while(0) " * n + "x = 1", 1, 2),
    "blocks": (lambda n: "{" * n + "x = 1" + "}" * n, 1, 2),
    "unary-minus": (lambda n: "x = " + "-" * n + "1", 1, 2),
    "not": (lambda n: "x = " + "not " * n + "1", 1, 2),
    "power": (lambda n: "x = 1" + "^1" * n, 1, 2),
    "sum": (lambda n: "x = 1" + " + 1" * n, 1, 2),
    "call-links": (lambda n: "x = f" + "(1)" * n, 1, 3),
    "member-links": (lambda n: "x = t" + ".a" * n, 1, 2),
    "index-links": (lambda n: "x = t" + "[1]" * n, 1, 3),
    "functions": (lambda n: "f = " + "function() { return " * n + "1"
                  + " }" * n, 2, 2),
}


@pytest.mark.parametrize("shape", NESTING)
def test_nesting_at_the_bound_compiles(shape):
    source, per_level, around = NESTING[shape]
    n = (MAX_NESTING - around) // per_level
    assert n * per_level + around == MAX_NESTING
    compile_and_link(source(n))  # the compiler's recursion fits as well
    with pytest.raises(ParseError, match="nesting too deep"):
        parse(source(n + 1))


@pytest.mark.parametrize("shape", NESTING)
def test_nesting_far_past_the_bound_is_a_parse_error(shape):
    with pytest.raises(ParseError, match="nesting too deep"):
        parse(NESTING[shape][0](10_000))


def deepest_frame(source):
    """How many Python frames deep compile_and_link(source) goes."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        compile_and_link(source)
    finally:
        sys.setprofile(None)
    return deepest


def nesting_frames(shape):
    """Frames of parse + compile for `shape` at the bound: (deepest frame,
    frames the nesting adds to the flattest program of the shape, frames
    the last level costs)."""
    source, per_level, around = NESTING[shape]
    n = (MAX_NESTING - around) // per_level
    deepest = deepest_frame(source(n))
    last = (deepest - deepest_frame(source(n - 1))) / per_level
    return deepest, deepest - deepest_frame(source(0)), last


@pytest.mark.parametrize("shape", NESTING)
def test_nesting_at_the_bound_stays_inside_the_frame_budget(shape):
    _, nested, per_level = nesting_frames(shape)
    assert per_level <= FRAMES_PER_LEVEL
    assert nested <= FRAME_BUDGET


def test_frames_per_level_is_the_dearest_shape():
    # not just an upper bound: a fold that makes every shape cheaper must
    # lower FRAMES_PER_LEVEL, so MAX_NESTING takes all of FRAME_BUDGET
    worst = max(nesting_frames(shape)[2] for shape in NESTING)
    assert math.ceil(worst) == FRAMES_PER_LEVEL


if __name__ == "__main__":
    # frames per nesting level of each shape, from which MAX_NESTING is set
    print(f"MAX_NESTING = {MAX_NESTING} = FRAME_BUDGET {FRAME_BUDGET} // "
          f"FRAMES_PER_LEVEL {FRAMES_PER_LEVEL}")
    print(f"{'shape':14} {'deepest':>7} {'nested':>7} {'per level':>9}")
    worst = 0
    for shape in NESTING:
        deepest, nested, per_level = nesting_frames(shape)
        worst = max(worst, per_level)
        print(f"{shape:14} {deepest:7} {nested:7} {per_level:9g}")
    print(f"worst {worst:g} frames per level: MAX_NESTING would be "
          f"{FRAME_BUDGET // math.ceil(worst)}")
