"""Golden tests: each language-reference listing compiles and produces the
documented result when executed on the VM."""

import time

import pytest

from swarmlang.errors import CompileError, VmRuntimeError
from swarmlang.linker import compile_and_link
from swarmlang.values import Table


def g(vm, name):
    return vm.get_global(name)


def test_assignment_and_arithmetic(run_script):
    vm = run_script("a = 3 + 7")
    assert g(vm, "a") == 10


def test_while_loop(run_script):
    vm = run_script("a = 3 + 7\ni = 0; while(i < a) i = i + 1")
    assert g(vm, "i") == 10


def test_branching(run_script):
    vm = run_script("a = 3 + 7\nif(a == 10) i = 0")
    assert g(vm, "i") == 0


def test_table_array_and_dict_use(run_script):
    vm = run_script('t = {}\nt[6] = 5\nt.b = 9\nt["b"] = 10')
    t = g(vm, "t")
    assert isinstance(t, Table)
    assert t.get(6) == 5
    assert t.get("b") == 10  # dot and index address the same slot


def test_function_definition_and_aliasing(run_script):
    vm = run_script("""
function f(a) { return a }
n = f
x = f(9)
y = n(5)
""")
    assert g(vm, "x") == 9
    assert g(vm, "y") == 5


def test_lambda(run_script):
    vm = run_script("l = function(a,b) { return a+b }\nx = l(2,3)")
    assert g(vm, "x") == 5


def test_method_with_self(run_script):
    vm = run_script("""
t = {}
t.a = 4
t.m = function(p) { return self.a + p }
x = t.m(6)
""")
    assert g(vm, "x") == 10


def test_operator_precedence_value(run_script):
    assert g(run_script("x = 2+3*4^2"), "x") == 50


def test_unknown_symbol_is_nil(run_script):
    # an undeclared name compiles to a global load and reads as nil
    vm = run_script("if(fly_to) x = 1")
    assert g(vm, "x") is None


def test_var_is_function_local(run_script):
    vm = run_script("""
function f() {
  var c = {}
  c.x = 1
  return c.x
}
y = f()
""")
    assert g(vm, "y") == 1
    assert g(vm, "c") is None  # never leaked to globals


def test_bare_assignment_in_function_targets_global(run_script):
    vm = run_script("function f() { counter = 5 }\nf()")
    assert g(vm, "counter") == 5


def test_top_level_var_is_not_global(run_script):
    vm = run_script("var hidden = 3\nfunction f() { return hidden }\nx = f()")
    assert g(vm, "hidden") is None
    assert g(vm, "x") == 3  # captured from the enclosing chunk


def test_closure_captures_by_reference(run_script):
    vm = run_script("""
function make() {
  var n = 0
  var t = {}
  t.inc = function() { n = n + 1; return n }
  t.get = function() { return n }
  return t
}
c = make()
c.inc()
c.inc()
x = c.get()
""")
    assert g(vm, "x") == 2


def test_two_level_upvalue_capture(run_script):
    vm = run_script("""
function outer() {
  var a = 1
  var mk = function() {
    return function() { a = a + 10; return a }
  }
  var inner = mk()
  r1 = inner()
  r2 = inner()
}
outer()
""")
    assert g(vm, "r1") == 11
    assert g(vm, "r2") == 21


def test_call_result_is_callable(run_script):
    vm = run_script("""
function mk() { return function(n) { return n * 3 } }
x = mk()(4)
""")
    assert g(vm, "x") == 12


def test_numeric_keys_promote_like_values(run_script):
    vm = run_script("t = {}\nt[1] = 5\nx = t[1.0]\nt[2.0] = 7\ny = t[2]")
    assert g(vm, "x") == 5
    assert g(vm, "y") == 7


def test_missing_args_bind_nil(run_script):
    vm = run_script("function f(a, b) { if(b == nil) return a; return b }\n"
                    "x = f(7)")
    assert g(vm, "x") == 7


def test_integer_division_truncates_toward_zero(run_script):
    vm = run_script("a = 7 / 2\nb = (0-7) / 2\nc = 7 % 2\nd = (0-7) % 2")
    assert g(vm, "a") == 3
    assert g(vm, "b") == -3
    assert g(vm, "c") == 1
    assert g(vm, "d") == -1


def test_float_modulo_keeps_the_dividend_sign(run_script):
    vm = run_script("a = 7.5 % 2\nb = (0 - 7.5) % 2\nc = 7 % 2.5")
    assert (g(vm, "a"), g(vm, "b"), g(vm, "c")) == (1.5, -1.5, 2.0)


def test_literals_beyond_int32_come_from_the_constant_pool(run_script):
    vm = run_script("a = 3000000000\nb = -3000000000\n"
                    "c = 9223372036854775807")
    assert (g(vm, "a"), g(vm, "b"), g(vm, "c")) == \
        (3000000000, -3000000000, 2 ** 63 - 1)


def test_integer_literal_past_int64_is_a_compile_error():
    with pytest.raises(CompileError, match="out of 64-bit range") as err:
        compile_and_link("x = 9223372036854775808")
    assert (err.value.line, err.value.col) == (1, 5)


def test_bare_return_leaves_with_nil(run_script):
    vm = run_script("function f() { a = 1\nreturn\na = 2 }\nx = f()")
    assert (g(vm, "a"), g(vm, "x")) == (1, None)


def test_float_promotion(run_script):
    vm = run_script("a = 7 / 2.\nb = 1 + 0.5")
    assert g(vm, "a") == 3.5
    assert g(vm, "b") == 1.5


def test_truthiness_zero_and_nil_false(run_script):
    vm = run_script("""
if(0) a = 1
if(nil) b = 1
if(0.0) c = 1
if("x") d = 1
if(2) e = 1
""")
    assert g(vm, "a") is None
    assert g(vm, "b") is None
    assert g(vm, "c") == 1  # only integer zero is false
    assert g(vm, "d") == 1
    assert g(vm, "e") == 1


def test_and_or_return_operands(run_script):
    vm = run_script('a = nil or "fallback"\nb = 1 and 2\nc = 0 and 9\n'
                    "d = not 0\ne = not 7")
    assert g(vm, "a") == "fallback"
    assert g(vm, "b") == 2
    assert g(vm, "c") == 0
    assert g(vm, "d") == 1
    assert g(vm, "e") == 0


def test_comparisons_yield_ints(run_script):
    vm = run_script("a = 1 < 2\nb = 2 < 1\nc = 1 == 1.0\n"
                    "d = 2 <= 2\ne = 3 <= 2\nf = 1.5 <= 2")
    assert g(vm, "a") == 1
    assert g(vm, "b") == 0
    assert g(vm, "c") == 1
    assert g(vm, "d") == 1
    assert g(vm, "e") == 0
    assert g(vm, "f") == 1


def test_reading_absent_key_yields_nil(run_script):
    vm = run_script("t = {}\nx = t.missing")
    assert g(vm, "x") is None


def test_assigning_nil_removes_key(run_script):
    vm = run_script("t = {}\nt.a = 1\nt.a = nil\nx = t.a")
    assert g(vm, "x") is None
    assert len(g(vm, "t")) == 0


def test_return_outside_function_is_compile_error():
    with pytest.raises(CompileError):
        compile_and_link("return 1")


def test_self_outside_method_position_is_compile_error():
    with pytest.raises(CompileError):
        compile_and_link("x = self")


@pytest.mark.parametrize("src, message", [
    ("function f(self, b) { return b }\nx = f(5, 6)",
     "'self' cannot be a parameter"),
    ("function f(self) { return self }", "'self' cannot be a parameter"),
    ("g = function(a, self) { return a }", "'self' cannot be a parameter"),
    ("function f(a, b, a) { return a }", "duplicate parameter 'a'"),
    ("function f() { var self = 9\nreturn self }", "cannot declare 'self'"),
    ("var self = 9", "cannot declare 'self'"),
    ("self = 1", "cannot assign to 'self'"),
    ("function f() {}; function f() {}", "duplicate function 'f'"),
])
def test_self_and_duplicate_names_are_compile_errors(src, message):
    with pytest.raises(CompileError, match=message) as err:
        compile_and_link(src)
    assert err.value.line == 1


def test_self_in_plain_call_is_nil(run_script):
    vm = run_script("f = function() { return self }\nx = f()\n"
                    "if(x == nil) ok = 1")
    assert g(vm, "ok") == 1


def test_indexing_non_table_faults(run_script):
    vm = run_script("x = 5\ny = x.field")
    assert isinstance(vm.faulted, VmRuntimeError)


def test_string_arithmetic_faults(run_script):
    vm = run_script('x = "a" + 1')
    assert isinstance(vm.faulted, VmRuntimeError)


def test_division_by_zero_faults(run_script):
    vm = run_script("x = 1 / 0")
    assert isinstance(vm.faulted, VmRuntimeError)


@pytest.mark.parametrize("src", ["x = 1 % 0", "x = 1.5 % 0.0"],
                         ids=["int", "float"])
def test_modulo_by_zero_faults(run_script, src):
    vm = run_script(src)
    assert vm.faulted.message == "modulo by zero"


INT64_MIN = "(-9223372036854775807 - 1)"
OVERFLOW = "integer overflow"


# Pairs of one result past an int64 bound and one at it (for `3 ^ n`,
# the largest power inside it); `INT64_MIN % -1` never overflows.
@pytest.mark.parametrize("expr, expected", [
    ("9223372036854775807 + 1", OVERFLOW),
    ("9223372036854775806 + 1", 2 ** 63 - 1),
    ("-9223372036854775807 - 2", OVERFLOW),
    ("-9223372036854775807 - 1", -2 ** 63),
    ("4294967296 * 2147483648", OVERFLOW),
    ("-4294967296 * 2147483648", -2 ** 63),
    (f"{INT64_MIN} / -1", OVERFLOW),
    ("-9223372036854775807 / -1", 2 ** 63 - 1),
    (f"{INT64_MIN} % -1", 0),
    (f"-{INT64_MIN}", OVERFLOW),
    (f"-({INT64_MIN} + 1)", 2 ** 63 - 1),
    ("2 ^ 63", OVERFLOW),
    ("2 ^ 62", 2 ** 62),
    ("(-2) ^ 64", OVERFLOW),
    ("(-2) ^ 63", -2 ** 63),
    ("3 ^ 1000000", OVERFLOW),
    ("3 ^ 39", 3 ** 39),
    (f"math.abs({INT64_MIN})", OVERFLOW),
    ("math.abs(-9223372036854775807)", 2 ** 63 - 1),
])
def test_integer_results_stay_inside_int64(run_script, expr, expected):
    vm = run_script(f"x = {expr}")
    if expected == OVERFLOW:
        assert vm.faulted.message == OVERFLOW
    else:
        assert vm.faulted is None
        assert type(g(vm, "x")) is int and g(vm, "x") == expected


def test_repeated_squaring_faults_at_once(run_script):
    start = time.perf_counter()
    vm = run_script("x = 3\nwhile (1) { x = x * x }")
    assert time.perf_counter() - start < 1.0
    assert vm.faulted.message == OVERFLOW
    assert vm.get_global("x") == 3 ** 32  # the last square inside int64


def test_print_concatenates(run_script):
    out = []
    run_script('print("robot ", 3, ": d = ", 1.5)', sink=out.append)
    assert out == ["robot 3: d = 1.5"]


def test_math_table(run_script):
    vm = run_script("""
a = math.min(3, 1.5)
b = math.abs(0 - 4)
c = math.sqrt(9)
d = math.cos(0)
e = math.sin(0)
""")
    assert g(vm, "a") == 1.5
    assert g(vm, "b") == 4
    assert g(vm, "c") == 3.0
    assert g(vm, "d") == 1.0
    assert g(vm, "e") == 0.0


NUMERIC = "expects numeric arguments"


# Each error of the math methods, at the call's position; the last column
# is the fuel the step used, the faulting call's instruction included.
@pytest.mark.parametrize("call, message, used", [
    ('math.sin("a")', f"math.sin {NUMERIC}", 11),
    ("math.cos()", f"math.cos {NUMERIC}", 10),
    ("math.cos(1e308 * 10.0)", "math.cos of an infinite number", 13),
    ("math.sin(-1e308 * 10.0)", "math.sin of an infinite number", 14),
    ("math.min(1)", f"math.min {NUMERIC}", 11),
    ("math.min(1, nil)", f"math.min {NUMERIC}", 12),
    ('math.min("a", 2)', f"math.min {NUMERIC}", 12),
    ("math.abs(nil)", f"math.abs {NUMERIC}", 11),
    (f"math.abs({INT64_MIN})", OVERFLOW, 14),
    ("math.sqrt({})", f"math.sqrt {NUMERIC}", 11),
    ("math.sqrt(-0.5)", "math.sqrt of a negative number", 12),
])
def test_math_errors_fault_at_the_call(run_script, call, message, used):
    vm = run_script(f"x = 1\ny = 2 + {call}\n")
    assert vm.faulted.message == message
    assert (vm.faulted.line, vm.faulted.col) == (2, 14)
    assert vm.config.instruction_budget - vm._fuel == used


def test_math_min_returns_the_first_of_equals(run_script):
    vm = run_script("a = math.min(0.0, -0.0)\nb = math.min(-0.0, 0.0)\n"
                    "c = math.min(2, 2.0)\nd = math.min(3, 1.5)")
    assert [repr(g(vm, k)) for k in "abcd"] == ["0.0", "-0.0", "2", "1.5"]
