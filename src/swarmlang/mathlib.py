"""The script's `math` table: sin, cos, min, abs and sqrt.

Each VM binds the global `math` to a table of these closures, the same
objects on every VM, so translated code can test a callee for being one
of them by identity (translate.py, quickened calls).
"""

import math as _math

from .errors import VmRuntimeError
from .values import NativeClosure, check_int64


# The math methods check their arguments inline: they are among the
# most called built-ins, and a helper per argument costs a frame each.
def _trig(name):
    fn = getattr(_math, name)

    def call(vm, _env, _self, *args):
        x = args[0] if args else None
        if type(x) is not float and type(x) is not int:
            raise VmRuntimeError(f"math.{name} expects numeric arguments")
        try:
            return fn(x)
        except ValueError:  # an infinite angle
            raise VmRuntimeError(f"math.{name} of an infinite number") \
                from None
    return NativeClosure(call, None)


def _min(vm, _env, _self, *args):
    if len(args) > 1:
        a, b = args[0], args[1]
        if (type(a) is float or type(a) is int) \
                and (type(b) is float or type(b) is int):
            return b if b < a else a  # builtin min(a, b), NaN included
    raise VmRuntimeError("math.min expects numeric arguments")


def _abs(vm, _env, _self, *args):
    x = args[0] if args else None
    if type(x) is float:
        return abs(x)
    if type(x) is int:
        return check_int64(abs(x))
    raise VmRuntimeError("math.abs expects numeric arguments")


def _sqrt(vm, _env, _self, *args):
    x = args[0] if args else None
    if type(x) is not float and type(x) is not int:
        raise VmRuntimeError("math.sqrt expects numeric arguments")
    if x < 0:
        raise VmRuntimeError("math.sqrt of a negative number")
    return _math.sqrt(x)


METHODS = {
    "sin": _trig("sin"),
    "cos": _trig("cos"),
    "min": NativeClosure(_min, None),
    "abs": NativeClosure(_abs, None),
    "sqrt": NativeClosure(_sqrt, None),
}
