"""Runtime values and the arithmetic/comparison semantics.

nil is Python None; integers and floats are the native types; strings are
native str.  Tables wrap a dict and may carry a method map consulted on
string-key misses (used for the neighbor structure and factory objects).
Integers are int64, like the constant pool and the wire: a result
outside [-2^63, 2^63) raises "integer overflow".  Truthiness: nil and
integer 0 are false, everything else (including 0.0) is true.
Comparisons return integer 1/0; `and`/`or` return operand values (they
are compiled to short-circuit jumps, not handled here).
"""

import math

from .errors import VmRuntimeError

MAX_DEPTH = 16  # deepest table nesting a value may carry, on the wire or off
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class Table:
    """Script table: dict keyed by int/float/str, plus optional methods."""

    __slots__ = ("data", "methods")

    def __init__(self, data=None, methods=None):
        self.data = data if data is not None else {}
        self.methods = methods

    def get(self, key):
        v = self.data.get(key)
        if v is None and self.methods is not None and isinstance(key, str):
            return self.methods.get(key)
        return v

    def set(self, key, value):
        check_key(key)
        if value is None:
            self.data.pop(key, None)
        else:
            self.data[key] = value

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Table({self.data!r})"


class NativeClosure:
    """Script function: its translated code plus captured frames.

    `code(vm, env, self_value, *args)` is the Python function the image
    built for the function body (see translate.py).
    """

    __slots__ = ("code", "env")

    def __init__(self, code, env):
        self.code = code
        self.env = env  # tuple of enclosing frames' locals lists

    def __repr__(self):
        return f"NativeClosure({self.code.__name__})"


class HostClosure:
    """Host function exposed to scripts: fn(vm, self_value, args) -> value."""

    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __repr__(self):
        return f"HostClosure({self.name})"


CLOSURES = (NativeClosure, HostClosure)  # the values scripts can call


class SwarmHandle:
    """First-class swarm object; methods resolve via METHODS."""

    METHODS = {}  # populated by swarms.py
    __slots__ = ("swarm_id",)

    def __init__(self, swarm_id):
        self.swarm_id = swarm_id

    def __repr__(self):
        return f"SwarmHandle({self.swarm_id})"


class VStigHandle:
    """First-class virtual stigmergy object; methods resolve via METHODS."""

    METHODS = {}  # populated by vstig.py
    __slots__ = ("vstig_id",)

    def __init__(self, vstig_id):
        self.vstig_id = vstig_id

    def __repr__(self):
        return f"VStigHandle({self.vstig_id})"


def is_truthy(v):
    if v is None:
        return False
    if type(v) is int and v == 0:
        return False
    return True


def is_number(v):
    return type(v) is int or type(v) is float


def require_closure(v, what):
    """`v` itself if scripts can call it; else a runtime error."""
    if not isinstance(v, CLOSURES):
        raise VmRuntimeError(f"{what} expects a closure")
    return v


def check_key(key):
    if key is None:
        raise VmRuntimeError("table key cannot be nil")
    if not (type(key) is int or type(key) is float or type(key) is str):
        raise VmRuntimeError(f"invalid table key of type {type_name(key)}")


def type_name(v):
    if v is None:
        return "nil"
    if type(v) is int:
        return "int"
    if type(v) is float:
        return "float"
    if type(v) is str:
        return "string"
    if isinstance(v, Table):
        return "table"
    if isinstance(v, CLOSURES):
        return "closure"
    if isinstance(v, SwarmHandle):
        return "swarm"
    if isinstance(v, VStigHandle):
        return "stigmergy"
    return type(v).__name__


def coerce(v):
    """Normalize host-supplied values (bools become ints)."""
    if v is True:
        return 1
    if v is False:
        return 0
    return v


def value_eq(a, b):
    if a is None or b is None:
        return a is b
    if is_number(a) and is_number(b):
        return a == b
    if type(a) is str and type(b) is str:
        return a == b
    return a is b


def value_lt(a, b):
    _check_ordered(a, b)
    return a < b


def value_lte(a, b):
    _check_ordered(a, b)
    return a <= b


def _check_ordered(a, b):
    if is_number(a) and is_number(b):
        return
    if type(a) is str and type(b) is str:
        return
    raise VmRuntimeError(
        f"cannot order {type_name(a)} and {type_name(b)}")


def _check_arith(a, b, opname):
    if not (is_number(a) and is_number(b)):
        raise VmRuntimeError(
            f"cannot apply '{opname}' to {type_name(a)} and {type_name(b)}")


def check_int64(r):
    """`r` itself unless it is an integer outside int64."""
    if type(r) is int and not INT64_MIN <= r <= INT64_MAX:
        raise VmRuntimeError("integer overflow")
    return r


def arith_add(a, b):
    _check_arith(a, b, "+")
    return check_int64(a + b)


def arith_sub(a, b):
    _check_arith(a, b, "-")
    return check_int64(a - b)


def arith_mul(a, b):
    _check_arith(a, b, "*")
    return check_int64(a * b)


def arith_div(a, b):
    _check_arith(a, b, "/")
    if b == 0:
        raise VmRuntimeError("division by zero")
    if type(a) is int and type(b) is int:
        q = a // b
        if q < 0 and q * b != a:
            q += 1  # truncate toward zero
        return check_int64(q)  # INT64_MIN / -1
    return a / b


def arith_mod(a, b):
    _check_arith(a, b, "%")
    if b == 0:
        raise VmRuntimeError("modulo by zero")
    if type(a) is int and type(b) is int:
        r = abs(a) % abs(b)  # C-style: the sign of the dividend
        return -r if a < 0 else r
    try:
        return math.fmod(a, b)
    except ValueError:  # an infinite dividend
        raise VmRuntimeError("modulo of an infinite number") from None


def arith_pow(a, b):
    _check_arith(a, b, "^")
    # |a| ^ b >= 2 ^ (b * (bits(|a|) - 1)): refuse before building it
    if type(a) is int and type(b) is int and b > 0 and \
            b * (abs(a).bit_length() - 1) > 63:
        raise VmRuntimeError("integer overflow")
    try:
        r = a ** b
    except (OverflowError, ZeroDivisionError) as exc:
        raise VmRuntimeError(f"power error: {exc}")
    if isinstance(r, complex):
        raise VmRuntimeError("power of negative base with fractional exponent")
    return check_int64(r)


def arith_neg(a):
    if not is_number(a):
        raise VmRuntimeError(f"cannot negate {type_name(a)}")
    return check_int64(-a)


def is_wire_value(v, _depth=0):
    """True for values that can travel on the wire (no nil, no closures)."""
    if _depth > MAX_DEPTH:
        return False
    if type(v) is int:
        return INT64_MIN <= v <= INT64_MAX
    if type(v) is float or type(v) is str:
        return True
    if isinstance(v, Table) and type(v) is Table:
        return all(is_wire_value(k, _depth + 1) and
                   is_wire_value(x, _depth + 1)
                   for k, x in v.data.items())
    return False


def copy_value(v, _depth=0):
    """Deep-copy tables so shared message payloads cannot alias stores."""
    if isinstance(v, Table) and type(v) is Table:
        if _depth > MAX_DEPTH:
            raise VmRuntimeError("table nesting too deep to copy")
        return Table({k: copy_value(x, _depth + 1)
                      for k, x in v.data.items()})
    return v


def to_display(v):
    """Human-readable rendering used by print() and the CLI dump."""
    if v is None:
        return "nil"
    if type(v) is str:
        return v
    if type(v) is int:
        return str(v)
    if type(v) is float:
        return repr(v)
    if isinstance(v, Table):
        return f"[table({len(v)})]"
    if isinstance(v, CLOSURES):
        return "[closure]"
    if isinstance(v, SwarmHandle):
        return f"[swarm {v.swarm_id}]"
    if isinstance(v, VStigHandle):
        return f"[stigmergy {v.vstig_id}]"
    return repr(v)
