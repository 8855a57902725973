"""Instruction set shared by the compiler, image codec, disassembler and VM.

Encoding: one u8 opcode followed by zero or more little-endian 32-bit
operands.  Operand kinds only matter for disassembly comments and for
verifying operands at load; the byte layout is the same for all of them.
See docs/bytecode.md for the full image format.
"""

# opcode numbers are part of the image format; do not renumber
NOP = 0
DONE = 1
PUSHNIL = 2
PUSHI = 3       # i32 immediate integer
PUSHC = 4       # u32 constant-pool index (int64 / float64)
PUSHS = 5       # u32 string-table index
POP = 6
DUP = 7
ADD = 8
SUB = 9
MUL = 10
DIV = 11
MOD = 12
POW = 13
NEG = 14
NOT = 15
EQ = 16
NEQ = 17
LT = 18
LTE = 19
GT = 20
GTE = 21
JUMP = 22       # u32 absolute code offset
JUMPF = 23      # pop; jump if falsy
JFKEEP = 24     # jump if falsy keeping the value, else pop (for `and`)
JTKEEP = 25     # jump if truthy keeping the value, else pop (for `or`)
GLOAD = 26      # u32 string index: load global by name
GSTORE = 27
LLOAD = 28      # u32 local slot
LSTORE = 29
ULOAD = 30      # u32 depth, u32 slot: load from an enclosing function frame
USTORE = 31
MKTABLE = 32
TGET = 33       # (table, key) -> value
TSET = 34       # (table, key, value) ->
MKCLOSURE = 35  # u32 code offset of a FUNC header
CALL = 36       # u32 argc; stack: fn, arg1..argn
CALLM = 37      # u32 argc; stack: receiver, fn, arg1..argn
RET = 38        # return top of stack
RETN = 39       # return nil
FUNC = 40       # u32 nparams, u32 nlocals: function prologue marker

# (name, operand kinds, pops, pushes)
# operand kinds: "i" signed imm, "u" unsigned imm, "s" string index,
# "c" const index, "j" jump target (code offset).  pops/pushes are the
# stack effect the load-time verifier checks: CALL and CALLM pop their
# argc operand's worth more, and JFKEEP/JTKEEP pop only on fall-through.
_SPEC = {
    NOP: ("NOP", "", 0, 0),
    DONE: ("DONE", "", 0, 0),
    PUSHNIL: ("PUSHNIL", "", 0, 1),
    PUSHI: ("PUSHI", "i", 0, 1),
    PUSHC: ("PUSHC", "c", 0, 1),
    PUSHS: ("PUSHS", "s", 0, 1),
    POP: ("POP", "", 1, 0),
    DUP: ("DUP", "", 1, 2),
    ADD: ("ADD", "", 2, 1),
    SUB: ("SUB", "", 2, 1),
    MUL: ("MUL", "", 2, 1),
    DIV: ("DIV", "", 2, 1),
    MOD: ("MOD", "", 2, 1),
    POW: ("POW", "", 2, 1),
    NEG: ("NEG", "", 1, 1),
    NOT: ("NOT", "", 1, 1),
    EQ: ("EQ", "", 2, 1),
    NEQ: ("NEQ", "", 2, 1),
    LT: ("LT", "", 2, 1),
    LTE: ("LTE", "", 2, 1),
    GT: ("GT", "", 2, 1),
    GTE: ("GTE", "", 2, 1),
    JUMP: ("JUMP", "j", 0, 0),
    JUMPF: ("JUMPF", "j", 1, 0),
    JFKEEP: ("JFKEEP", "j", 1, 0),
    JTKEEP: ("JTKEEP", "j", 1, 0),
    GLOAD: ("GLOAD", "s", 0, 1),
    GSTORE: ("GSTORE", "s", 1, 0),
    LLOAD: ("LLOAD", "u", 0, 1),
    LSTORE: ("LSTORE", "u", 1, 0),
    ULOAD: ("ULOAD", "uu", 0, 1),
    USTORE: ("USTORE", "uu", 1, 0),
    MKTABLE: ("MKTABLE", "", 0, 1),
    TGET: ("TGET", "", 2, 1),
    TSET: ("TSET", "", 3, 0),
    MKCLOSURE: ("MKCLOSURE", "j", 0, 1),
    CALL: ("CALL", "u", 1, 1),
    CALLM: ("CALLM", "u", 2, 1),
    RET: ("RET", "", 1, 0),
    RETN: ("RETN", "", 0, 0),
    FUNC: ("FUNC", "uu", 0, 0),
}

NAMES = {op: spec[0] for op, spec in _SPEC.items()}
OPERANDS = {op: spec[1] for op, spec in _SPEC.items()}
STACK = {op: spec[2:] for op, spec in _SPEC.items()}  # (pops, pushes)
BY_NAME = {name: op for op, name in NAMES.items()}


def size_of(op):
    """Encoded size in bytes of one instruction."""
    return 1 + 4 * len(OPERANDS[op])
