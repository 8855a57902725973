"""Link object units into one executable bytecode image.

Each unit's top-level code becomes a zero-argument chunk; a bootstrap
sequence at offset 0 invokes the chunks in link order and then halts, so
top-level `var` slots of different units never collide.  Function bodies
follow the chunks.  Labels resolve to absolute byte offsets here; an
unresolved or duplicated symbol aborts the link.  Object units carry
strings and constants by value, so the pools are built here alone, in
first-use order over the linked stream.
"""

from . import opcodes as op
from .compiler import Instr, Label, LabelMark, compile_source
from .errors import LinkError
from .image import BytecodeImage, encode_instruction


def link(units):
    """Link ObjectUnits (in order) into a BytecodeImage."""
    if not units:
        raise LinkError("nothing to link")

    strings = []
    string_ids = {}
    consts = []
    const_ids = {}

    def intern(s):
        if s not in string_ids:
            string_ids[s] = len(strings)
            strings.append(s)
        return string_ids[s]

    def const(tag, value):
        # hex() keeps -0.0 apart from 0.0 and every float's exact bits
        key = (tag, value.hex()) if tag == "f" else (tag, value)
        if key not in const_ids:
            const_ids[key] = len(consts)
            consts.append((tag, value))
        return const_ids[key]

    # bootstrap: call each unit's top-level chunk, then halt
    chunk_labels = [Label(f"<chunk {u.origin}>") for u in units]
    stream = []  # (Instr | LabelMark, owning unit)
    for label in chunk_labels:
        stream.append((Instr(op.MKCLOSURE, (label,)), units[0]))
        stream.append((Instr(op.CALL, (0,)), units[0]))
        stream.append((Instr(op.POP, ()), units[0]))
    stream.append((Instr(op.DONE, ()), units[0]))

    functions = {}
    for unit, chunk_label in zip(units, chunk_labels):
        for name, label in unit.functions.items():
            if name in functions:
                raise LinkError(f"duplicate symbol '{name}'")
            functions[name] = label
        stream.append((LabelMark(chunk_label), unit))
        stream.append((Instr(op.FUNC, (0, unit.toplevel_nlocals)), unit))
        for ins in unit.main:
            stream.append((ins, unit))
        stream.append((Instr(op.RETN, ()), unit))
        for ins in unit.funcs:
            stream.append((ins, unit))

    # first pass: byte offsets and label binding
    offsets = {}
    pos = 0
    for ins, _ in stream:
        if isinstance(ins, LabelMark):
            if ins.label in offsets:
                raise LinkError(f"label {ins.label!r} bound twice")
            offsets[ins.label] = pos
        else:
            pos += op.size_of(ins.op)

    # second pass: resolve operands, build the pools, emit
    code = bytearray()
    debug = []
    for ins, unit in stream:
        if isinstance(ins, LabelMark):
            continue
        args = []
        for kind, arg in zip(op.OPERANDS[ins.op], ins.args):
            if isinstance(arg, Label):
                if arg not in offsets:
                    raise LinkError(f"unresolved label {arg!r}")
                args.append(offsets[arg])
            elif kind == "s":
                args.append(intern(arg))
            elif kind == "c":
                args.append(const(*arg))
            else:
                args.append(arg)
        if ins.line:
            debug.append((len(code), ins.line, ins.col, intern(unit.origin)))
        code += encode_instruction(ins.op, args)

    func_table = []
    for name in sorted(functions):
        label = functions[name]
        if label not in offsets:
            raise LinkError(f"unresolved function label '{name}'")
        func_table.append((intern(name), offsets[label]))

    return BytecodeImage(strings=strings, consts=consts,
                         functions=func_table, debug=debug,
                         code=bytes(code))


def compile_and_link(text, origin="<script>"):
    """Convenience: source text straight to an executable image."""
    return link([compile_source(text, origin)])
