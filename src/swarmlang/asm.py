"""Textual disassembly of a bytecode image, and its inverse.

The listing is lossless: `assemble(disassemble(img))` reproduces the
image byte for byte.  Lines end at `\n` only, `.string` operands use the
language's string-literal syntax, and everything after `;` on a line
(outside a literal) is a comment, ignored by the assembler.
"""

from . import opcodes as op
from .errors import AsmError, ImageError, LexError
from .image import (VERSION, BytecodeImage, decode_instructions,
                    encode_instruction)
from .lexer import STRING_ESCAPES, tokenize

# the encoded width of a numeric field: "i" operands are i32, an integer
# constant is i64, and every other operand, offset, index, count, line and
# column is u32
_WIDTHS = {"i": ("i32", -2 ** 31, 2 ** 31 - 1),
           "q": ("i64", -2 ** 63, 2 ** 63 - 1),
           "u": ("u32", 0, 2 ** 32 - 1)}


def disassemble(img):
    """Render an image as a re-assemblable plain-text listing."""
    lines = [f".image {img.version}"]
    for i, s in enumerate(img.strings):
        lines.append(f".string {i} {_quote(s)}")
    for i, (tag, value) in enumerate(img.consts):
        lines.append(f".const {i} {tag} {value!r}")
    for name_idx, offset in img.functions:
        lines.append(f".function {name_idx} @{offset}"
                     f" ; {img.strings[name_idx]}")
    for offset, line, col, oidx in img.debug:
        lines.append(f".debug @{offset} {line}:{col} {oidx}")
    positions = {offset: (line, col) for offset, line, col, _ in img.debug}
    lines.append(f".code {len(img.code)}")
    for offset, opcode, args in decode_instructions(img.code):
        text = f"@{offset} {op.NAMES[opcode]}"
        for kind, arg in zip(op.OPERANDS[opcode], args):
            text += f" {arg}"
        comment = _comment_for(img, opcode, args)
        if offset in positions:
            line, col = positions[offset]
            comment = f"{comment + ' ' if comment else ''}({line}:{col})"
        if comment:
            text += f" ; {comment}"
        lines.append(text)
    return "\n".join(lines) + "\n"


def _comment_for(img, opcode, args):
    kinds = op.OPERANDS[opcode]
    notes = []
    for kind, arg in zip(kinds, args):
        if kind == "s" and arg < len(img.strings):
            notes.append(_quote(img.strings[arg]))
        elif kind == "c" and arg < len(img.consts):
            notes.append(repr(img.consts[arg][1]))
    return " ".join(notes)


def assemble(text):
    """Parse a disassembly listing back into a BytecodeImage."""
    version = None
    strings = {}
    consts = {}
    functions = []
    debug = []
    code_len = None
    instrs = []  # (offset, opcode, args)

    # not splitlines(): a string may hold \r, \x0b, \x85, \u2028, ...
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split(None, 2) if line.startswith(".string") \
            else line.split()
        head = parts[0]
        try:
            if head == ".image":
                version = int(parts[1])
            elif head == ".string":
                idx = _int(parts[1], lineno)
                strings[idx] = _unquote(parts[2].strip(), lineno)
            elif head == ".const":
                idx, tag, literal = _int(parts[1], lineno), parts[2], parts[3]
                if tag == "i":
                    consts[idx] = ("i", _int(literal, lineno, "q"))
                elif tag == "f":
                    consts[idx] = ("f", float(literal))
                else:
                    raise AsmError(f"unknown const tag {tag!r}", lineno)
            elif head == ".function":
                functions.append((_int(parts[1], lineno),
                                  _offset(parts[2], lineno)))
            elif head == ".debug":
                offset = _offset(parts[1], lineno)
                line_s, col_s = parts[2].split(":")
                debug.append((offset, _int(line_s, lineno),
                              _int(col_s, lineno), _int(parts[3], lineno)))
            elif head == ".code":
                code_len = _int(parts[1], lineno)
            elif head.startswith("@"):
                offset = _offset(head, lineno)
                name = parts[1]
                if name not in op.BY_NAME:
                    raise AsmError(f"unknown opcode {name!r}", lineno)
                opcode = op.BY_NAME[name]
                kinds = op.OPERANDS[opcode]
                raw_args = parts[2:2 + len(kinds)]
                if len(raw_args) != len(kinds):
                    raise AsmError(f"{name} needs {len(kinds)} operand(s)",
                                   lineno)
                instrs.append((offset, opcode, tuple(
                    _int(a, lineno, "i" if kind == "i" else "u")
                    for kind, a in zip(kinds, raw_args))))
            else:
                raise AsmError(f"unknown directive {head!r}", lineno)
        except AsmError:
            raise
        except (ValueError, IndexError) as exc:
            raise AsmError(f"malformed line: {exc}", lineno)

    if version is None:
        raise AsmError("missing .image directive")
    if code_len is None:
        raise AsmError("missing .code directive")

    code = bytearray()
    for offset, opcode, args in sorted(instrs):
        if offset != len(code):
            raise AsmError(f"instruction at @{offset} does not follow the "
                           f"previous one (expected @{len(code)})")
        code += encode_instruction(opcode, args)
    if len(code) != code_len:
        raise AsmError(f"code length {len(code)} != declared {code_len}")

    for table, label in ((strings, ".string"), (consts, ".const")):
        missing = set(range(len(table))) - set(table)
        if missing:
            raise AsmError(f"{label} indices not contiguous: missing "
                           f"{sorted(missing)}")

    if version != VERSION:
        raise ImageError(f"unsupported image version {version}")
    img = BytecodeImage(
        version=version,
        strings=[strings[i] for i in range(len(strings))],
        consts=[consts[i] for i in range(len(consts))],
        functions=functions,
        debug=debug,
        code=bytes(code),
    )
    img.program  # verify now, like BytecodeImage.decode
    return img


def _strip_comment(line):
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == ";":
            return line[:i]
        i += 1
    return line


def _offset(token, lineno):
    if not token.startswith("@"):
        raise AsmError(f"expected @offset, got {token!r}", lineno)
    return _int(token[1:], lineno)


def _int(token, lineno, width="u"):
    """The integer `token`, which must fit its encoded `width`."""
    value = int(token)
    name, low, high = _WIDTHS[width]
    if not low <= value <= high:
        raise AsmError(f"{value} does not fit {name}", lineno)
    return value


_ESCAPES = {value: "\\" + esc for esc, value in STRING_ESCAPES.items()}


def _quote(s):
    return '"' + "".join(_ESCAPES.get(c, c) for c in s) + '"'


def _unquote(token, lineno):
    # a `.string` operand is a string literal of the language itself
    try:
        tokens = tokenize(token)
    except LexError as exc:
        raise AsmError(f"bad string literal: {exc.message}", lineno) from None
    if len(tokens) != 2 or tokens[0].kind != "STRING":
        raise AsmError(f"malformed string literal {token}", lineno)
    return tokens[0].value
