"""Binary bytecode image (.bo file) encoder/decoder.

Layout (all integers little-endian; see docs/bytecode.md):

    magic "SWBC" | u16 version
    strings:   u32 count, then per string u32 byte-length + UTF-8 bytes
    constants: u32 count, then per constant u8 tag (0=int64, 1=float64)
               + 8 payload bytes
    functions: u32 count, then per entry u32 name-string-index + u32 offset
    debug:     u32 count, then per entry u32 offset + u32 line + u32 col
               + u32 origin-string-index
    code:      u32 byte-length + instruction stream
"""

import struct
from dataclasses import dataclass, field

from . import opcodes as op
from .errors import ImageError

MAGIC = b"SWBC"
VERSION = 1

TAG_INT = 0
TAG_FLOAT = 1


@dataclass
class BytecodeImage:
    version: int = VERSION
    strings: list = field(default_factory=list)
    consts: list = field(default_factory=list)      # ("i"|"f", value)
    functions: list = field(default_factory=list)   # (name_idx, offset)
    debug: list = field(default_factory=list)       # (offset, line, col, origin_idx)
    code: bytes = b""
    # decoded form for the VM, built on first use (vm._Program.of)
    program: object = field(default=None, init=False, repr=False,
                            compare=False)

    def function_offsets(self):
        """name -> code offset for every linked top-level function."""
        return {self.strings[idx]: off for idx, off in self.functions}

    def position_at(self, offset):
        """(origin, line, col) of the instruction covering a code offset."""
        best = None
        for off, line, col, oidx in self.debug:
            if off <= offset and (best is None or off >= best[0]):
                best = (off, line, col, oidx)
        if best is None:
            return None
        return self.strings[best[3]], best[1], best[2]

    # --- binary form ---

    def encode(self):
        out = bytearray()
        out += MAGIC
        out += struct.pack("<H", self.version)
        out += struct.pack("<I", len(self.strings))
        for s in self.strings:
            raw = s.encode("utf-8")
            out += struct.pack("<I", len(raw))
            out += raw
        out += struct.pack("<I", len(self.consts))
        for tag, value in self.consts:
            if tag == "i":
                out += struct.pack("<Bq", TAG_INT, value)
            else:
                out += struct.pack("<Bd", TAG_FLOAT, value)
        out += struct.pack("<I", len(self.functions))
        for name_idx, offset in self.functions:
            out += struct.pack("<II", name_idx, offset)
        out += struct.pack("<I", len(self.debug))
        for entry in self.debug:
            out += struct.pack("<IIII", *entry)
        out += struct.pack("<I", len(self.code))
        out += self.code
        return bytes(out)

    @classmethod
    def decode(cls, data):
        r = _Reader(data)
        magic = r.take(4)
        if magic != MAGIC:
            raise ImageError(f"bad magic {magic!r}", offset=0)
        version = r.u16()
        if version != VERSION:
            raise ImageError(f"unsupported image version {version}", offset=4)
        strings = []
        for _ in range(r.u32()):
            raw = r.take(r.u32())
            try:
                strings.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ImageError("string is not valid UTF-8",
                                 offset=r.pos - len(raw) + exc.start) from None
        consts = []
        for _ in range(r.u32()):
            tag = r.u8()
            if tag == TAG_INT:
                consts.append(("i", struct.unpack("<q", r.take(8))[0]))
            elif tag == TAG_FLOAT:
                consts.append(("f", struct.unpack("<d", r.take(8))[0]))
            else:
                raise ImageError(f"unknown constant tag {tag}", offset=r.pos - 1)
        functions = [(r.u32(), r.u32()) for _ in range(r.u32())]
        debug = [(r.u32(), r.u32(), r.u32(), r.u32()) for _ in range(r.u32())]
        code = r.take(r.u32())
        if r.pos != len(data):
            raise ImageError("trailing bytes after code section", offset=r.pos)
        img = cls(version, strings, consts, functions, debug, code)
        img.validate()
        return img

    def validate(self):
        nstr = len(self.strings)
        for idx, offset in self.functions:
            if idx >= nstr:
                raise ImageError(f"function name index {idx} out of range")
            if offset >= len(self.code):
                raise ImageError(f"function offset {offset} out of range")
        for _, _, _, oidx in self.debug:
            if oidx >= nstr:
                raise ImageError(f"debug origin index {oidx} out of range")
        decode_instructions(self.code)  # raises on malformed stream


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ImageError("truncated image", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def encode_instruction(opcode, args):
    out = bytearray([opcode])
    for kind, arg in zip(op.OPERANDS[opcode], args):
        out += struct.pack("<i" if kind == "i" else "<I", arg)
    return bytes(out)


def decode_instructions(code):
    """Decode a code section to [(offset, opcode, args)], validating it."""
    out = []
    pos = 0
    n = len(code)
    while pos < n:
        opcode = code[pos]
        if opcode not in op.OPERANDS:
            raise ImageError(f"unknown opcode {opcode}", offset=pos)
        kinds = op.OPERANDS[opcode]
        end = pos + 1 + 4 * len(kinds)
        if end > n:
            raise ImageError("truncated instruction", offset=pos)
        args = []
        apos = pos + 1
        for kind in kinds:
            fmt = "<i" if kind == "i" else "<I"
            args.append(struct.unpack_from(fmt, code, apos)[0])
            apos += 4
        out.append((pos, opcode, tuple(args)))
        pos = end
    return out
