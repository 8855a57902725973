"""Binary bytecode image (.bo file) encoder, decoder and verifier.

Layout (all integers little-endian; see docs/bytecode.md):

    magic "SWBC" | u16 version
    strings:   u32 count, then per string u32 byte-length + UTF-8 bytes
    constants: u32 count, then per constant u8 tag (0=int64, 1=float64)
               + 8 payload bytes
    functions: u32 count, then per entry u32 name-string-index + u32 offset
    debug:     u32 count, then per entry u32 offset + u32 line + u32 col
               + u32 origin-string-index
    code:      u32 byte-length + instruction stream

`decode` and `asm.assemble` verify the code section; `BytecodeImage.main`
translates it (translate.py) when the image's first VM is created.
"""

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import ImageError
from .opcodes import (BRANCHES, CALL, CALLM, DONE, FUNC, JFKEEP, JTKEEP, JUMP,
                      LLOAD, LSTORE, MKCLOSURE, OPERANDS, RET, RETN, STACK,
                      ULOAD, USTORE)
from .translate import translate

MAGIC = b"SWBC"
VERSION = 1
MAX_LOCALS = 1024  # local slots per function; the compiler refuses more

TAG_INT = 0
TAG_FLOAT = 1


class Program(NamedTuple):
    """A verified code section: what translate.py builds the VM's code from.

    `instrs[i]` is the (opcode, operand) pair of the i-th instruction,
    `offsets[i]` its code offset and `depths[i]` its stack depth from the
    frame base, None where unreachable.  Jump operands are instruction
    indices, string/const operands are the pooled values, and MKCLOSURE
    operands are (entry, nparams, nlocals) prototypes.  An instruction
    without operands carries None, one with a single operand carries it
    bare, and ULOAD/USTORE carry (depth - 1, slot), the index of the
    captured frame in the closure's env.  `regions` holds one (start, end,
    nparams, nlocals) per region, the bootstrap at 0 and each function
    body from its entry, listed after every region it creates.
    """

    instrs: list
    offsets: list
    depths: list
    regions: list


@dataclass
class BytecodeImage:
    version: int = VERSION
    strings: list = field(default_factory=list)
    consts: list = field(default_factory=list)      # ("i"|"f", value)
    functions: list = field(default_factory=list)   # (name_idx, offset)
    debug: list = field(default_factory=list)       # (offset, line, col, origin_idx)
    code: bytes = b""

    @cached_property
    def program(self):
        """The code section decoded and verified, once per image.

        Every VM on the image shares it.  Raises ImageError for any image
        that breaks a rule of docs/bytecode.md, "Verification".
        """
        return _verify(self)

    @cached_property
    def main(self):
        """The verified bootstrap as Python, translated by the first VM.

        The functions it creates hold their own translations; none refers
        back to the image, so reference counting frees the image.
        """
        return translate(self.program)

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
        img.program  # verify now, so a bad file fails at load
        return img


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
    for kind, arg in zip(OPERANDS[opcode], args):
        out += struct.pack("<i" if kind == "i" else "<I", arg)
    return bytes(out)


def _error(offset, message):
    return ImageError(f"code @{offset}: {message}")


def decode_instructions(code):
    """Decode a code section to [(offset, opcode, args)], operands raw."""
    out = []
    pos = 0
    n = len(code)
    while pos < n:
        opcode = code[pos]
        if opcode not in OPERANDS:
            raise _error(pos, f"unknown opcode {opcode}")
        kinds = OPERANDS[opcode]
        end = pos + 1 + 4 * len(kinds)
        if end > n:
            raise _error(pos, "truncated instruction")
        args = []
        apos = pos + 1
        for kind in kinds:
            fmt = "<i" if kind == "i" else "<I"
            args.append(struct.unpack_from(fmt, code, apos)[0])
            apos += 4
        out.append((pos, opcode, tuple(args)))
        pos = end
    return out


_NO_FALL_THROUGH = frozenset((JUMP, RET, RETN, DONE))
_KEEPS = frozenset((JFKEEP, JTKEEP))  # keep the value on the jump


def _verify(img):
    """Decode and verify an image's code section into its Program.

    One pass over the instructions resolves operands and checks the
    per-instruction rules; the closure tree and a stack-depth worklist
    follow (docs/bytecode.md, "Verification").  Raises only ImageError.
    """
    strings, consts = img.strings, img.consts
    for idx, _ in img.functions:
        if not 0 <= idx < len(strings):
            raise ImageError(f"function name index {idx} out of range")
    for _, _, _, idx in img.debug:
        if not 0 <= idx < len(strings):
            raise ImageError(f"debug origin index {idx} out of range")
    raw = decode_instructions(img.code)
    if not raw:
        raise ImageError("empty code section")
    offsets = [offset for offset, _, _ in raw]
    index = {offset: i for i, offset in enumerate(offsets)}

    # an instruction's frame is the index of its function's FUNC header,
    # or 0 for the bootstrap, whose root frame has one local slot
    nlocals = {0: 1}
    owner = []
    frame = 0
    for i, (offset, opcode, args) in enumerate(raw):
        if opcode == FUNC:
            if i == 0:
                raise _error(offset, "function header at offset 0")
            if args[1] > MAX_LOCALS:
                raise _error(offset, f"{args[1]} locals, more than "
                                     f"{MAX_LOCALS}")
            frame = i
            nlocals[i] = args[1]
        owner.append(frame)

    for _, offset in img.functions:
        at = index.get(offset)
        if at is None or raw[at][1] != FUNC:
            raise ImageError(f"function table offset {offset} is not a "
                             "function header")

    instrs = []
    creator = {}   # FUNC index -> frame holding its one MKCLOSURE site
    upvalues = []  # (offset, frame, depth, slot), checked against chains
    last = len(raw) - 1
    for i, (offset, opcode, args) in enumerate(raw):
        frame = owner[i]
        kinds = OPERANDS[opcode]
        if not kinds:
            operand = None
            if opcode == DONE and frame:
                raise _error(offset, "DONE outside the bootstrap")
        elif kinds == "s":
            if args[0] >= len(strings):
                raise _error(offset, f"string index {args[0]} out of range")
            operand = strings[args[0]]
        elif kinds == "c":
            if args[0] >= len(consts):
                raise _error(offset, f"constant index {args[0]} out of "
                                     "range")
            operand = consts[args[0]][1]
        elif kinds == "j":
            operand = index.get(args[0])
            if operand is None:
                raise _error(offset, f"target {args[0]} is not an "
                                     "instruction boundary")
            if opcode == MKCLOSURE:
                func = operand
                if raw[func][1] != FUNC:
                    raise _error(offset, f"closure target {args[0]} is not "
                                         "a function header")
                if func in creator:
                    raise _error(offset, f"function @{args[0]} has a second "
                                         "MKCLOSURE site")
                creator[func] = frame
                operand = (func + 1, raw[func][2][0], nlocals[func])
            elif owner[operand] != frame or raw[operand][1] == FUNC:
                raise _error(offset, f"jump target {args[0]} is outside its "
                                     "function body")
        elif opcode == ULOAD or opcode == USTORE:
            upvalues.append((offset, frame) + args)
            operand = (args[0] - 1, args[1])
        elif opcode == FUNC:
            operand = args
        else:
            operand = args[0]
            if (opcode == LLOAD or opcode == LSTORE) \
                    and operand >= nlocals[frame]:
                raise _error(offset, f"local slot {operand} out of range")
        if opcode not in _NO_FALL_THROUGH:
            if i == last:
                raise _error(offset, "falls off the end of the code")
            if raw[i + 1][1] == FUNC:
                raise _error(offset, "falls through into a function header")
        instrs.append((opcode, operand))

    # the static closure chain: a function's env holds a frame of its
    # creator, of its creator's creator, ... up to the bootstrap
    chains = {0: ()}  # frame -> nlocals of env[0], env[1], ...
    for func in nlocals:
        path = []
        node = func
        while node not in chains:
            if node not in creator:
                raise _error(offsets[node], "function has no MKCLOSURE "
                                            "site")
            if node in path:
                raise _error(offsets[node], "MKCLOSURE sites form a cycle")
            path.append(node)
            node = creator[node]
        for func in reversed(path):
            parent = creator[func]
            chains[func] = (nlocals[parent],) + chains[parent]
    for offset, frame, depth, slot in upvalues:
        chain = chains[frame]
        if not 1 <= depth <= len(chain) or slot >= chain[depth - 1]:
            raise _error(offset, f"upvalue {depth} {slot} is outside the "
                                 "closure chain")

    # one stack depth, relative to the frame base, per reachable instruction
    depths = [None] * len(raw)
    work = [0] + [func + 1 for func in nlocals if func]
    for i in work:
        depths[i] = 0
    while work:
        i = work.pop()
        opcode, operand = instrs[i]
        here = depths[i]
        pops, pushes = STACK[opcode]
        if opcode == CALL or opcode == CALLM:
            pops += operand
        if here < pops:
            raise _error(offsets[i], f"stack underflow: pops {pops} of "
                                     f"{here}")
        after = here - pops + pushes
        if opcode in BRANCHES:
            _flow(depths, work, offsets, operand,
                  here if opcode in _KEEPS else after)
        if opcode not in _NO_FALL_THROUGH:
            _flow(depths, work, offsets, i + 1, after)

    # a created function's chain is its creator's plus one entry, so the
    # longest chains first lists each region after the regions it creates
    heads = list(nlocals)  # the bootstrap's frame 0, then each header
    ends = dict(zip(heads, heads[1:] + [len(raw)]))
    regions = [(0, ends[0], 0, 1) if frame == 0 else
               (frame + 1, ends[frame], raw[frame][2][0], nlocals[frame])
               for frame in sorted(heads, key=lambda f: len(chains[f]),
                                   reverse=True)]
    return Program(instrs, offsets, depths, regions)


def _flow(depths, work, offsets, i, depth):
    if depths[i] is None:
        depths[i] = depth
        work.append(i)
    elif depths[i] != depth:
        raise _error(offsets[i], f"stack depths {depths[i]} and {depth} "
                                 "meet")
