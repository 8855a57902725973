"""swarmlang: a small swarm-robotics scripting language and its runtime.

The package bundles the full toolchain (lexer, parser, compiler, linker,
disassembler), a stack-based VM with swarm/neighbor/stigmergy subsystems,
and a deterministic lockstep network simulator with experiment drivers.
"""

from .asm import assemble, disassemble
from .compiler import ObjectUnit, compile_source
from .errors import (AsmError, CompileError, ImageError, LexError, LinkError,
                     ParseError, SourceError, SwarmlangError, VmError,
                     VmRuntimeError, WireError)
from .image import BytecodeImage
from .lexer import Token, tokenize
from .linker import compile_and_link, link
from .parser import parse
from .values import NativeClosure, SwarmHandle, Table, VStigHandle
from .vm import SentMessage, Vm, VmConfig
from .wire import Situated, decode_message, encode_message

__version__ = "0.1.0"

__all__ = [
    "assemble", "disassemble", "ObjectUnit", "compile_source",
    "AsmError", "CompileError", "ImageError", "LexError", "LinkError",
    "ParseError", "SourceError", "SwarmlangError", "VmError",
    "VmRuntimeError", "WireError",
    "BytecodeImage", "Token", "tokenize", "compile_and_link", "link",
    "parse", "NativeClosure", "SwarmHandle", "Table",
    "VStigHandle", "SentMessage", "Vm", "VmConfig",
    "Situated", "decode_message", "encode_message",
    "__version__",
]
