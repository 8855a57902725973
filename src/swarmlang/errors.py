"""Exception hierarchy shared by the toolchain and the runtime."""


class SwarmlangError(Exception):
    """Base class for all swarmlang errors."""


class SourceError(SwarmlangError):
    """An error at a position in a source script: a diagnostic of the
    front end, or a runtime fault of a script (VmRuntimeError)."""

    def __init__(self, message, line=None, col=None, origin=None, hint=None):
        self.message = message
        self.line = line
        self.col = col
        self.origin = origin or "<script>"
        self.hint = hint
        super().__init__(str(self))

    def __str__(self):
        pos = self.origin
        if self.line is not None:
            pos += f":{self.line}:{self.col}"
        text = f"{pos}: {self.message}"
        if self.hint:
            text += f" (expected {self.hint})"
        return text


class LexError(SourceError):
    """Illegal character, unterminated string, malformed number."""


class ParseError(SourceError):
    """Token stream does not match the grammar."""


class CompileError(SourceError):
    """Structurally valid input that cannot be compiled."""


class LinkError(SwarmlangError):
    """Duplicate symbol or unresolved label while linking object units."""


class ImageError(SwarmlangError):
    """A bytecode image that cannot be loaded.

    Raised for a bad magic, an unsupported version or a truncated file,
    and by the load-time verifier for any code section that breaks a
    rule of docs/bytecode.md, "Verification": a bad pool index, jump or
    closure target, control flow, local or upvalue slot, or stack depth.
    A VM is only ever built on an image that passed, so no image can
    crash the host.
    """

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class AsmError(SwarmlangError):
    """Disassembly listing that cannot be re-assembled."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WireError(SwarmlangError):
    """Malformed or unserializable wire message."""


class VmError(SwarmlangError):
    """Host-side misuse of a VM (bad registration, bad robot id, ...)."""


class VmRuntimeError(SourceError):
    """Script-level runtime failure; faults the VM that raised it.

    Carries the source position recovered from the image debug map.
    """
