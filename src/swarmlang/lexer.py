"""Tokenizer for swarmlang source text.

Newlines are significant (they terminate statements, like `;`) so the
lexer emits NEWLINE tokens instead of discarding them; the parser decides
where they may be skipped.  `#` starts a comment running to end of line.
"""

from dataclasses import dataclass

from .errors import LexError, SourceError

KEYWORDS = {"function", "return", "if", "else", "while", "var", "nil",
            "and", "or", "not"}

# longest match first
TWO_CHAR_OPS = {"==", "!=", "<=", ">="}
ONE_CHAR_OPS = set("+-*/%^<>=(){}[].,;")

STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Token:
    kind: str      # NEWLINE INT FLOAT STRING IDENT KEYWORD OP EOF
    value: object
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def read_source(path):
    """The text of the source file at `path`, newlines translated as by
    `open`.  Bytes that are not UTF-8 raise SourceError, OSError passes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SourceError(f"source is not valid UTF-8: {exc.reason}",
                          origin=path) from None


def tokenize(text, origin="<script>"):
    """Tokenize source text into a list ending with an EOF token."""
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(msg, l=None, c=None):
        raise LexError(msg, l if l is not None else line,
                       c if c is not None else col, origin)

    while i < n:
        ch = text[i]

        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue

        start_line, start_col = line, col

        if ch == '"':
            i += 1
            col += 1
            parts = []
            while True:
                if i >= n or text[i] == "\n":
                    error("unterminated string", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        error("unterminated string", start_line, start_col)
                    esc = text[i + 1]
                    if esc not in STRING_ESCAPES:
                        error(f"unknown escape '\\{esc}'")
                    parts.append(STRING_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            tokens.append(Token("STRING", "".join(parts), start_line, start_col))
            continue

        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == ".":
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k >= n or not text[k].isdigit():
                    error("malformed number exponent", start_line, start_col)
                is_float = True
                j = k
                while j < n and text[j].isdigit():
                    j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme) if is_float else int(lexeme)
            except ValueError:  # past int()'s digit limit, or a digit like ²
                error("malformed number", start_line, start_col)
            tokens.append(Token("FLOAT" if is_float else "INT", value,
                                start_line, start_col))
            col += j - i
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue

        if text[i:i + 2] in TWO_CHAR_OPS:
            tokens.append(Token("OP", text[i:i + 2], start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR_OPS:
            tokens.append(Token("OP", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "!":
            error("illegal character '!' (did you mean '!='?)")
        error(f"illegal character {ch!r}")

    tokens.append(Token("EOF", None, line, col))
    return tokens
