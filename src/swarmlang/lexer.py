"""Tokenizer for swarmlang source text.

Newlines are significant (they terminate statements, like `;`) so the
lexer emits NEWLINE tokens instead of discarding them; the parser decides
where they may be skipped.  `#` starts a comment running to end of line.
"""

import re
from dataclasses import dataclass

from .errors import LexError, SourceError

KEYWORDS = {"function", "return", "if", "else", "while", "var", "nil",
            "and", "or", "not"}

# longest match first
OPERATOR = re.compile(r"==|!=|<=|>=|[-+*/%^<>=(){}\[\].,;]")
# the rest of an identifier: \w is isalnum() or "_" on every code point, but
# no class is isalpha() or isdigit(), the tests of its start and of numbers
IDENT_TAIL = re.compile(r"\w*")
# a string's body: plain characters and escape pairs, up to the first
# '"', newline or lone backslash at the end of the text
STRING_BODY = re.compile(r'[^"\\\n]*(?:\\.[^"\\\n]*)*', re.S)
ESCAPE = re.compile(r"\\(.)", re.S)
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
    """Tokenize source text into a list ending with an EOF token.

    The offset `i` is the one position kept: a token's column is its
    offset past the start of its line, plus 1.
    """
    tokens = []
    i = line_start = 0  # the cursor, and the offset where its line starts
    line = 1
    n = len(text)

    def error(msg, at):
        raise LexError(msg, line, at - line_start + 1, origin)

    def digits(j):
        while j < n and text[j].isdigit():
            j += 1
        return j

    while i < n:
        ch = text[i]
        col = i - line_start + 1
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            line_start = i
        elif ch in " \t\r":
            i += 1
        elif ch == "#":
            i = text.find("\n", i)
            if i < 0:
                i = n
        elif ch == '"':
            j = STRING_BODY.match(text, i + 1).end()
            for m in ESCAPE.finditer(text, i + 1, j):
                if m[1] not in STRING_ESCAPES:
                    error(f"unknown escape '\\{m[1]}'", m.start())
            if j == n or text[j] != '"':  # a newline, a lone \ or the end
                error("unterminated string", i)
            value = ESCAPE.sub(lambda m: STRING_ESCAPES[m[1]], text[i + 1:j])
            tokens.append(Token("STRING", value, line, col))
            i = j + 1
        elif ch.isdigit():
            j = digits(i)
            is_float = j < n and text[j] == "."
            if is_float:
                j = digits(j + 1)
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k == n or not text[k].isdigit():
                    error("malformed number exponent", i)
                is_float = True
                j = digits(k)
            try:
                value = float(text[i:j]) if is_float else int(text[i:j])
            except ValueError:  # past int()'s digit limit, or a digit like ²
                error("malformed number", i)
            tokens.append(Token("FLOAT" if is_float else "INT", value,
                                line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = IDENT_TAIL.match(text, i + 1).end()
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, col))
            i = j
        elif m := OPERATOR.match(text, i):
            tokens.append(Token("OP", m.group(), line, col))
            i = m.end()
        else:
            hint = " (did you mean '!='?)" if ch == "!" else ""
            error(f"illegal character {ch!r}{hint}", i)

    tokens.append(Token("EOF", None, line, n - line_start + 1))
    return tokens
