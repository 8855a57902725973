import pytest

from swarmlang.errors import LexError
from swarmlang.lexer import tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text) if t.kind != "EOF"]


def test_assignment_arithmetic():
    assert kinds("a = 3 + 7") == [
        ("IDENT", "a"), ("OP", "="), ("INT", 3), ("OP", "+"), ("INT", 7)]


def test_empty_input_is_just_eof():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind == "EOF"


def test_unterminated_string_position():
    with pytest.raises(LexError) as err:
        tokenize('"abc')
    assert err.value.line == 1
    assert err.value.col == 1


def test_operators_and_keywords():
    text = "if(a == 10) i = 0"
    assert kinds(text) == [
        ("KEYWORD", "if"), ("OP", "("), ("IDENT", "a"), ("OP", "=="),
        ("INT", 10), ("OP", ")"), ("IDENT", "i"), ("OP", "="), ("INT", 0)]


def test_two_char_operators():
    assert [v for _, v in kinds("a <= b >= c != d == e")] == \
        ["a", "<=", "b", ">=", "c", "!=", "d", "==", "e"]


def test_float_forms():
    vals = kinds("50. 0.5 2700.0 1e3 2.5e-1")
    assert [v for k, v in vals if k == "FLOAT"] == \
        [50.0, 0.5, 2700.0, 1000.0, 0.25]


def test_comments_do_not_eat_newlines():
    toks = tokenize("a = 1 # set a\nb = 2")
    assert sum(1 for t in toks if t.kind == "NEWLINE") == 1
    assert [t.value for t in toks if t.kind == "IDENT"] == ["a", "b"]


def test_string_escapes():
    (kind, value), = kinds(r'"a\"b\\c\nd\te"')
    assert kind == "STRING"
    assert value == 'a"b\\c\nd\te'


def test_illegal_character():
    with pytest.raises(LexError):
        tokenize("a = 3 $ 4")


def test_unknown_escape():
    with pytest.raises(LexError):
        tokenize(r'"\q"')


@pytest.mark.parametrize("text", ["x = " + "9" * 5000, "x = 1\u00b2",
                                  "x = 1.5\u00b2", "x = 1e\u00b2"],
                         ids=["5000-digits", "int-superscript",
                              "float-superscript", "exponent-superscript"])
def test_numbers_python_cannot_convert_are_lex_errors(text):
    # 5000 digits pass int()'s limit; ² is a digit to str.isdigit only
    with pytest.raises(LexError, match="malformed number") as err:
        tokenize(text)
    assert (err.value.line, err.value.col) == (1, 5)


def test_positions_track_lines():
    toks = tokenize("a = 1\n  b = 2")
    b = next(t for t in toks if t.value == "b")
    assert (b.line, b.col) == (2, 3)


# Each column is the offset past the start of its line, plus 1.
@pytest.mark.parametrize("text, where, message", [
    ('x = "ab\nc"', "1:5", "unterminated string"),
    ('a = 1\n  "x', "2:3", "unterminated string"),
    ('"ab\\', "1:1", "unterminated string"),
    ('x = "a\\qb"', "1:7", "unknown escape '\\q'"),
    ("a ! b", "1:3", "illegal character '!' (did you mean '!='?)"),
    ("x = \u00bd", "1:5", "illegal character '\u00bd'"),
    ("x = \u216b", "1:5", "illegal character '\u216b'"),
    ("a =\u00a0b", "1:4", "illegal character '\\xa0'"),
    ("a\x0bb", "1:2", "illegal character '\\x0b'"),
], ids=["string-cut-by-newline", "string-on-line-2", "lone-backslash",
        "unknown-escape", "lone-bang", "vulgar-half", "roman-twelve", "nbsp",
        "vertical-tab"])
def test_lex_error_texts_and_positions(text, where, message):
    with pytest.raises(LexError) as err:
        tokenize(text, origin="t.swl")
    assert str(err.value) == f"t.swl:{where}: {message}"


# A name starts with a letter (str.isalpha) or "_" and goes on with any
# character str.isalnum accepts; a number is made of str.isdigit digits.
@pytest.mark.parametrize("text, tokens", [
    ("a\u00b2", [("IDENT", "a\u00b2")]),
    ("a\u00bd\u216b", [("IDENT", "a\u00bd\u216b")]),
    ("\u00e9t\u00e9", [("IDENT", "\u00e9t\u00e9")]),
    ("\u0663\u0664 _\u0663", [("INT", 34), ("IDENT", "_\u0663")]),
], ids=["superscript-two", "half-and-roman-twelve", "e-acute",
        "arabic-indic-digits"])
def test_unicode_letters_and_digits(text, tokens):
    assert kinds(text) == tokens


def test_a_comment_may_end_the_text():
    assert kinds("a = 1 # no newline after") == [
        ("IDENT", "a"), ("OP", "="), ("INT", 1)]
