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
