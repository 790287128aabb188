"""Unit tests for the lexer."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(source: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(source)]


def test_empty_source_gives_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.EOF


def test_integer_literal():
    tok = tokenize("42")[0]
    assert tok.kind is TokenKind.INT
    assert tok.value == 42


def test_real_literal():
    tok = tokenize("3.25")[0]
    assert tok.kind is TokenKind.REAL
    assert tok.value == 3.25


def test_real_with_exponent():
    assert tokenize("1e3")[0].value == 1000.0
    assert tokenize("2.5e-2")[0].value == 0.025
    assert tokenize("1E+2")[0].value == 100.0


def test_int_dot_not_real_when_end_marker():
    # 'end.' after a number: the dot must stay a separate token
    toks = tokenize("5 .")
    assert toks[0].kind is TokenKind.INT
    assert toks[1].kind is TokenKind.DOT


def test_number_followed_by_dot_digit_is_real():
    toks = tokenize("5.0.")
    assert toks[0].kind is TokenKind.REAL
    assert toks[1].kind is TokenKind.DOT


def test_identifier_and_keyword():
    toks = tokenize("while whilst")
    assert toks[0].kind is TokenKind.WHILE
    assert toks[1].kind is TokenKind.IDENT
    assert toks[1].value == "whilst"


def test_keywords_are_case_sensitive():
    toks = tokenize("While")
    assert toks[0].kind is TokenKind.IDENT


def test_two_char_operators():
    assert kinds(":= <= >= <> <")[:-1] == [
        TokenKind.ASSIGN,
        TokenKind.LE,
        TokenKind.GE,
        TokenKind.NE,
        TokenKind.LT,
    ]


def test_colon_alone():
    assert kinds("x : int")[1] is TokenKind.COLON


def test_brace_comment_skipped():
    toks = tokenize("a { this is a comment } b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_line_comment_skipped():
    toks = tokenize("a // rest of line\nb")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_unterminated_comment_raises():
    with pytest.raises(LexError):
        tokenize("a { never closed")


def test_unexpected_character_raises():
    with pytest.raises(LexError) as exc:
        tokenize("a $ b")
    assert "$" in str(exc.value)


def test_locations_track_lines_and_columns():
    toks = tokenize("a\n  b")
    assert (toks[0].location.line, toks[0].location.column) == (1, 1)
    assert (toks[1].location.line, toks[1].location.column) == (2, 3)


def test_underscore_identifier():
    tok = tokenize("_tmp1")[0]
    assert tok.kind is TokenKind.IDENT
    assert tok.value == "_tmp1"


def test_all_single_char_punctuation():
    src = "; , . ( ) [ ] + - * / ="
    expected = [
        TokenKind.SEMI, TokenKind.COMMA, TokenKind.DOT,
        TokenKind.LPAREN, TokenKind.RPAREN,
        TokenKind.LBRACKET, TokenKind.RBRACKET,
        TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR,
        TokenKind.SLASH, TokenKind.EQ,
    ]
    assert kinds(src)[:-1] == expected


@pytest.mark.parametrize("char", ["²", "٣", "é"])
def test_non_ascii_digits_and_letters_raise_lex_error(char):
    # ``str.isdigit``/``isalpha`` accept these; the language does not.
    with pytest.raises(LexError) as exc:
        tokenize(f"x := {char};")
    assert repr(char) in str(exc.value)


def test_superscript_digit_fails_compile_source_with_lex_error():
    from repro.pipeline import compile_source

    with pytest.raises(LexError, match="unexpected character '²' at 1:35"):
        compile_source("program p; var x: int; begin x := ²; write(x) end.")
