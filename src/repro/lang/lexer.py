"""Hand-written lexer for the mini language.

The language is Pascal-flavoured: ``{ ... }`` block comments,
``//`` line comments, case-sensitive keywords, ``:=`` assignment.
"""

from __future__ import annotations

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

# ASCII only: ``str.isdigit`` is true for ``²``, which ``int()`` rejects.
_DIGITS = frozenset("0123456789")
_WORD_START = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_WORD = _WORD_START | _DIGITS

_SINGLE = {
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQ,
}


class Lexer:
    """Converts a source string into a list of tokens (EOF-terminated)."""

    def __init__(self, source: str):
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def _loc(self) -> SourceLocation:
        return SourceLocation(self._line, self._col)

    def _peek(self, ahead: int = 0) -> str:
        i = self._pos + ahead
        return self._src[i] if i < len(self._src) else ""

    def _advance(self) -> str:
        ch = self._src[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return ch

    def _skip_trivia(self) -> None:
        while self._pos < len(self._src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "{":
                start = self._loc()
                self._advance()
                while self._peek() != "}":
                    if self._pos >= len(self._src):
                        raise LexError("unterminated comment", start)
                    self._advance()
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _lex_number(self) -> Token:
        loc = self._loc()
        start = self._pos
        while self._peek() in _DIGITS:
            self._advance()
        is_real = False
        # A '.' is part of the number only when followed by a digit, so the
        # terminating 'end.' of a program never merges into a literal.
        if self._peek() == "." and self._peek(1) in _DIGITS:
            is_real = True
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in "eE" and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
        ):
            is_real = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        text = self._src[start : self._pos]
        if is_real:
            return Token(TokenKind.REAL, text, loc, float(text))
        return Token(TokenKind.INT, text, loc, int(text))

    def _lex_word(self) -> Token:
        loc = self._loc()
        start = self._pos
        while self._peek() in _WORD:
            self._advance()
        text = self._src[start : self._pos]
        kind = KEYWORDS.get(text)
        if kind is not None:
            return Token(kind, text, loc)
        return Token(TokenKind.IDENT, text, loc, text)

    def next_token(self) -> Token:
        self._skip_trivia()
        loc = self._loc()
        if self._pos >= len(self._src):
            return Token(TokenKind.EOF, "", loc)
        ch = self._peek()
        if ch in _DIGITS:
            return self._lex_number()
        if ch in _WORD_START:
            return self._lex_word()
        if ch == ":":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN, ":=", loc)
            return Token(TokenKind.COLON, ":", loc)
        if ch == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.LE, "<=", loc)
            if self._peek() == ">":
                self._advance()
                return Token(TokenKind.NE, "<>", loc)
            return Token(TokenKind.LT, "<", loc)
        if ch == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.GE, ">=", loc)
            return Token(TokenKind.GT, ">", loc)
        if ch in _SINGLE:
            self._advance()
            return Token(_SINGLE[ch], ch, loc)
        raise LexError(f"unexpected character {ch!r}", loc)

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            tok = self.next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; the returned list always ends with an EOF token."""
    return Lexer(source).tokenize()
