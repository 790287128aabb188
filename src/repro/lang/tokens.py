"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SourceLocation


class TokenKind(enum.Enum):
    # Members are singletons compared by identity, so the C-level
    # identity hash is sound; ``Enum.__hash__`` is a Python function
    # that the parser's ``kind in {...}`` tests would call per token.
    __hash__ = object.__hash__

    # literals / identifiers
    IDENT = "identifier"
    INT = "integer literal"
    REAL = "real literal"

    # keywords
    PROGRAM = "program"
    VAR = "var"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    WHILE = "while"
    DO = "do"
    FOR = "for"
    TO = "to"
    DOWNTO = "downto"
    ARRAY = "array"
    OF = "of"
    KW_INT = "int"
    KW_REAL = "real"
    KW_BOOL = "bool"
    TRUE = "true"
    FALSE = "false"
    AND = "and"
    OR = "or"
    NOT = "not"
    DIV = "div"
    MOD = "mod"
    READ = "read"
    WRITE = "write"
    BREAK = "break"
    CONTINUE = "continue"

    # punctuation / operators
    SEMI = ";"
    COLON = ":"
    COMMA = ","
    DOT = "."
    ASSIGN = ":="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    EOF = "end of input"


#: Keyword spelling -> token kind.
KEYWORDS: dict[str, TokenKind] = {
    "program": TokenKind.PROGRAM,
    "var": TokenKind.VAR,
    "begin": TokenKind.BEGIN,
    "end": TokenKind.END,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "do": TokenKind.DO,
    "for": TokenKind.FOR,
    "to": TokenKind.TO,
    "downto": TokenKind.DOWNTO,
    "array": TokenKind.ARRAY,
    "of": TokenKind.OF,
    "int": TokenKind.KW_INT,
    "real": TokenKind.KW_REAL,
    "bool": TokenKind.KW_BOOL,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
    "div": TokenKind.DIV,
    "mod": TokenKind.MOD,
    "read": TokenKind.READ,
    "write": TokenKind.WRITE,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
}


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token.

    ``value`` holds the decoded payload: the identifier string for IDENT,
    an ``int`` for INT, a ``float`` for REAL, and ``None`` otherwise.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    value: object = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.location}"
