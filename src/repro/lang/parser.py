"""Recursive-descent parser producing the AST of :mod:`repro.lang.ast_nodes`.

Grammar (EBNF):

    program    := "program" IDENT ";" [vardecls] block "."
    vardecls   := "var" { identlist ":" type ";" }
    identlist  := IDENT { "," IDENT }
    type       := "int" | "real" | "bool" | "array" "[" INT "]" "of" base
    block      := "begin" { stmt ";" } "end"
    stmt       := assign | if | while | for | write | read | block
                | "break" | "continue"
    assign     := lvalue ":=" expr
    if         := "if" expr "then" stmt [ "else" stmt ]
    while      := "while" expr "do" stmt
    for        := "for" IDENT ":=" expr ("to"|"downto") expr "do" stmt
    expr       := orexpr
    orexpr     := andexpr { "or" andexpr }
    andexpr    := notexpr { "and" notexpr }
    notexpr    := "not" notexpr | rel
    rel        := add [ relop add ]
    add        := mul { ("+"|"-") mul }
    mul        := unary { ("*"|"/"|"div"|"mod") unary }
    unary      := ("-"|"+") unary | primary
    primary    := INT | REAL | "true" | "false" | "(" expr ")"
                | IDENT [ "[" expr "]" | "(" args ")" ]

The later passes walk the tree recursively, so nesting deeper than
:data:`MAX_NESTING` levels (``docs/language.md``) is a
:class:`ParseError`, not a ``RecursionError`` in some later pass.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import Token, TokenKind

_REL_OPS = {
    TokenKind.EQ: "=",
    TokenKind.NE: "<>",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

_ADD_OPS = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}

_MUL_OPS = {
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.DIV: "div",
    TokenKind.MOD: "mod",
}

#: Deepest nesting the parser accepts (see the module docstring).
MAX_NESTING = 64

_STMT_START = {
    TokenKind.IDENT,
    TokenKind.IF,
    TokenKind.WHILE,
    TokenKind.FOR,
    TokenKind.BEGIN,
    TokenKind.WRITE,
    TokenKind.READ,
    TokenKind.BREAK,
    TokenKind.CONTINUE,
}


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0  # statements and bracketed expressions now open
        self._heights: dict[int, int] = {}  # id(expr) -> height; leaves 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text or tok.kind.value!r}",
                tok.location,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _too_deep(self, location: SourceLocation) -> ParseError:
        return ParseError(f"nesting deeper than {MAX_NESTING} levels", location)

    def _open(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._too_deep(self._peek().location)

    def _built(self, node: ast.Expr, *children: ast.Expr) -> ast.Expr:
        """Record ``node``'s height, checking it under the open levels."""
        heights = self._heights
        height = 1 + max([heights.get(id(c), 0) for c in children] or [0])
        if self._depth + height > MAX_NESTING:
            raise self._too_deep(node.location)
        heights[id(node)] = height
        return node

    def _binary(
        self, tok: Token, op: str, left: ast.Expr, right: ast.Expr
    ) -> ast.Expr:
        node = ast.BinaryOp(tok.location, op, left, right)
        return self._built(node, left, right)

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        start = self._expect(TokenKind.PROGRAM)
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.SEMI)
        decls = self._parse_vardecls() if self._at(TokenKind.VAR) else []
        body = self._parse_block()
        self._expect(TokenKind.DOT)
        self._expect(TokenKind.EOF)
        return ast.Program(start.location, name, decls, body)

    def _parse_vardecls(self) -> list[ast.VarDecl]:
        self._expect(TokenKind.VAR)
        decls: list[ast.VarDecl] = []
        while self._at(TokenKind.IDENT):
            loc = self._peek().location
            names = [self._expect(TokenKind.IDENT).text]
            while self._accept(TokenKind.COMMA):
                names.append(self._expect(TokenKind.IDENT).text)
            self._expect(TokenKind.COLON)
            typ = self._parse_type()
            self._expect(TokenKind.SEMI)
            decls.append(ast.VarDecl(loc, names, typ))
        return decls

    def _parse_type(self) -> ast.Type:
        tok = self._peek()
        if self._accept(TokenKind.KW_INT):
            return ast.INT
        if self._accept(TokenKind.KW_REAL):
            return ast.REAL
        if self._accept(TokenKind.KW_BOOL):
            return ast.BOOL
        if self._accept(TokenKind.ARRAY):
            self._expect(TokenKind.LBRACKET)
            size_tok = self._expect(TokenKind.INT)
            size = int(size_tok.value)  # type: ignore[arg-type]
            if size <= 0:
                raise ParseError("array size must be positive", size_tok.location)
            self._expect(TokenKind.RBRACKET)
            self._expect(TokenKind.OF)
            base = self._parse_type()
            if base.is_array or base.base is ast.BaseType.BOOL:
                raise ParseError(
                    "array element type must be int or real", tok.location
                )
            return ast.Type(base.base, size)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.location)

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.BEGIN)
        body: list[ast.Stmt] = []
        while not self._at(TokenKind.END):
            body.append(self._parse_stmt())
            # Semicolons are statement separators; the final one is optional.
            if not self._accept(TokenKind.SEMI) and not self._at(TokenKind.END):
                tok = self._peek()
                raise ParseError(
                    f"expected ';' or 'end', found {tok.text!r}", tok.location
                )
        self._expect(TokenKind.END)
        return ast.Block(start.location, body)

    def _parse_stmt(self) -> ast.Stmt:
        self._open()
        stmt = self._parse_stmt_body()
        self._depth -= 1
        return stmt

    def _parse_stmt_body(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.BEGIN:
            return self._parse_block()
        if tok.kind is TokenKind.IF:
            return self._parse_if()
        if tok.kind is TokenKind.WHILE:
            return self._parse_while()
        if tok.kind is TokenKind.FOR:
            return self._parse_for()
        if tok.kind is TokenKind.WRITE:
            self._advance()
            self._expect(TokenKind.LPAREN)
            value = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return ast.Write(tok.location, value)
        if tok.kind is TokenKind.READ:
            self._advance()
            self._expect(TokenKind.LPAREN)
            target = self._parse_lvalue()
            self._expect(TokenKind.RPAREN)
            return ast.Read(tok.location, target)
        if tok.kind is TokenKind.BREAK:
            self._advance()
            return ast.Break(tok.location)
        if tok.kind is TokenKind.CONTINUE:
            self._advance()
            return ast.Continue(tok.location)
        if tok.kind is TokenKind.IDENT:
            target = self._parse_lvalue()
            self._expect(TokenKind.ASSIGN)
            value = self._parse_expr()
            return ast.Assign(tok.location, target, value)
        raise ParseError(f"expected a statement, found {tok.text!r}", tok.location)

    def _parse_if(self) -> ast.If:
        tok = self._expect(TokenKind.IF)
        cond = self._parse_expr()
        self._expect(TokenKind.THEN)
        then_body = self._parse_stmt()
        else_body = None
        if self._accept(TokenKind.ELSE):
            else_body = self._parse_stmt()
        return ast.If(tok.location, cond, then_body, else_body)

    def _parse_while(self) -> ast.While:
        tok = self._expect(TokenKind.WHILE)
        cond = self._parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_stmt()
        return ast.While(tok.location, cond, body)

    def _parse_for(self) -> ast.For:
        tok = self._expect(TokenKind.FOR)
        var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.ASSIGN)
        start = self._parse_expr()
        if self._accept(TokenKind.TO):
            downto = False
        elif self._accept(TokenKind.DOWNTO):
            downto = True
        else:
            bad = self._peek()
            raise ParseError(
                f"expected 'to' or 'downto', found {bad.text!r}", bad.location
            )
        stop = self._parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_stmt()
        return ast.For(tok.location, var, start, stop, downto, body)

    def _parse_lvalue(self) -> ast.Expr:
        tok = self._expect(TokenKind.IDENT)
        if self._accept(TokenKind.LBRACKET):
            index = self._parse_expr()
            self._expect(TokenKind.RBRACKET)
            ref = ast.IndexRef(tok.location, tok.text, index)
            return self._built(ref, index)
        return ast.VarRef(tok.location, tok.text)

    # -- expressions ----------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        self._open()
        expr = self._parse_or()
        self._depth -= 1
        return expr

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.OR):
            tok = self._advance()
            right = self._parse_and()
            left = self._binary(tok, "or", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at(TokenKind.AND):
            tok = self._advance()
            right = self._parse_not()
            left = self._binary(tok, "and", left, right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at(TokenKind.NOT):
            tok = self._advance()
            self._open()
            operand = self._parse_not()
            self._depth -= 1
            expr = ast.UnaryOp(tok.location, "not", operand)
            return self._built(expr, operand)
        return self._parse_rel()

    def _parse_rel(self) -> ast.Expr:
        left = self._parse_add()
        kind = self._peek().kind
        if kind in _REL_OPS:
            tok = self._advance()
            right = self._parse_add()
            return self._binary(tok, _REL_OPS[kind], left, right)
        return left

    def _parse_add(self) -> ast.Expr:
        left = self._parse_mul()
        while self._peek().kind in _ADD_OPS:
            tok = self._advance()
            right = self._parse_mul()
            left = self._binary(tok, _ADD_OPS[tok.kind], left, right)
        return left

    def _parse_mul(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in _MUL_OPS:
            tok = self._advance()
            right = self._parse_unary()
            left = self._binary(tok, _MUL_OPS[tok.kind], left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.MINUS or tok.kind is TokenKind.PLUS:
            self._advance()
            self._open()
            operand = self._parse_unary()
            self._depth -= 1
            if tok.kind is TokenKind.PLUS:
                return operand
            expr = ast.UnaryOp(tok.location, "-", operand)
            return self._built(expr, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(tok.location, int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.REAL:
            self._advance()
            return ast.RealLit(tok.location, float(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLit(tok.location, True)
        if tok.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLit(tok.location, False)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if self._accept(TokenKind.LBRACKET):
                index = self._parse_expr()
                self._expect(TokenKind.RBRACKET)
                ref = ast.IndexRef(tok.location, tok.text, index)
                return self._built(ref, index)
            if self._accept(TokenKind.LPAREN):
                args: list[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    while self._accept(TokenKind.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenKind.RPAREN)
                call = ast.Call(tok.location, tok.text, args)
                return self._built(call, *args)
            return ast.VarRef(tok.location, tok.text)
        raise ParseError(
            f"expected an expression, found {tok.text or tok.kind.value!r}",
            tok.location,
        )


def parse(source: str) -> ast.Program:
    """Parse a complete program from source text."""
    return Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (handy for tests)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expr()
    parser._expect(TokenKind.EOF)
    return expr
