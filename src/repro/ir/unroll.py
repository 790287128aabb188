"""AST-level loop unrolling.

LIW compilers live and die by basic-block size: the paper's RLIW
compiler compacts operations from large scheduling regions, so its
instructions carry many parallel operands.  Unrolling ``for`` loops by a
factor U replicates the body U times inside a stride-U while loop (plus
a remainder loop), giving the list scheduler U independent iterations to
pack — and giving the conflict graph the density the paper's Table 1
operates on.

A ``for`` loop is unrolled only when it is safe and profitable:

- its body contains no ``break``/``continue`` (control may not leave a
  replicated body half-way);
- its body does not assign the loop variable (Pascal forbids it; we
  check anyway);
- bounds are evaluated once, exactly as the non-unrolled lowering does.

The transformation runs before semantic analysis; synthetic bound
variables are appended to the declarations.  It leaves its input
unchanged: every statement on the path to a rewritten loop is a new
node, untouched subtrees are shared with the input, and each replica
of a loop body is a structural clone (:func:`clone`).
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache
from typing import TypeVar

from ..lang import ast_nodes as ast
from ..lang.errors import SourceLocation


_T = TypeVar("_T")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Every field of an AST node class, ``init=False`` ones
    (``Expr.type``) included."""
    return tuple(f.name for f in fields(cls))


def clone(value: _T) -> _T:
    """A structural copy of an AST subtree: every :class:`ast.Node` and
    every list in it is new; the immutable leaves (``str``, numbers,
    ``None``, the frozen :class:`ast.Type` and :class:`SourceLocation`)
    are shared."""
    if isinstance(value, list):
        return [clone(item) for item in value]  # type: ignore[return-value]
    if not isinstance(value, ast.Node):
        return value
    cls = type(value)
    copy = object.__new__(cls)
    for name in _field_names(cls):
        setattr(copy, name, clone(getattr(value, name)))
    return copy  # type: ignore[return-value]


def _contains_loop_escape(stmt: ast.Stmt) -> bool:
    """True if stmt contains a break/continue not enclosed in a nested
    loop (i.e. one that would target the loop being unrolled)."""
    if isinstance(stmt, (ast.Break, ast.Continue)):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_loop_escape(s) for s in stmt.body)
    if isinstance(stmt, ast.If):
        if _contains_loop_escape(stmt.then_body):
            return True
        return stmt.else_body is not None and _contains_loop_escape(
            stmt.else_body
        )
    # While/For bodies swallow their own break/continue.
    return False


def _contains_loop(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, (ast.While, ast.For)):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_loop(s) for s in stmt.body)
    if isinstance(stmt, ast.If):
        if _contains_loop(stmt.then_body):
            return True
        return stmt.else_body is not None and _contains_loop(stmt.else_body)
    return False


def _assigns_var(stmt: ast.Stmt, name: str) -> bool:
    if isinstance(stmt, ast.Assign):
        return isinstance(stmt.target, ast.VarRef) and stmt.target.name == name
    if isinstance(stmt, ast.Read):
        return isinstance(stmt.target, ast.VarRef) and stmt.target.name == name
    if isinstance(stmt, ast.Block):
        return any(_assigns_var(s, name) for s in stmt.body)
    if isinstance(stmt, ast.If):
        if _assigns_var(stmt.then_body, name):
            return True
        return stmt.else_body is not None and _assigns_var(
            stmt.else_body, name
        )
    if isinstance(stmt, ast.While):
        return _assigns_var(stmt.body, name)
    if isinstance(stmt, ast.For):
        return stmt.var == name or _assigns_var(stmt.body, name)
    return False


class Unroller:
    def __init__(self, factor: int, innermost_only: bool = True):
        if factor < 1:
            raise ValueError("unroll factor must be >= 1")
        self.factor = factor
        self.innermost_only = innermost_only
        self._counter = 0
        self.new_decls: list[str] = []

    def _fresh_bound(self) -> str:
        self._counter += 1
        name = f"__u{self._counter}_hi"
        self.new_decls.append(name)
        return name

    def transform(self, stmt: ast.Stmt) -> ast.Stmt:
        """``stmt`` with its eligible loops unrolled: ``stmt`` itself
        when nothing inside it changed, else a new node."""
        if isinstance(stmt, ast.Block):
            body = [self.transform(s) for s in stmt.body]
            if all(new is old for new, old in zip(body, stmt.body)):
                return stmt
            return replace(stmt, body=body)
        if isinstance(stmt, ast.If):
            then_body = self.transform(stmt.then_body)
            else_body = (
                None if stmt.else_body is None
                else self.transform(stmt.else_body)
            )
            if then_body is stmt.then_body and else_body is stmt.else_body:
                return stmt
            return replace(stmt, then_body=then_body, else_body=else_body)
        if isinstance(stmt, ast.While):
            body = self.transform(stmt.body)
            return stmt if body is stmt.body else replace(stmt, body=body)
        if isinstance(stmt, ast.For):
            inner = self.innermost_only and _contains_loop(stmt.body)
            body = self.transform(stmt.body)
            if body is not stmt.body:
                stmt = replace(stmt, body=body)
            if inner:
                return stmt  # only innermost loops are replicated
            return self._unroll_for(stmt)
        return stmt

    def _unroll_for(self, loop: ast.For) -> ast.Stmt:
        u = self.factor
        if u == 1:
            return loop
        if _contains_loop_escape(loop.body) or _assigns_var(loop.body, loop.var):
            return loop

        loc: SourceLocation = loop.location
        bound = self._fresh_bound()

        def var(name: str) -> ast.VarRef:
            return ast.VarRef(loc, name)

        def lit(n: int) -> ast.IntLit:
            return ast.IntLit(loc, n)

        def step() -> ast.Assign:
            op = "-" if loop.downto else "+"
            return ast.Assign(
                loc, var(loop.var),
                ast.BinaryOp(loc, op, var(loop.var), lit(1)),
            )

        # bound := stop;  i := start
        pre: list[ast.Stmt] = [
            ast.Assign(loc, var(bound), loop.stop),
            ast.Assign(loc, var(loop.var), loop.start),
        ]

        # main loop: while i <= bound -/+ (u-1) do (body; i±1) * u
        if loop.downto:
            margin = ast.BinaryOp(loc, "+", var(bound), lit(u - 1))
            cond = ast.BinaryOp(loc, ">=", var(loop.var), margin)
        else:
            margin = ast.BinaryOp(loc, "-", var(bound), lit(u - 1))
            cond = ast.BinaryOp(loc, "<=", var(loop.var), margin)
        unrolled: list[ast.Stmt] = []
        for _ in range(u):
            unrolled.append(clone(loop.body))
            unrolled.append(step())
        main = ast.While(loc, cond, ast.Block(loc, unrolled))

        # remainder: while i <= bound do (body; i±1)
        rem_cond_op = ">=" if loop.downto else "<="
        rem_cond = ast.BinaryOp(loc, rem_cond_op, var(loop.var), var(bound))
        remainder = ast.While(
            loc,
            rem_cond,
            ast.Block(loc, [clone(loop.body), step()]),
        )

        return ast.Block(loc, [*pre, main, remainder])


def unroll_program(
    program: ast.Program, factor: int = 4, innermost_only: bool = True
) -> ast.Program:
    """The program with eligible ``for`` loops unrolled; ``program``
    itself is left unchanged (and returned when nothing unrolls).

    By default only innermost loops are replicated (nested unrolling
    multiplies code size by ``factor**depth`` for little extra ILP).
    Synthetic loop-bound variables are appended to the declarations.
    """
    if factor == 1:
        return program
    unroller = Unroller(factor, innermost_only)
    body = unroller.transform(program.body)
    if body is program.body:
        return program
    decls = [
        *program.decls,
        ast.VarDecl(program.location, unroller.new_decls, ast.INT),
    ]
    return replace(program, decls=decls, body=body)
