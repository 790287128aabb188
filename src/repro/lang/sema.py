"""Semantic analysis: symbol table construction and type checking.

After :func:`analyze` runs, every expression node has its ``type`` set and
all names are guaranteed declared and consistently used.  Implicit
int->real widening is inserted conceptually (recorded as the result type);
the IR builder materialises the conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast_nodes as ast
from .errors import SemanticError

#: Intrinsic name -> (argument base types, result base type).  ``None`` in
#: the argument position means "int or real" (numeric), with the result
#: following the argument type when result is ``None``.
INTRINSICS: dict[str, tuple[tuple[object, ...], object]] = {
    "abs": ((None,), None),
    "min": ((None, None), None),
    "max": ((None, None), None),
    "sqrt": ((ast.BaseType.REAL,), ast.BaseType.REAL),
    "sin": ((ast.BaseType.REAL,), ast.BaseType.REAL),
    "cos": ((ast.BaseType.REAL,), ast.BaseType.REAL),
    "exp": ((ast.BaseType.REAL,), ast.BaseType.REAL),
    "ln": ((ast.BaseType.REAL,), ast.BaseType.REAL),
    "trunc": ((ast.BaseType.REAL,), ast.BaseType.INT),
    "float": ((ast.BaseType.INT,), ast.BaseType.REAL),
}


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    type: ast.Type


class SymbolTable:
    """Flat (single-scope) symbol table — the language has one global scope."""

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}

    def declare(self, name: str, typ: ast.Type, node: ast.Node) -> Symbol:
        if name in self._symbols:
            raise SemanticError(f"redeclaration of {name!r}", node.location)
        if name in INTRINSICS:
            raise SemanticError(
                f"{name!r} shadows an intrinsic function", node.location
            )
        sym = Symbol(name, typ)
        self._symbols[name] = sym
        return sym

    def lookup(self, name: str, node: ast.Node) -> Symbol:
        sym = self._symbols.get(name)
        if sym is None:
            raise SemanticError(f"undeclared variable {name!r}", node.location)
        return sym

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def symbols(self) -> list[Symbol]:
        return list(self._symbols.values())


def _numeric(t: ast.Type) -> bool:
    return not t.is_array and t.base in (ast.BaseType.INT, ast.BaseType.REAL)


def _unify_numeric(
    left: ast.Type, right: ast.Type, node: ast.Node, what: str
) -> ast.Type:
    if not (_numeric(left) and _numeric(right)):
        raise SemanticError(
            f"{what} requires numeric operands, got {left} and {right}",
            node.location,
        )
    if left.base is ast.BaseType.REAL or right.base is ast.BaseType.REAL:
        return ast.REAL
    return ast.INT


class Analyzer:
    def __init__(self) -> None:
        self.table = SymbolTable()
        self._loop_depth = 0
        #: ids of the statements checked inside some loop
        self._in_loops: set[int] = set()

    # -- program ----------------------------------------------------------

    def analyze(self, program: ast.Program) -> SymbolTable:
        for decl in program.decls:
            for name in decl.names:
                self.table.declare(name, decl.type, decl)
        self._stmt(program.body)
        return self.table

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        if self._loop_depth:
            # Unrolling puts one loop body node in every replica.  Inside
            # a loop a statement's verdict and types depend only on the
            # symbol table, so each shared node is checked once.
            if id(stmt) in self._in_loops:
                return
            self._in_loops.add(id(stmt))
        if isinstance(stmt, ast.Block):
            for child in stmt.body:
                self._stmt(child)
        elif isinstance(stmt, ast.Assign):
            target_t = self._lvalue(stmt.target)
            value_t = self._expr(stmt.value)
            self._check_assignable(target_t, value_t, stmt)
        elif isinstance(stmt, ast.If):
            cond_t = self._expr(stmt.cond)
            if cond_t != ast.BOOL:
                raise SemanticError(
                    f"if condition must be bool, got {cond_t}", stmt.location
                )
            self._stmt(stmt.then_body)
            if stmt.else_body is not None:
                self._stmt(stmt.else_body)
        elif isinstance(stmt, ast.While):
            cond_t = self._expr(stmt.cond)
            if cond_t != ast.BOOL:
                raise SemanticError(
                    f"while condition must be bool, got {cond_t}", stmt.location
                )
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.For):
            sym = self.table.lookup(stmt.var, stmt)
            if sym.type != ast.INT:
                raise SemanticError(
                    f"for-loop variable {stmt.var!r} must be int, is {sym.type}",
                    stmt.location,
                )
            for bound in (stmt.start, stmt.stop):
                t = self._expr(bound)
                if t != ast.INT:
                    raise SemanticError(
                        f"for-loop bound must be int, got {t}", stmt.location
                    )
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Write):
            t = self._expr(stmt.value)
            if t.is_array:
                raise SemanticError("cannot write a whole array", stmt.location)
        elif isinstance(stmt, ast.Read):
            self._lvalue(stmt.target)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                kind = "break" if isinstance(stmt, ast.Break) else "continue"
                raise SemanticError(f"{kind} outside of a loop", stmt.location)
        else:  # pragma: no cover - parser cannot produce other nodes
            raise SemanticError(
                f"unknown statement {type(stmt).__name__}", stmt.location
            )

    def _check_assignable(
        self, target: ast.Type, value: ast.Type, node: ast.Node
    ) -> None:
        if target == value:
            return
        # implicit int -> real widening on assignment
        if target == ast.REAL and value == ast.INT:
            return
        raise SemanticError(
            f"cannot assign {value} to {target}", node.location
        )

    # -- expressions ----------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> ast.Type:
        if isinstance(expr, ast.VarRef):
            sym = self.table.lookup(expr.name, expr)
            if sym.type.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without an index", expr.location
                )
            expr.type = sym.type
            return sym.type
        if isinstance(expr, ast.IndexRef):
            return self._index(expr)
        raise SemanticError("assignment target must be a variable", expr.location)

    def _index(self, expr: ast.IndexRef) -> ast.Type:
        sym = self.table.lookup(expr.name, expr)
        if not sym.type.is_array:
            raise SemanticError(
                f"{expr.name!r} is not an array", expr.location
            )
        index_t = self._expr(expr.index)
        if index_t != ast.INT:
            raise SemanticError(
                f"array index must be int, got {index_t}", expr.location
            )
        expr.type = sym.type.element()
        return expr.type

    def _expr(self, expr: ast.Expr) -> ast.Type:
        if isinstance(expr, ast.IntLit):
            expr.type = ast.INT
        elif isinstance(expr, ast.RealLit):
            expr.type = ast.REAL
        elif isinstance(expr, ast.BoolLit):
            expr.type = ast.BOOL
        elif isinstance(expr, ast.VarRef):
            sym = self.table.lookup(expr.name, expr)
            if sym.type.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without an index", expr.location
                )
            expr.type = sym.type
        elif isinstance(expr, ast.IndexRef):
            self._index(expr)
        elif isinstance(expr, ast.UnaryOp):
            operand_t = self._expr(expr.operand)
            if expr.op == "not":
                if operand_t != ast.BOOL:
                    raise SemanticError(
                        f"'not' requires bool, got {operand_t}", expr.location
                    )
                expr.type = ast.BOOL
            else:  # unary minus
                if not _numeric(operand_t):
                    raise SemanticError(
                        f"unary {expr.op!r} requires a number, got {operand_t}",
                        expr.location,
                    )
                expr.type = operand_t
        elif isinstance(expr, ast.BinaryOp):
            expr.type = self._binary(expr)
        elif isinstance(expr, ast.Call):
            expr.type = self._call(expr)
        else:  # pragma: no cover
            raise SemanticError(
                f"unknown expression {type(expr).__name__}", expr.location
            )
        return expr.type

    def _binary(self, expr: ast.BinaryOp) -> ast.Type:
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        op = expr.op
        if op in ("and", "or"):
            if left != ast.BOOL or right != ast.BOOL:
                raise SemanticError(
                    f"{op!r} requires bool operands, got {left} and {right}",
                    expr.location,
                )
            return ast.BOOL
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if left == ast.BOOL and right == ast.BOOL and op in ("=", "<>"):
                return ast.BOOL
            _unify_numeric(left, right, expr, f"comparison {op!r}")
            return ast.BOOL
        if op in ("div", "mod"):
            if left != ast.INT or right != ast.INT:
                raise SemanticError(
                    f"{op!r} requires int operands, got {left} and {right}",
                    expr.location,
                )
            return ast.INT
        if op == "/":
            _unify_numeric(left, right, expr, "division")
            return ast.REAL
        # + - *
        return _unify_numeric(left, right, expr, f"operator {op!r}")

    def _call(self, expr: ast.Call) -> ast.Type:
        sig = INTRINSICS.get(expr.name)
        if sig is None:
            raise SemanticError(
                f"unknown intrinsic {expr.name!r}", expr.location
            )
        arg_spec, result_spec = sig
        if len(expr.args) != len(arg_spec):
            raise SemanticError(
                f"{expr.name} expects {len(arg_spec)} argument(s), "
                f"got {len(expr.args)}",
                expr.location,
            )
        arg_types = [self._expr(a) for a in expr.args]
        widened = ast.INT
        for spec, got in zip(arg_spec, arg_types):
            if spec is None:
                if not _numeric(got):
                    raise SemanticError(
                        f"{expr.name} requires numeric arguments, got {got}",
                        expr.location,
                    )
                if got == ast.REAL:
                    widened = ast.REAL
            else:
                want = ast.Type(spec)  # type: ignore[arg-type]
                if got != want and not (want == ast.REAL and got == ast.INT):
                    raise SemanticError(
                        f"{expr.name} requires {want}, got {got}", expr.location
                    )
        if result_spec is None:
            return widened
        return ast.Type(result_spec)  # type: ignore[arg-type]


def analyze(program: ast.Program) -> SymbolTable:
    """Type-check ``program`` in place and return its symbol table."""
    return Analyzer().analyze(program)
