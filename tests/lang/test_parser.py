"""Unit tests for the parser."""

import pytest

from repro.lang import ParseError, parse, parse_expression
from repro.lang import ast_nodes as ast
from repro.lang.parser import MAX_NESTING
from repro.pipeline import compile_source


def wrap(body: str, decls: str = "var x, y, i: int; a: array[8] of int;") -> str:
    return f"program t; {decls} begin {body} end."


def test_minimal_program():
    prog = parse("program empty; begin end.")
    assert prog.name == "empty"
    assert prog.decls == []
    assert prog.body.body == []


def test_var_decls_grouping():
    prog = parse(wrap("x := 1"))
    assert prog.decls[0].names == ["x", "y", "i"]
    assert prog.decls[0].type == ast.INT
    assert prog.decls[1].type.is_array
    assert prog.decls[1].type.array_size == 8


def test_array_of_real():
    prog = parse("program t; var a: array[4] of real; begin end.")
    assert prog.decls[0].type == ast.Type(ast.BaseType.REAL, 4)


def test_array_of_bool_rejected():
    with pytest.raises(ParseError):
        parse("program t; var a: array[4] of bool; begin end.")


def test_array_size_must_be_positive():
    with pytest.raises(ParseError):
        parse("program t; var a: array[0] of int; begin end.")


def test_assignment_to_array_element():
    prog = parse(wrap("a[i] := x + 1"))
    stmt = prog.body.body[0]
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.target, ast.IndexRef)
    assert stmt.target.name == "a"


def test_if_else_binds_to_nearest_if():
    prog = parse(wrap("if x > 0 then if y > 0 then x := 1 else x := 2"))
    outer = prog.body.body[0]
    assert isinstance(outer, ast.If)
    assert outer.else_body is None
    inner = outer.then_body
    assert isinstance(inner, ast.If)
    assert inner.else_body is not None


def test_while_loop():
    prog = parse(wrap("while x > 0 do x := x - 1"))
    loop = prog.body.body[0]
    assert isinstance(loop, ast.While)


def test_for_to_and_downto():
    up = parse(wrap("for i := 0 to 9 do x := x + i")).body.body[0]
    down = parse(wrap("for i := 9 downto 0 do x := x + i")).body.body[0]
    assert isinstance(up, ast.For) and not up.downto
    assert isinstance(down, ast.For) and down.downto


def test_operator_precedence():
    expr = parse_expression("1 + 2 * 3")
    assert isinstance(expr, ast.BinaryOp)
    assert expr.op == "+"
    assert isinstance(expr.right, ast.BinaryOp)
    assert expr.right.op == "*"


def test_relational_below_boolean_ops():
    expr = parse_expression("1 < 2 and 3 < 4".replace("and", "and"))
    # 'and' binds tighter than the relational in Pascal-style grammars?
    # In this grammar: rel is below and, so "1 < 2 and 3 < 4" parses as
    # or/and over relational operands; verify shape.
    assert isinstance(expr, ast.BinaryOp)


def test_unary_minus_and_parens():
    expr = parse_expression("-(1 + 2)")
    assert isinstance(expr, ast.UnaryOp)
    assert expr.op == "-"


def test_double_negation():
    expr = parse_expression("--5")
    assert isinstance(expr, ast.UnaryOp)
    assert isinstance(expr.operand, ast.UnaryOp)


def test_call_with_args():
    expr = parse_expression("min(1, 2)")
    assert isinstance(expr, ast.Call)
    assert expr.name == "min"
    assert len(expr.args) == 2


def test_div_mod_keywords():
    expr = parse_expression("7 div 2 mod 3")
    assert isinstance(expr, ast.BinaryOp)
    assert expr.op == "mod"
    assert expr.left.op == "div"  # type: ignore[union-attr]


def test_missing_semicolon_diagnosed():
    with pytest.raises(ParseError) as exc:
        parse(wrap("x := 1 y := 2"))
    assert "';'" in str(exc.value)


def test_trailing_semicolon_allowed():
    prog = parse(wrap("x := 1;"))
    assert len(prog.body.body) == 1


def test_missing_do_diagnosed():
    with pytest.raises(ParseError):
        parse(wrap("while x > 0 x := 1"))


def test_missing_end_dot_diagnosed():
    with pytest.raises(ParseError):
        parse("program t; begin end")


def test_read_write_statements():
    prog = parse(wrap("read(x); read(a[i]); write(x + 1)"))
    kinds = [type(s).__name__ for s in prog.body.body]
    assert kinds == ["Read", "Read", "Write"]


def test_break_continue_parse():
    prog = parse(wrap("while true do begin break; continue end"))
    loop = prog.body.body[0]
    inner = loop.body.body  # type: ignore[union-attr]
    assert isinstance(inner[0], ast.Break)
    assert isinstance(inner[1], ast.Continue)


def test_nested_blocks():
    prog = parse(wrap("begin begin x := 1 end end"))
    outer = prog.body.body[0]
    assert isinstance(outer, ast.Block)


def test_expression_statement_rejected():
    with pytest.raises(ParseError):
        parse(wrap("x + 1"))


def test_assign_requires_walrus():
    with pytest.raises(ParseError):
        parse(wrap("x = 1"))


#: The three shapes that overflowed Python's recursion limit in a later
#: pass before nesting was capped.
DEEP_PROGRAMS = {
    "parens": wrap("x := " + "(" * 1000 + "1" + ")" * 1000),
    "sum": wrap("x := " + "+".join(["1"] * 3000)),
    "ifs": wrap("if x > 0 then begin " * 2000 + "x := 1" + " end" * 2000),
}


@pytest.mark.parametrize("name", DEEP_PROGRAMS)
def test_deep_programs_fail_with_a_typed_error(name):
    with pytest.raises(
        ParseError, match=f"nesting deeper than {MAX_NESTING} levels at 1:"
    ):
        compile_source(DEEP_PROGRAMS[name])


@pytest.mark.parametrize(
    "shape,deepest",
    [
        # statement + expression + 62 parentheses
        (lambda n: "x := " + "(" * n + "1" + ")" * n, MAX_NESTING - 2),
        # statement + expression + n - 1 operators
        (lambda n: "x := " + "+".join(["1"] * n), MAX_NESTING - 1),
        # two statements per if-begin, then the assignment and its value
        (lambda n: "if x > 0 then begin " * n + "x := 1" + " end" * n,
         MAX_NESTING // 2 - 1),
    ],
    ids=["parens", "sum", "ifs"],
)
def test_nesting_at_the_cap_compiles_and_one_level_more_fails(shape, deepest):
    compile_source(wrap(shape(deepest)), unroll=2)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(wrap(shape(deepest + 1)))
