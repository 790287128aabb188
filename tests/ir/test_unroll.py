"""Unit and differential tests for AST loop unrolling."""

from dataclasses import fields

import pytest

from repro.ir import build_cfg, lower_ast, run_cfg
from repro.ir.unroll import unroll_program
from repro.lang import analyze, ast_nodes as ast, parse
from repro.lang.unparse import unparse


def run_with_unroll(source: str, factor: int, inputs=None, innermost=False):
    tree = parse(source)
    tree = unroll_program(tree, factor, innermost_only=innermost)
    analyze(tree)
    cfg = build_cfg(lower_ast(tree))
    return run_cfg(cfg, inputs)


def run_plain(source: str, inputs=None):
    tree = parse(source)
    analyze(tree)
    return run_cfg(build_cfg(lower_ast(tree)))


SUM_SRC = """
program s; var i, n, acc: int;
begin
  acc := 0;
  for i := 0 to 10 do acc := acc + i;
  write(acc); write(i)
end.
"""


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8])
def test_unrolled_sum_matches(factor):
    assert run_with_unroll(SUM_SRC, factor).outputs == run_plain(SUM_SRC).outputs


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_downto_unrolled(factor):
    src = """
    program d; var i, acc: int;
    begin
      acc := 0;
      for i := 9 downto 0 do acc := acc * 2 + i;
      write(acc)
    end.
    """
    assert run_with_unroll(src, factor).outputs == run_plain(src).outputs


@pytest.mark.parametrize("trip", [0, 1, 2, 3, 4, 5, 6, 7])
def test_remainder_loops_all_trip_counts(trip):
    src = f"""
    program r; var i, acc: int;
    begin
      acc := 0;
      for i := 1 to {trip} do acc := acc + i * i;
      write(acc)
    end.
    """
    for factor in (2, 3, 4):
        assert run_with_unroll(src, factor).outputs == run_plain(src).outputs


ARRAY_SRC = """
program g; var i, n, s: int; a: array[16] of int;
begin
  read(n);
  for i := 0 to n - 1 do a[i] := i * i + 1;
  s := 0;
  for i := 0 to n - 1 do s := s + a[i];
  for i := 0 to n - 1 do write(a[n - 1 - i]);
  write(s)
end.
"""


@pytest.mark.parametrize("factor", [2, 3, 4])
@pytest.mark.parametrize("trip", [0, 1, 2, 3, 5, 7, 9, 16])
def test_array_accesses_in_remainder_loops(factor, trip):
    """Golden differential for array traffic under unrolling: every trip
    count — including those that leave a remainder loop, and the empty
    loop — reads and writes exactly the elements the plain interpreter
    does, in the same order (the reversed-index read catches off-by-one
    remainder bounds that a commutative sum would mask)."""
    inputs = [trip]
    got = run_with_unroll(ARRAY_SRC, factor, inputs)
    tree = parse(ARRAY_SRC)
    analyze(tree)
    want = run_cfg(build_cfg(lower_ast(tree)), inputs)
    golden = [(n * n + 1) for n in reversed(range(trip))]
    golden.append(sum(n * n + 1 for n in range(trip)))
    assert want.outputs == golden  # the interpreter matches closed form
    assert got.outputs == golden


def test_loop_with_break_not_unrolled():
    src = """
    program b; var i, acc: int;
    begin
      acc := 0;
      for i := 0 to 100 do begin
        if i = 3 then break;
        acc := acc + 1
      end;
      write(acc)
    end.
    """
    assert run_with_unroll(src, 4).outputs == run_plain(src).outputs == [3]


def test_loop_with_continue_not_unrolled():
    src = """
    program c; var i, acc: int;
    begin
      acc := 0;
      for i := 0 to 9 do begin
        if i mod 2 = 0 then continue;
        acc := acc + i
      end;
      write(acc)
    end.
    """
    assert run_with_unroll(src, 4).outputs == run_plain(src).outputs == [25]


def test_nested_break_does_not_block_outer_unroll():
    src = """
    program n; var i, j, acc: int;
    begin
      acc := 0;
      for i := 0 to 5 do begin
        j := 0;
        while j < 10 do begin
          if j = 2 then break;
          j := j + 1
        end;
        acc := acc + j
      end;
      write(acc)
    end.
    """
    assert run_with_unroll(src, 3).outputs == run_plain(src).outputs == [12]


def test_variable_bounds_evaluated_once():
    src = """
    program v; var i, n, acc: int;
    begin
      read(n);
      acc := 0;
      for i := 0 to n do begin n := 0; acc := acc + 1 end;
      write(acc)
    end.
    """
    for factor in (1, 2, 4):
        tree = parse(src)
        tree = unroll_program(tree, factor)
        analyze(tree)
        cfg = build_cfg(lower_ast(tree))
        assert run_cfg(cfg, [5]).outputs == [6]


def test_innermost_only_keeps_outer_loop():
    src = """
    program m; var i, j, acc: int;
    begin
      acc := 0;
      for i := 0 to 3 do
        for j := 0 to 3 do
          acc := acc + i * j;
      write(acc)
    end.
    """
    full = run_with_unroll(src, 4, innermost=False)
    inner = run_with_unroll(src, 4, innermost=True)
    plain = run_plain(src)
    assert full.outputs == inner.outputs == plain.outputs
    # full unrolling replicates more code, so it executes fewer control
    # steps but the same arithmetic; both must at least agree on output
    assert inner.steps <= plain.steps


def test_factor_one_is_identity():
    tree = parse(SUM_SRC)
    before = len(tree.body.body)
    unroll_program(tree, 1)
    assert len(tree.body.body) == before


def test_invalid_factor_rejected():
    with pytest.raises(ValueError):
        unroll_program(parse(SUM_SRC), 0)


def test_synthetic_bound_vars_declared():
    tree = parse(SUM_SRC)
    tree = unroll_program(tree, 4)
    names = [n for d in tree.decls for n in d.names]
    assert any(n.startswith("__u") for n in names)
    analyze(tree)  # must still type-check


NESTED_SRC = """
program p; var i, n, acc: int; x: real; a: array[16] of int;
begin
  read(n);
  acc := 0;
  x := 0.5;
  for i := 1 to n do
  begin
    a[i mod 16] := (acc + i * (i - 1)) div 2 - a[(i + 3) mod 16];
    if a[i mod 16] > acc then acc := acc + 1 else x := sqrt(x + i);
    write(-a[i mod 16])
  end;
  write(acc)
end.
"""

#: One replica of NESTED_SRC's loop body, as the unparser prints it.
REPLICA = """\
        begin
          a[i mod 16] := (acc + i * (i - 1)) div 2 - a[(i + 3) mod 16];
          if a[i mod 16] > acc then
            acc := acc + 1
          else
            x := sqrt(x + i);
          write(-a[i mod 16])
        end;
        i := i + 1"""

#: NESTED_SRC unrolled by 4, as unrolling with ``copy.deepcopy``
#: replicas printed it.
NESTED_UNROLLED_4 = f"""\
program p;
var
  i, n, acc: int;
  x: real;
  a: array[16] of int;
  __u1_hi: int;
begin
  read(n);
  acc := 0;
  x := 0.5;
  begin
    __u1_hi := n;
    i := 1;
    while i <= __u1_hi - 3 do
      begin
{REPLICA};
{REPLICA};
{REPLICA};
{REPLICA}
      end;
    while i <= __u1_hi do
      begin
{REPLICA}
      end
  end;
  write(acc)
end
."""


def _owned(node):
    """Ids of every AST node and list reachable from ``node``."""
    found = set()
    stack = [node]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            found.add(id(value))
            stack.extend(value)
        elif isinstance(value, ast.Node):
            found.add(id(value))
            stack.extend(getattr(value, f.name) for f in fields(value))
    return found


def test_replicas_share_no_node_or_list():
    """Each replica of the body is its own tree: no node or list is
    shared between two replicas or with the input, and the text is what
    deep-copied replicas gave."""
    tree = parse(NESTED_SRC)
    analyze(tree)  # replicas must carry the expression types too
    loop = tree.body.body[3]
    assert isinstance(loop, ast.For)
    unrolled = unroll_program(tree, 4)
    assert unparse(unrolled) == NESTED_UNROLLED_4

    main, remainder = unrolled.body.body[3].body[2:]
    replicas = main.body.body[0::2] + remainder.body.body[0::2]
    assert len(replicas) == 5
    seen = _owned(loop.body)
    for replica in replicas:
        assert replica == loop.body  # dataclass equality, types included
        owned = _owned(replica)
        assert not owned & seen
        seen |= owned
