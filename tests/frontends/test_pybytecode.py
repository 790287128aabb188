"""Unit tests of the CPython-bytecode frontend: kernel lookup,
destackification structure, and typed rejection of everything outside
the supported subset."""

import pytest

from repro.frontends import (
    UnsupportedPythonError,
    compile_python_kernel,
)
from repro.frontends.pybytecode import find_kernel_code
from repro.ir import tac

DOT = '''
def dot():
    n = 4
    a = [0] * 4
    b = [0] * 4
    for i in range(n):
        a[i] = read()
    for i in range(n):
        b[i] = read()
    s = 0
    for i in range(n):
        s = s + a[i] * b[i]
    write(s)
'''


# -- kernel lookup ----------------------------------------------------------


def test_find_kernel_autodetects_single_function():
    code = find_kernel_code(DOT)
    assert code.co_name == "dot"


def test_find_kernel_by_entry_name():
    two = DOT + "\n\ndef other():\n    write(0)\n"
    assert find_kernel_code(two, "other").co_name == "other"
    assert find_kernel_code(two, "dot").co_name == "dot"


def test_find_kernel_requires_entry_when_ambiguous():
    two = DOT + "\n\ndef other():\n    write(0)\n"
    with pytest.raises(UnsupportedPythonError) as err:
        find_kernel_code(two)
    assert "2 top-level functions" in str(err.value)


def test_find_kernel_unknown_entry():
    with pytest.raises(UnsupportedPythonError) as err:
        find_kernel_code(DOT, "nope")
    assert "nope" in str(err.value) and "dot" in str(err.value)


def test_find_kernel_syntax_error():
    with pytest.raises(UnsupportedPythonError) as err:
        find_kernel_code("def f(:\n    pass\n")
    assert "not valid Python" in str(err.value)


#: A 3,000-term sum: deeper than CPython's compiler recurses.
LONG_SUM = "def k():\n    x = " + "+".join(["1"] * 3000) + "\n    write(x)\n"


def test_long_expression_is_a_typed_error():
    from repro.pipeline import compile_source

    with pytest.raises(UnsupportedPythonError, match="nested too deeply"):
        compile_source(LONG_SUM, frontend="python")


# -- structure --------------------------------------------------------------


def test_compile_dot_structure():
    program = compile_python_kernel(DOT)
    assert program.name == "dot"
    assert set(program.arrays) == {"a", "b"}
    assert program.arrays["a"].size == 4
    assert any(isinstance(i, (tac.ReadArr, tac.Load))
               for i in program.instrs)
    assert isinstance(program.instrs[-1], tac.Halt)
    # scalar locals surface as named symbols
    assert "n" in program.scalars and "s" in program.scalars


def test_compile_is_deterministic():
    a = compile_python_kernel(DOT)
    b = compile_python_kernel(DOT)
    assert [str(i) for i in a.instrs] == [str(i) for i in b.instrs]


def test_constants_in_memory_interns_large_literals():
    src = "def f():\n    x = 1000\n    write(x + 2000)\n"
    plain = compile_python_kernel(src)
    interned = compile_python_kernel(src, constants_in_memory=True)
    assert not plain.const_table
    assert set(interned.const_table.values()) == {1000, 2000}


def test_error_names_function_line_and_opcode():
    src = "def f():\n    x = read()\n    y = x ** x\n    write(y)\n"
    with pytest.raises(UnsupportedPythonError) as err:
        compile_python_kernel(src)
    message = str(err.value)
    assert "function 'f'" in message
    assert "line 3" in message
    assert err.value.line == 3
    assert err.value.function == "f"


# -- rejection of unsupported constructs ------------------------------------

REJECTED = [
    # closures / nested functions
    ("def f():\n    x = 1\n    def g():\n        return x\n    write(x)\n",
     "cell variables"),
    # dict construction
    ("def f():\n    d = {1: 2}\n    write(1)\n", "unsupported"),
    # calls of unsupported globals
    ("def f():\n    g(1)\n", "unsupported global"),
    # float used as an array index
    ("def f():\n    a = [0] * 4\n    write(a[1.5])\n",
     "array index must be an int"),
    # variable-operand power (literal powers are constant-folded away
    # by CPython's peephole optimizer before we ever see them)
    ("def f():\n    x = read()\n    write(x ** x)\n",
     "unsupported binary operator"),
    # bitwise operators
    ("def f():\n    x = read()\n    write(x & 3)\n",
     "unsupported binary operator"),
    # string constants
    ("def f():\n    s = 'hi'\n    write(1)\n", "unsupported constant"),
    # parameters (inputs come from read())
    ("def f(x):\n    write(x)\n", "no parameters"),
    # generators
    ("def f():\n    yield 1\n", "generator"),
    # *args
    ("def f(*a):\n    write(1)\n", "not supported"),
    # iterating an array directly
    ("def f():\n    a = [1, 2, 3]\n    for v in a:\n        write(v)\n",
     "range(len(a))"),
    # iterating something that is not range()
    ("def f():\n    for v in read():\n        write(v)\n",
     "cannot iterate"),
    # non-literal list construction
    ("def f():\n    n = read()\n    a = [0] * n\n    write(a[0])\n",
     "literal"),
    # returning a value
    ("def f():\n    return 3\n", "write()"),
    # tuple/dict methods and attributes
    ("def f():\n    a = [1, 2]\n    a.append(3)\n    write(a[0])\n",
     "unsupported"),
]


@pytest.mark.parametrize(
    "src,fragment", REJECTED,
    ids=[f"reject{i}" for i in range(len(REJECTED))],
)
def test_unsupported_constructs_rejected(src, fragment):
    with pytest.raises(UnsupportedPythonError) as err:
        compile_python_kernel(src)
    assert fragment in str(err.value)


def test_rejection_is_a_typed_value_error():
    # CLI/protocol layers catch ValueError; the typed subclass must be one
    assert issubclass(UnsupportedPythonError, ValueError)
