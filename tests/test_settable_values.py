"""The number of settable values in the package, as ROADMAP aim 2 quotes it.

A new option, default or defaulted field changes this number, so it
changes the test as well.
"""

import ast
from pathlib import Path

import belldistill

SETTABLE_VALUES = 8


def settable_values(source: str) -> int:
    """Defaulted positional and keyword-only parameters, plus annotated
    class fields that have a default and are not ClassVar."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         and "ClassVar" not in ast.unparse(st.annotation)
                         for st in node.body)
    return count


def test_counting_rules():
    source = """
def f(a, b=1, *args, c, d=2, **kw):
    g = lambda x=0: x
class C:
    x: int
    y: int = 0
    z: ClassVar[float] = 1e-12
    w = 3
"""
    assert settable_values(source) == 4


def test_settable_value_count():
    package = Path(belldistill.__file__).parent
    total = sum(settable_values(path.read_text()) for path in package.glob("*.py"))
    assert total == SETTABLE_VALUES
