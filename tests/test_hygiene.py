"""Source hygiene: invariants in the package must survive `python -O`."""

import ast
from pathlib import Path

import schouten

SRC = Path(schouten.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements vanish under python -O: %s" % found


def test_boundary_module_has_no_memo():
    """The word boundary is computed fresh each time: no lru_cache or cache
    decorator anywhere in boundary.py."""
    path = SRC / "boundary.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append("%s:%d" % (node.name, node.lineno))
    assert not found, "memoized functions in boundary.py: %s" % found
