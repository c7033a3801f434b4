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
