"""Package-wide rules: runtime checks survive -O, and the exports resolve."""

import ast
from pathlib import Path

import pushsplit

PACKAGE = Path(pushsplit.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips asserts; a runtime check must raise IntegrityError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_export_resolves():
    assert len(set(pushsplit.__all__)) == len(pushsplit.__all__)
    missing = [name for name in pushsplit.__all__
               if not hasattr(pushsplit, name)]
    assert missing == []
