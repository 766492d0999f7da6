import ast
from pathlib import Path

import alphadet

PACKAGE = Path(alphadet.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants in the package must raise
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
