"""Source-level rules for the package."""
import ast
from pathlib import Path

import clustertube

BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "bare except"
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for c in caught:
            if isinstance(c, ast.Name) and c.id in BROAD:
                yield node.lineno, f"except {c.id}"


def test_no_broad_exception_handlers():
    # a broad handler turns a bug (TypeError, KeyError) into a reported
    # failure of whatever it guards
    package = Path(clustertube.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in _broad_handlers(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_rule_sees_broad_handlers():
    source = (
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert list(_broad_handlers(ast.parse(source))) == [
        (3, "except Exception"), (7, "bare except"), (11, "except BaseException")]
