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


def _floats_and_divisions(tree, allowed=()):
    # every true division goes through linalg.exact_div, so a quotient of
    # two ints can never turn into a float unnoticed
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in allowed
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "division"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float()"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, "float literal"


def test_no_float_and_no_division_outside_exact_div():
    package = Path(clustertube.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in _floats_and_divisions(
            ast.parse(path.read_text()), ("exact_div",) if path.name == "linalg.py" else ()
        )
    ]
    assert found == []


def test_the_rule_sees_floats_and_divisions():
    source = (
        "def exact_div(a, b):\n    return a / b\n"
        "def mean(xs):\n    return sum(xs) / len(xs)\n"
        "x = 1\nx /= 2\n"
        "y = float(x)\n"
        "z = 0.5\n"
        "w = 7 // 2\n"
    )
    assert sorted(_floats_and_divisions(ast.parse(source), ("exact_div",))) == [
        (4, "division"), (6, "division"), (7, "float()"), (8, "float literal")]
    assert (2, "division") in _floats_and_divisions(ast.parse(source))


def _literal_products(tree):
    # product([...], repeat=k) enumerates coefficient vectors: a bounded
    # search that can miss a map which exists; build the map instead
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (name == "product" and isinstance(node.args[0], (ast.List, ast.Tuple))
                and any(k.arg == "repeat" for k in node.keywords)):
            yield node.lineno, "product over a literal"


def test_no_coefficient_search_over_a_literal():
    package = Path(clustertube.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in _literal_products(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_rule_sees_coefficient_searches():
    source = (
        "import itertools\nfrom itertools import product\n"
        "a = product([0, 1, -1], repeat=3)\n"
        "b = itertools.product((0, 1), repeat=n)\n"
        "c = product(range(p), repeat=2)\n"
        "d = product([0, 1], [2, 3])\n"
        "e = product(*[range(r + 1) for r in rank])\n"
    )
    assert list(_literal_products(ast.parse(source))) == [
        (3, "product over a literal"), (4, "product over a literal")]
