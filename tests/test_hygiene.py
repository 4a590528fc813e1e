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


def _foreign_trusted_calls(tree):
    # _trusted skips the checks of the public constructor, so it may only be
    # called where the class that defines it knows its invariants
    own = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "_trusted" for f in node.body)
    }
    if own:
        own.add("cls")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"):
            continue
        owner = node.func.value
        if not (isinstance(owner, ast.Name) and owner.id in own):
            yield node.lineno, "foreign _trusted call"


def test_trusted_constructors_are_called_only_in_their_own_module():
    package = Path(clustertube.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        for line, what in _foreign_trusted_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_rule_sees_foreign_trusted_calls():
    source = (
        "class Poly:\n"
        "    @classmethod\n"
        "    def _trusted(cls, terms):\n"
        "        return cls._trusted(terms)\n"
        "p = Poly._trusted({})\n"
        "m = ExactMatrix._trusted((), 0)\n"
        "q = linalg.ExactMatrix._trusted((), 0)\n"
        "r = make()._trusted(1)\n"
    )
    assert list(_foreign_trusted_calls(ast.parse(source))) == [
        (6, "foreign _trusted call"), (7, "foreign _trusted call"), (8, "foreign _trusted call")]
    outside = "x = LaurentPoly._trusted(2, {})\ny = cls._trusted(1)\n"
    assert list(_foreign_trusted_calls(ast.parse(outside))) == [
        (1, "foreign _trusted call"), (2, "foreign _trusted call")]


def _unreached(trees, roots):
    # Reached code starts at the roots and at every module's top-level
    # statements.  A function or class is reached when reached code uses its
    # name; a method only when reached code reads an attribute of that name
    # (dunder methods come with their class).
    functions, methods, pending = {}, {}, []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                pending.append(node)
                continue
            functions.setdefault(node.name, []).append((f"{module}.{node.name}", node))
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef):
                    methods.setdefault(m.name, []).append((f"{module}.{node.name}.{m.name}", m))
    reached, names, attrs = set(), set(), set()

    def reach(defs):
        for label, node in defs:
            if label in reached:
                continue
            reached.add(label)
            if not isinstance(node, ast.ClassDef):
                pending.append(node)
                continue
            pending.extend(node.bases + node.decorator_list)
            for part in node.body:
                if not isinstance(part, ast.FunctionDef):
                    pending.append(part)
                elif part.name.startswith("__") and part.name.endswith("__"):
                    reached.add(f"{label}.{part.name}")
                    pending.append(part)

    for name in roots:
        reach(functions.get(name, ()))
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name) and node.id not in names:
                names.add(node.id)
                reach(functions.get(node.id, ()))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr not in attrs):
                attrs.add(node.attr)
                reach(methods.get(node.attr, ()))
    defined = {label for defs in (*functions.values(), *methods.values()) for label, _ in defs}
    return sorted(defined - reached)


def test_every_package_function_has_a_production_caller():
    # code that only the tests call is kept working for nothing; a test that
    # needs a reference keeps it on the test side
    package = Path(clustertube.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    roots = set(clustertube.__all__) | {"main", "run"}  # cli.main, cli.run
    assert _unreached(trees, roots) == []


def test_the_rule_sees_functions_without_a_production_caller():
    source = (
        "def api():\n    return helper() + Box().used()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return only_from_dead()\n"
        "def only_from_dead():\n    return 2\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = top()\n"
        "    def used(self):\n        return self.x\n"
        "    def unused(self):\n        return 3\n"
        "def top():\n    return 0\n"
        "CONSTANT = top()\n"
    )
    assert _unreached({"m": ast.parse(source)}, {"api"}) == [
        "m.Box.unused", "m.dead", "m.only_from_dead"]


def _ambiguous_methods(trees):
    # the dead-code rule reaches a method by attribute name alone, so it
    # cannot tell apart the classes that define a method of the same name
    # (dunder methods come with their class)
    owners = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (
                        m.name.startswith("__") and m.name.endswith("__")):
                    owners.setdefault(m.name, []).append(f"{module}.{node.name}")
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


# Each name below was checked by hand to be reached on every class that
# defines it.  A new entry needs the same check before it joins the table:
# the dead-code rule cannot see a dead one among them.
AMBIGUOUS_METHODS = {
    "_trusted": ["cluster.ExchangeMatrix", "cluster.Seed", "laurent.LaurentPoly",
                 "linalg.ExactMatrix"],
    "add": ["linalg.ExactMatrix", "verify.SuiteReport"],
    "canonical": ["cluster.Seed", "strings.StringWord", "tube.MaximalRigid"],
    "compose": ["amod.ModMap", "tube.CHom"],
    "dim": ["linalg.QuotientSpace", "tube.ExtSpace"],
    "is_zero": ["amod.AModule", "laurent.LaurentPoly", "linalg.ExactMatrix", "tube.CHom"],
    "key": ["cluster.Seed", "strings.Letter", "strings.StringWord"],
    "lift": ["linalg.QuotientSpace", "tube.ExtSpace"],
    "project": ["linalg.QuotientSpace", "tube.ExtSpace"],
    "to_json": ["cluster.ClusterAtlas", "tube.MaximalRigid"],
    "zero": ["laurent.LaurentPoly", "linalg.ExactMatrix"],
}


def test_no_new_method_name_is_shared_between_classes():
    package = Path(clustertube.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _ambiguous_methods(trees) == AMBIGUOUS_METHODS


def test_the_rule_sees_shared_method_names():
    source = (
        "class A:\n"
        "    def __init__(self):\n        pass\n"
        "    def run(self):\n        pass\n"
        "    def only_a(self):\n        pass\n"
        "class B:\n"
        "    def __init__(self):\n        pass\n"
        "    def run(self):\n        pass\n"
        "def only_a():\n    pass\n"
    )
    other = "class C:\n    def run(self):\n        pass\n"
    assert _ambiguous_methods({"m": ast.parse(source)}) == {"run": ["m.A", "m.B"]}
    assert _ambiguous_methods({"m": ast.parse(source), "n": ast.parse(other)}) == {
        "run": ["m.A", "m.B", "n.C"]}


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_container(value):
    func = value.func if isinstance(value, ast.Call) else None
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return isinstance(value, MUTABLE_NODES) or called in MUTABLE_CALLS


def _bound_containers(target, value):
    """The names of ``target`` that ``value`` binds to a container."""
    if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            and len(target.elts) == len(value.elts)):
        for t, v in zip(target.elts, value.elts):
            yield from _bound_containers(t, v)
    elif _is_container(value):
        yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def _module_level_containers(tree):
    # a dict, list or set bound at module level outlives every object that
    # fills it; the package's caches live on the objects they belong to
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            for name in _bound_containers(target, value):
                yield node.lineno, name


def test_nothing_but_the_atlas_is_cached_at_module_level():
    # README, "Caching": apart from the atlas, nothing is cached at module level
    allowed = {"__init__.py: __all__", "cli.py: COMMANDS", "ccmap.py: _atlas_cache"}
    package = Path(clustertube.__file__).parent
    found = {
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        for _, name in _module_level_containers(ast.parse(path.read_text()))
    }
    assert found == allowed


def test_the_rule_sees_module_level_containers():
    source = (
        "from collections import defaultdict\n"
        "_cache = {}\n"
        "seen: set = set()\n"
        "ORDER = [1, 2]\n"
        "table = collections.defaultdict(list)\n"
        "squares = {k: k * k for k in range(3)}\n"
        "a, b = [], {}\n"
        "KINDS = ('x', 'y')\n"
        "FROZEN = frozenset({1})\n"
        "Alias = Dict[int, int]\n"
        "def f():\n    local = {}\n    return local\n"
        "class C:\n    members = []\n"
    )
    assert list(_module_level_containers(ast.parse(source))) == [
        (2, "_cache"), (3, "seen"), (4, "ORDER"), (5, "table"), (6, "squares"),
        (7, "a"), (7, "b")]


def _unused_imports(tree):
    # a name a module imports and never uses; __all__ counts as a use
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    yield node.lineno, name


def test_no_unused_imports():
    # perfbench/selftest.py checks its tracer's rebinding through this name
    allowed = {"tube.py: kernel_basis"}
    package = Path(clustertube.__file__).parent
    found = {
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        for _, name in _unused_imports(ast.parse(path.read_text()))
    }
    assert found == allowed


def test_the_rule_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import Dict, List\n"
        "from .linalg import rank as mat_rank, rref\n"
        "x: Dict = mat_rank(sys.argv)\n"
        "__all__ = ['rref']\n"
    )
    assert list(_unused_imports(ast.parse(source))) == [(2, "os"), (4, "List")]
