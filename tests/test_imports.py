"""Every name a package module imports is used in that module, every
module-level constant is read in its module or imported by a sibling, and
every function, class and method is referenced somewhere in the repository.

The package ``__init__`` re-exports names and is exempt from the first two
checks; its imports still count as readers of the constants they name, but
a re-export alone does not count as a reference.
"""
import ast
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superdensity"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REPO = SRC.parent.parent
REFERENCE_DIRS = ("src", "tests", "demos", "perfbench")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted({name for name in imported if name not in used})


def test_unused_imports_detected():
    src = "import os\nfrom math import gcd, lcm\nprint(gcd(1, 2))\n"
    assert unused_imports(src) == ["lcm", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_constants(source: str, sibling_imports=frozenset()) -> list:
    """Upper-case names bound at module level that the module never reads
    and that no sibling imports."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            bound.update(n.id for n in ast.walk(target)
                         if isinstance(n, ast.Name) and n.id.lstrip("_").isupper())
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read - set(sibling_imports))


def sibling_imports(module: str) -> set:
    """Names that the other package modules import from `module`."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                names.update(alias.name for alias in node.names)
    return names


def test_unread_constants_detected():
    src = "A = 1\n_B, C = 2, 3\nD: int = 4\nlower = 5\nprint(A)\n"
    assert unread_constants(src) == ["C", "D", "_B"]
    assert unread_constants(src, {"C"}) == ["D", "_B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_constants_are_read(path):
    assert unread_constants(path.read_text(), sibling_imports(path.stem)) == []


def definitions(source: str) -> list:
    """Top-level functions and classes ('f', 'K') and the non-dunder
    methods of the classes ('K.m')."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{m.name}" for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def references(source: str) -> set:
    """The names a source refers to: identifiers, attribute names, and the
    parts of string constants that are dotted identifiers (the tracer
    names the method it wraps as "CocycleAssembler.rows")."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


@cache
def repository_references() -> frozenset:
    return frozenset().union(*(references(path.read_text())
                               for d in REFERENCE_DIRS
                               for path in sorted((REPO / d).rglob("*.py"))))


def unreferenced(source: str, refs) -> list:
    return [name for name in definitions(source) if name.split(".")[-1] not in refs]


def test_unreferenced_definitions_detected():
    src = ("def used(): pass\ndef orphan(): pass\nclass K:\n"
           "    def m(self): pass\n    def traced(self): pass\n"
           "    def __eq__(self, o): pass\nused()\nK()\nprint('K.traced')\n")
    assert unreferenced(src, references(src)) == ["orphan", "K.m"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_definitions_are_referenced(path):
    assert unreferenced(path.read_text(), repository_references()) == []


def sign_callers(source: str) -> set:
    """The functions and methods ('K.m') of a module whose bodies call
    grassmann_sign or dtheta_sign, nested functions counting as their
    enclosing definition."""
    out = set()
    for node in ast.parse(source).body:
        defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, ast.FunctionDef)]
        for name, fn in defs:
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id in ("grassmann_sign", "dtheta_sign")
                   for c in ast.walk(fn)):
                out.add(name)
    return out


def test_sign_callers_detected():
    src = ("def kernel(s, t):\n    return grassmann_sign(s, t)\n"
           "def other(s):\n    def inner():\n        return dtheta_sign(s, 1)\n    return inner\n"
           "class K:\n    def m(self):\n        return grassmann_sign(1, 2)\n"
           "def reader():\n    return kernel\n")
    assert sign_callers(src) == {"kernel", "other", "K.m"}


def test_word_signs_come_from_one_kernel():
    """In diffop only the word-product kernel, push_through and
    word_products, works out Grassmann and d/dtheta signs; every
    composition and application reads its products."""
    assert sign_callers((SRC / "diffop.py").read_text()) <= {"push_through", "word_products"}
