"""Every module of the package uses each name it imports, every private
top-level definition and every top-level function and class is read
somewhere in the package, every small float threshold is a named
constant of config.py, every constant of config.py is read by another
module, no function parameter defaults to True or False, and no module but
tangle.py reads the pair tangles apart from their CKW split.

No linter ships with the toolchain, so the standard library's ast does the
checks.  __init__.py is exempt from the import check: its imports are the
public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ktangle"


def _unused_imports(text: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(text)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    text = "import os\nimport numpy.linalg\nfrom .core import a, b as c\nnumpy.linalg.eigh(a)\n"
    assert _unused_imports(text) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _top_level(sources: dict) -> list:
    """(module, node, names it reads) of each top-level statement of each
    module; a read is a loaded name or an attribute name."""
    tops = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            tops.append((module, node, names))
    return tops


def _read_elsewhere(name: str, owner, tops: list) -> bool:
    return any(name in names for _, node, names in tops if node is not owner)


def _dead_private(sources: dict) -> list:
    """(module, line, name) of each private top-level definition that no other
    top-level statement of any module reads, by name or as an attribute."""
    tops = _top_level(sources)
    return sorted(
        (module, node.lineno, name)
        for module, node, _ in tops
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not _read_elsewhere(name, node, tops)
    )


def test_the_check_finds_dead_private_code():
    a = "_K = 1\n_unread = 2\ndef _rec(n):\n    return _rec(n - 1)\ndef f():\n    return _K\n"
    b = "from .a import _gone\nimport a\nclass _C:\n    pass\nx = a._used\ndef _used():\n    pass\n"
    # a self-call and an import are no reads; an attribute read is
    dead = [("a.py", 2, "_unread"), ("a.py", 3, "_rec"), ("b.py", 3, "_C")]
    assert _dead_private({"a.py": a, "b.py": b}) == dead


def test_no_dead_private_code():
    assert _dead_private({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def _unreferenced(sources: dict) -> list:
    """(module, line, name) of each top-level function and class that no other
    top-level statement of any module reads; a public name that __init__.py
    imports is read through the package."""
    exported = {
        a.asname or a.name
        for node in ast.parse(sources.get("__init__.py", "")).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if not (a.asname or a.name).startswith("_")
    }
    tops = _top_level(sources)
    return sorted(
        (module, node.lineno, node.name)
        for module, node, _ in tops
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and not _read_elsewhere(node.name, node, tops)
    )


def test_the_check_finds_code_kept_only_for_tests():
    init = "from .a import api, _hidden\n"
    a = "def api():\n    return helper()\ndef helper():\n    pass\ndef _hidden():\n    pass\n"
    b = "class Orphan:\n    pass\ndef lonely(n):\n    return lonely(n - 1)\n"
    # an __init__ import keeps a public name only; a self-call is no read
    dead = [("a.py", 5, "_hidden"), ("b.py", 1, "Orphan"), ("b.py", 3, "lonely")]
    assert _unreferenced({"__init__.py": init, "a.py": a, "b.py": b}) == dead


def test_every_function_and_class_is_referenced_in_the_package():
    assert _unreferenced({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def _small_float_literals(text: str) -> list:
    """(line, value) of each float literal with 0 < |value| < 1e-3: a
    threshold, which belongs in config.py under a name."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    )


def test_the_check_finds_an_unnamed_threshold():
    text = "def f(x, tol=1e-12):\n    return x > -2.5e-4 and x < 0.5 and x != 0.0 and x > 1e-3\n"
    assert _small_float_literals(text) == [(1, 1e-12), (2, 2.5e-4)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "config.py"), ids=lambda p: p.name
)
def test_thresholds_are_named_in_config(path):
    assert _small_float_literals(path.read_text()) == []


def _unread_constants(config_text: str, sources: dict) -> list:
    """(line, name) of each name that config.py assigns at the top level and
    no statement of the other modules reads; an import alone is no read."""
    tops = _top_level(sources)
    return sorted(
        (node.lineno, name)
        for node in ast.parse(config_text).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in _defined_names(node)
        if not any(name in names for _, _, names in tops)
    )


def test_the_check_finds_an_unread_constant():
    config = "A_EPS = 1e-9\nB_EPS = 1e-12\nC: int = 3\nclass Err(ValueError):\n    pass\n"
    module = "from .config import A_EPS, B_EPS\nimport config\nx = A_EPS + config.C\n"
    assert _unread_constants(config, {"m.py": module}) == [(2, "B_EPS")]


def test_every_config_constant_is_read():
    others = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "config.py"}
    assert _unread_constants((SRC / "config.py").read_text(), others) == []


def _flag_parameters(text: str) -> list:
    """(line, function, parameter) of each parameter whose default is True or
    False: a flag that switches one function between two behaviours."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            found += [
                (node.lineno, node.name, a.arg)
                for a, d in pairs
                if isinstance(d, ast.Constant) and type(d.value) is bool
            ]
    return sorted(found)


def test_the_check_finds_a_flag_parameter():
    text = (
        "def f(a, b=True, *, c=False, d=None, e=1):\n    pass\n"
        "class C:\n    def m(self, x=0, y=False, *z, w):\n        pass\n"
    )
    assert _flag_parameters(text) == [(1, "f", "b"), (1, "f", "c"), (4, "m", "y")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_flag_parameters(path):
    assert _flag_parameters(path.read_text()) == []


def _reads_outside(name: str, owner: str, sources: dict) -> list:
    """(module, line) of each read or import of name in a module other than
    owner; a read is a loaded name or an attribute name."""
    return sorted(
        (module, node.lineno)
        for module, text in sources.items()
        if module != owner
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    )


def test_the_check_finds_a_read_outside_the_owner():
    sources = {
        "t.py": "def _f():\n    pass\ndef g():\n    return _f()\n",
        "a.py": "from .t import _f\nx = 1\n",
        "b.py": "import t\ny = t._f()\n",
    }
    assert _reads_outside("_f", "t.py", sources) == [("a.py", 1), ("b.py", 2)]


def test_the_pair_tangles_are_read_only_through_the_ckw_split():
    # the other modules read the split (tangle._tangles), not its parts
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _reads_outside("_pair_tangles", "tangle.py", sources) == []
