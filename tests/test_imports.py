import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import projdim

PACKAGE = sorted(Path(projdim.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def private_imports(source: str) -> list[str]:
    """Private names (``_name``, not ``__name__``) that ``source`` imports
    from a module of the package, relatively or as ``projdim.x``; imports
    inside functions count too."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "projdim")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def unread_private_names(sources: list[str]) -> list[str]:
    """Private module-level functions, classes and constants of ``sources``
    (``_name``, not ``__name__``) that no source reads, by name or as an
    attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def unread_named_tuple_fields(package: list[str], readers: list[str]) -> list[str]:
    """Fields ``Class.field`` of the ``NamedTuple`` classes defined in
    ``package`` that no source of ``package`` or ``readers`` reads as an
    attribute."""
    defined = []
    for tree in map(ast.parse, package):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base) in ("NamedTuple", "typing.NamedTuple")
                    for base in node.bases):
                defined += [(node.name, item.target.id) for item in node.body
                            if isinstance(item, ast.AnnAssign)]
    read = {node.attr for tree in map(ast.parse, package + readers)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def unread_cached_properties(package: list[str]) -> list[str]:
    """Methods ``Class.name`` of the classes defined in ``package`` that are
    decorated with ``functools.cached_property`` and that no source of
    ``package`` reads as an attribute; reads in tests do not count."""
    trees = [ast.parse(source) for source in package]
    defined = [(node.name, item.name) for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and any(
                   ast.unparse(d) in ("cached_property", "functools.cached_property")
                   for d in item.decorator_list)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def instance_dict_writes(source: str) -> list[str]:
    """Assignments and deletions in ``source`` whose target is an item of
    ``vars(obj)`` or ``obj.__dict__``, unparsed; reads do not count."""
    def instance_dict(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Call) and ast.unparse(node.func) == "vars")

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
            and instance_dict(node.value)]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nc()\n") == [
        "os", "np", "b"]


def test_the_check_sees_a_private_import():
    source = ("from .a import _b, c, __version__\nfrom projdim.d import _e\n"
              "from os import _exit\nimport projdim._f\n"
              "def g():\n    from ..h import _i as j\n")
    assert private_imports(source) == ["_b", "_e", "_i"]


def test_the_check_sees_an_unread_private_name():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): pass\nclass _C: pass\n"
               "def g(): return _A\n", "from m import _f\nm._B\n_f()\n"]
    assert unread_private_names(sources) == ["_C"]


def test_the_check_sees_an_unread_named_tuple_field():
    package = ["from typing import NamedTuple\nclass P(NamedTuple):\n    x: int\n"
               "    y: int = 0\n    z: int = 1\n    def f(self): return self.x\n"
               "class Q:\n    w: int\n"]
    assert unread_named_tuple_fields(package, ["p.y\n"]) == ["P.z"]


def test_the_check_sees_an_unread_cached_property():
    package = ["import functools\nfrom functools import cached_property\n"
               "class S:\n    @cached_property\n    def a(self): return 1\n"
               "    @functools.cached_property\n    def b(self): return self.a\n"
               "    @cached_property\n    def c(self): return 3\n"
               "    @property\n    def d(self): return 4\n"
               "def f(s):\n    s.c = 0\n    return vars(s)['c'], s.b\n"]
    assert unread_cached_properties(package) == ["S.c"]


def test_the_check_sees_a_write_into_an_instance_dict():
    source = ("vars(a)['x'] = 1\nb.__dict__['y'] += 2\nc.d.__dict__['z']: int = 3\n"
              "del vars(e)['w']\nf = vars(args)['g']\nh = {**vars(args)}\nvars(i)\n"
              "j['k'] = 4\n")
    assert instance_dict_writes(source) == [
        "vars(a)['x']", "b.__dict__['y']", "c.d.__dict__['z']", "vars(e)['w']"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_no_module_writes_into_an_instance_dict(path):
    # a cached property is then only ever computed by its own getter
    assert instance_dict_writes(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_every_named_tuple_field_is_read():
    assert unread_named_tuple_fields([p.read_text(encoding="utf-8") for p in PACKAGE],
                                     [p.read_text(encoding="utf-8") for p in TESTS]) == []


def test_every_cached_property_is_read_in_the_package():
    assert unread_cached_properties([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_importing_the_command_line_loads_no_process_pool():
    # the plane pool imports these when it runs: they would add to every start-up
    code = ("import sys, projdim, projdim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'logging'} & set(sys.modules)))")
    src = str(Path(projdim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
