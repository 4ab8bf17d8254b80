"""Source hygiene checks that need no linter: every top-level import of the
package is used by the module that makes it, every public function and
class of the package is named outside the tests and every public method is
read there as an attribute, every defaulted parameter of a public function
is passed outside the tests, every public dataclass field is read outside
the tests, and no module imports scipy.sparse or scipy.linalg.  Importing
scipy.sparse alone adds about 5 MiB of resident memory to every process
that solves (the reason ``milpcore.Rows`` exists); importing scipy.linalg
adds about 21 MiB (the reason ``solver._scipy_linalg_extension`` loads the
BLAS and LAPACK wrappers from their files)."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cfmilp"
# the modules whose use of a name counts: the package's and the benchmark's,
# the benchmark's own tests and pytest set-up left out
OUTSIDE_TESTS = [*SRC.glob("*.py"), *(p for p in (ROOT / "benchmark").glob("*.py")
                                      if not p.name.startswith("test_") and p.name != "conftest.py")]


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a name in __all__ or in a quoted annotation is a use too
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_caught():
    tree = ast.parse("import json\nimport os\nfrom x import (a, b as c)\nos.sep\nc()\n")
    assert _unused_imports(tree) == ["a (line 3)", "json (line 1)"]


def _public_defs(tree: ast.Module) -> list[tuple[str, int, str | None]]:
    """(name, line, class) of every public function and class at module
    level, and of every public method of a class there; the class is None
    but for a method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, None))
            if isinstance(node, ast.ClassDef):
                out += [(f.name, f.lineno, node.name) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [d for d in out if not d[0].startswith("_")]


def _named(tree: ast.Module) -> set[str]:
    """Every name read, attribute taken or import alias in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _unreferenced(tree: ast.Module, callers: set[str], attributes: set[str],
                  text: str) -> list[tuple[str, int, str | None]]:
    """Public definitions of ``tree`` that nothing names: a function or class
    that neither ``callers`` nor, as a whole word, ``text`` names, and a
    method that no attribute read in ``attributes`` names."""
    return [(name, line, cls) for name, line, cls in _public_defs(tree)
            if (name not in attributes if cls else
                name not in callers and not re.search(rf"\b{name}\b", text))]


@functools.cache
def _outside_tests() -> tuple[set[str], set[str], str]:
    """Names and attributes read in the package and the benchmark's modules,
    and the README."""
    names = set().union(*(_named(ast.parse(p.read_text(encoding="utf-8")))
                          for p in OUTSIDE_TESTS))
    return names, _attributes_outside_tests(), (ROOT / "README.md").read_text(encoding="utf-8")


# public methods that only the tests call, and why each stays
TEST_ONLY_METHODS = {
    ("data.py", "EncodingMap", "span"):
        "one feature's column range; benchmark/test_harness.py calls it, and the benchmark's "
        "files change only with the benchmark",
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_public_definitions_are_named_outside_tests(path):
    found = _unreferenced(ast.parse(path.read_text(encoding="utf-8")), *_outside_tests())
    assert [f"{name} (line {line})" for name, line, cls in found
            if (path.name, cls, name) not in TEST_ONLY_METHODS] == []


def test_unused_definition_is_caught():
    tree = ast.parse("def used(): pass\n"
                     "def unused(): pass\n"
                     "def _private(): pass\n"
                     "class Kept:\n"
                     "    def method(self): pass\n"
                     "    def stale(self): pass\n"
                     "    def _helper(self): pass\n"
                     "def documented(): pass\n"
                     "def nested():\n"
                     "    def inner(): pass\n"
                     "    return inner\n")
    outside = ast.parse("from m import used as u, Kept\nKept().method\nnested()\n")
    assert _unreferenced(tree, _named(outside), _attributes_read(outside),
                         "call documented(), not undocumented()") == [
        ("unused", 2, None), ("stale", 6, "Kept")]


def test_method_named_only_as_a_bare_name_is_caught():
    # a method counts as used only where an attribute of that name is read:
    # a variable, a keyword, an assignment or the README naming it is not a call
    tree = ast.parse("class K:\n"
                     "    def read(self): pass\n"
                     "    def bare(self): pass\n"
                     "    def keyword(self): pass\n"
                     "    def stored(self): pass\n"
                     "    def documented(self): pass\n")
    outside = ast.parse("K().read()\nbare = 1\nf(keyword=bare)\nobj.stored = 2\n")
    assert _unreferenced(tree, _named(outside), _attributes_read(outside), "K.documented") == [
        ("bare", 3, "K"), ("keyword", 4, "K"), ("stored", 5, "K"), ("documented", 6, "K")]


def test_benchmark_tests_are_not_outside_tests():
    names = {p.name for p in OUTSIDE_TESTS}
    assert "workloads.py" in names and "solver.py" in names
    assert not {n for n in names if n.startswith("test_") or n == "conftest.py"}


# defaulted parameters that only the tests pass, and why each stays
TEST_ONLY_PARAMETERS = {
    ("bench.py", "main", "argv"):
        "the console entry point reads the process's arguments; the tests pass their own",
    ("solver.py", "solve_lp", "overrides"):
        "the cold reference LP that the tests compare warm node LPs against",
}


def _defaulted(tree: ast.Module) -> list[tuple[ast.FunctionDef, list[str], list[str]]]:
    """(function, positional parameters a call fills, defaulted parameters)
    of every public function at module level and public method of a class
    there.  A method's ``self`` or ``cls`` is not filled by a call."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += [(f, True) for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node, False))
    found = []
    for func, method in out:
        if func.name.startswith("_"):
            continue
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in func.decorator_list)
        if method and not static:
            positional = positional[1:]
        defaults = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaults += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if defaults:
            found.append((func, positional, defaults))
    return found


def _calls(tree: ast.Module) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Calls in ``tree`` by the name they call, and the names read there
    other than as the callee of a call."""
    calls, callees = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(node)
                callees.add(id(node.func))
    read = {getattr(n, "id", None) or n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            and id(n) not in callees}
    return calls, read


def _passes(call: ast.Call, positional: list[str], param: str) -> bool:
    """Whether ``call`` passes ``param``, by position or by keyword; a
    starred argument passes every positional parameter, and ``**`` every
    parameter."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return param in positional
    return param in positional[:len(call.args)]


def _test_only_parameters(tree: ast.Module, calls: dict, read: set) -> list[tuple]:
    """(function, parameter, line) of each defaulted parameter of ``tree``'s
    public functions that no call in ``calls`` passes.  A function that
    ``read`` names without calling it counts as passing all of them."""
    return [(func.name, param, func.lineno)
            for func, positional, defaults in _defaulted(tree) if func.name not in read
            for param in defaults
            if not any(_passes(call, positional, param) for call in calls.get(func.name, []))]


@functools.cache
def _calls_outside_tests() -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Calls and names read in the package's and the benchmark's modules."""
    calls, read = {}, set()
    for p in OUTSIDE_TESTS:
        more, names = _calls(ast.parse(p.read_text(encoding="utf-8")))
        for name, found in more.items():
            calls.setdefault(name, []).extend(found)
        read |= names
    return calls, read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_defaulted_parameters_have_a_caller_outside_tests(path):
    found = _test_only_parameters(ast.parse(path.read_text(encoding="utf-8")),
                                  *_calls_outside_tests())
    assert [f"{func}({param}=) (line {line})" for func, param, line in found
            if (path.name, func, param) not in TEST_ONLY_PARAMETERS] == []


def test_test_only_parameter_is_caught():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3): pass\n"
                     "def g(x=1): pass\n"
                     "def kept(y=1): pass\n"
                     "def _private(z=1): pass\n"
                     "class K:\n"
                     "    def m(self, p=1, q=2): pass\n"
                     "    @staticmethod\n"
                     "    def s(p=1, q=2): pass\n"
                     "    def spread(self, p=1, q=2): pass\n"
                     "def h(u=1, v=2): pass\n")
    calls = ast.parse("f(0, 1, c=2)\n"
                      "obj.g()\n"
                      "table = {'k': kept}\n"
                      "K().m(1)\n"
                      "K.s(1)\n"
                      "k.spread(**opts)\n"
                      "h(*args)\n")
    assert _test_only_parameters(tree, *_calls(calls)) == [
        ("f", "d", 1), ("g", "x", 2), ("m", "q", 6), ("s", "q", 8)]


# public dataclass fields that nothing outside the tests reads, and why each stays
TEST_ONLY_FIELDS = {
    ("formulations.py", "Explanation", "action_indices"):
        "the candidate the solver chose in each dimension, which no other output gives back",
    ("formulations.py", "Explanation", "tree_leaves"):
        "the leaf the solver chose in each tree, which no other output gives back",
    ("milpcore.py", "MilpSolution", "gap"):
        "the optimality gap the search proved, which no other output gives back",
    ("data.py", "RawDataset", "n_dropped"):
        "the rows load_csv skipped; benchmark/workloads.py passes it when it builds one",
}


def _is_dataclass(decorator: ast.expr) -> bool:
    """Whether ``decorator`` is ``dataclass``, ``dataclasses.dataclass`` or a
    call of either."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", None) == "dataclass" or \
        getattr(decorator, "attr", None) == "dataclass"


def _dataclass_fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, field, line) of every public field of a public dataclass at
    module level."""
    return [(node.name, f.target.id, f.lineno)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any(_is_dataclass(d) for d in node.decorator_list)
            for f in node.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            and not f.target.id.startswith("_")]


def _attributes_read(tree: ast.Module) -> set[str]:
    """Every attribute read in ``tree``; an assignment to one is not a read."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_fields(tree: ast.Module, read: set[str]) -> list[tuple[str, str, int]]:
    """(class, field, line) of each public dataclass field of ``tree`` that
    no attribute in ``read`` names.  The field's declaration and constructor
    keywords are not reads.  Reads are matched by name alone, so a read of a
    name that two classes own counts for both."""
    return [(cls, name, line) for cls, name, line in _dataclass_fields(tree)
            if name not in read]


@functools.cache
def _attributes_outside_tests() -> set[str]:
    """Attributes read in the package's and the benchmark's modules."""
    return set().union(*(_attributes_read(ast.parse(p.read_text(encoding="utf-8")))
                         for p in OUTSIDE_TESTS))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_dataclass_fields_are_read_outside_tests(path):
    """Each public field of a public dataclass is read as an attribute in
    ``src/`` or ``benchmark/*.py``.  The blind spot: reads match by name
    alone, so a read of a name that two classes own counts for both."""
    found = _unread_fields(ast.parse(path.read_text(encoding="utf-8")),
                           _attributes_outside_tests())
    assert [f"{cls}.{name} (line {line})" for cls, name, line in found
            if (path.name, cls, name) not in TEST_ONLY_FIELDS] == []


def test_untread_field_is_caught():
    tree = ast.parse("@dataclass\n"
                     "class R:\n"
                     "    used: int\n"
                     "    only_tested: int\n"
                     "    set_only: int = 0\n"
                     "    _private: int = 0\n"
                     "    def method(self): return self.used\n"
                     "@dataclasses.dataclass(frozen=True)\n"
                     "class F:\n"
                     "    shared: str\n"
                     "class Plain:\n"
                     "    unread: int\n"
                     "@dataclass\n"
                     "class _Hidden:\n"
                     "    unread: int\n")
    outside = _attributes_read(ast.parse("r = R(used=1, only_tested=2, set_only=3)\n"
                                         "r.set_only = 4\n"
                                         "print(r.used, other.shared)\n"))
    tests = _attributes_read(ast.parse("assert r.only_tested == 2\n"))
    assert _unread_fields(tree, outside) == [("R", "only_tested", 4), ("R", "set_only", 5)]
    assert _unread_fields(tree, outside | tests) == [("R", "set_only", 5)]


def _imports_of(tree: ast.Module, package: str) -> list[int]:
    """Lines, at any nesting level, that import ``package`` or a submodule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == package or n.startswith(package + ".") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_sparse_import(path):
    assert _imports_of(ast.parse(path.read_text(encoding="utf-8")), "scipy.sparse") == []


def test_sparse_import_is_caught():
    tree = ast.parse("import scipy.linalg\n"
                     "from scipy import sparse\n"
                     "def f():\n"
                     "    import scipy.sparse.linalg as sl\n"
                     "    from scipy.sparse import csr_matrix\n"
                     "    from .sparse import x\n"
                     "    from scipy import optimize\n")
    assert _imports_of(tree, "scipy.sparse") == [2, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_linalg_import(path):
    assert _imports_of(ast.parse(path.read_text(encoding="utf-8")), "scipy.linalg") == []


def test_linalg_import_is_caught():
    tree = ast.parse("import scipy\n"
                     "from scipy.linalg.blas import dger\n"
                     "def f():\n"
                     "    import scipy.linalg as la\n"
                     "    from scipy import linalg\n"
                     "    from scipy.linalgx import y\n"
                     "    from .linalg import z\n")
    assert _imports_of(tree, "scipy.linalg") == [2, 4, 5]
