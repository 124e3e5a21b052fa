"""Static checks on the package source, with the standard library's ast."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "conformal"


def unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\n"
           "from typing import Optional, List\nfrom .a import b, c\n"
           "__all__ = ['c']\n"
           "def f(x: List) -> None:\n    return np.sum(x)\n")
    assert unused_imports(src) == ["Optional", "b", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute)
            and decorator.attr == "dataclass")


def unread_fields(sources, readers) -> list:
    """``Class.field`` for each field of a ``@dataclass`` in ``sources`` whose
    name no module in ``readers`` reads as an attribute (``x.field`` in a
    load, not only in an assignment).  The check goes by name, not type: a
    field that shares its name with one read elsewhere passes."""
    read = {n.attr for text in readers for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass, node.decorator_list))):
                found += [f"{node.name}.{st.target.id}" for st in node.body
                          if isinstance(st, ast.AnnAssign)
                          and isinstance(st.target, ast.Name)
                          and st.target.id not in read]
    return sorted(found)


def test_unread_fields_are_found():
    src = ("import dataclasses\nfrom dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
           "    z: int = 1\n"
           "@dataclasses.dataclass\nclass B:\n    w: int\n"
           "class C:\n    q: int\n"
           "def f(a, b):\n    a.z = 2\n    return a.x + b.w\n")
    assert unread_fields([src], [src]) == ["A.y", "A.z"]


def test_no_unread_dataclass_fields():
    # a record field that no module of the package, its benchmark or its
    # CI scripts reads is dead weight on every record built; a field that
    # only a test reads fails too
    root = SRC.parents[1]
    readers = [p.read_text() for d in ("src", "perfbench", ".github")
               for p in sorted((root / d).rglob("*.py"))]
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources, readers) == []


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unset_defaults(sources, callers) -> list:
    """``function.parameter`` for each defaulted parameter of a function in
    ``sources`` that no call in ``callers`` passes: by keyword, by position
    or through ``*`` or ``**``.  A call goes by the name it calls (``f`` in
    ``f(...)`` and ``a.b.f(...)``), and a call of a class counts for its
    ``__init__``.  A method's first parameter is bound, so a call's first
    positional argument is its second parameter."""
    positional, keywords = {}, {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            n = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in node.args)
                 else len(node.args))
            positional[name] = max(positional.get(name, 0), n)
            keywords.setdefault(name, set()).update(
                k.arg or "**" for k in node.keywords)
    found = []
    for text in sources:
        tree = ast.parse(text)
        owner = {id(st): node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for st in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            params = fn.args.posonlyargs + fn.args.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            defaulted = [(i - bound, p.arg) for i, p in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(
                fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            kws = keywords.get(name, set())
            found += [f"{name}.{arg}" for i, arg in defaulted
                      if arg not in kws and "**" not in kws
                      and (i is None or positional.get(name, 0) <= i)]
    return sorted(found)


def test_unset_defaults_are_found():
    src = ("class A:\n"
           "    def __init__(self, x, y=0, z=1):\n        pass\n"
           "    def m(self, p=0, *, q=1):\n        pass\n"
           "    @staticmethod\n    def s(p=0, r=1):\n        pass\n"
           "def f(a, b=1, c=2, *, d=3):\n    pass\n"
           "def g(a=1):\n    pass\n"
           "def h(a=1, b=2):\n    pass\n")
    calls = ("A(1, 2)\nA(1).m(q=2)\nA.s(5)\nimport mod\nmod.f(0, 1, d=1)\n"
             "g(**opts)\nh(*args)\n")
    assert unset_defaults([src], [calls]) == ["A.z", "f.c", "m.p", "s.r"]


def test_no_unset_defaults():
    # a default that no call of the package, its benchmark or its CI
    # script overrides is an option only a test sets, or none does
    root = SRC.parents[1]
    callers = [p.read_text() for d in ("src", "perfbench", ".github")
               for p in sorted((root / d).rglob("*.py"))]
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unset_defaults(sources, callers) == []


def unreached_functions(sources, callers) -> list:
    """The name of each function or class in ``sources`` that nothing in
    ``callers`` references by a ``Name``, an ``Attribute`` or a string
    constant (a tracer names its targets by string).  Docstrings and
    ``__all__`` do not count.  A decorator call other than ``dataclass``
    (a click command's) registers what it decorates, so it counts as the
    reference; ``staticmethod``, ``classmethod`` and ``property`` do not.
    Dunder methods are left out: Python calls them."""
    refs = set()
    for text in callers:
        tree = ast.parse(text)
        # a statement that is only a string is a docstring
        skip = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for a in ast.walk(tree):
            if isinstance(a, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in a.targets):
                skip.update(id(n) for n in ast.walk(a.value))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.Constant) and id(n) not in skip:
                refs.add(n.value)
    return sorted({
        fn.name for text in sources for fn in ast.walk(ast.parse(text))
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
        and fn.name not in refs and not fn.name.startswith("__")
        and not any(isinstance(d, ast.Call) and _called_name(d.func)
                    != "dataclass" for d in fn.decorator_list)})


def test_unreached_functions_are_found():
    src = ("import click\nfrom dataclasses import dataclass\n"
           "def used():\n    pass\ndef traced():\n    pass\n"
           "def in_docs():\n    'in_docs'\ndef exported():\n    pass\n"
           "@click.command('run')\ndef run():\n    used()\n"
           "class A:\n    def __init__(self):\n        pass\n"
           "    @staticmethod\n    def s():\n        pass\n"
           "    @property\n    def p(self):\n        return 1\n"
           "@dataclass(frozen=True)\nclass B:\n    x: int\n"
           "__all__ = ['exported']\nTARGETS = [('mod', 'traced')]\nA()\n")
    assert unreached_functions([src], [src]) == [
        "B", "exported", "in_docs", "p", "s"]


def test_every_function_is_reached():
    # every function and class of the package is reached from a command,
    # the benchmark or a CI script, except:
    # - origin_branch_directions and measure_section_angle, the only callers
    #   of intersect.brentq, which the benchmark's tracer patches; they go
    #   with brentq once the tracer no longer targets it
    # - structural_residuals and integrability_residuals, the documented
    #   check of given (f1, f2, kappa) data and the whole-grid reference
    #   that the block tests compare prescribe against
    root = SRC.parents[1]
    callers = [p.read_text() for d in ("src", "perfbench", ".github")
               for p in sorted((root / d).rglob("*.py"))]
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreached_functions(sources, callers) == [
        "integrability_residuals", "measure_section_angle",
        "origin_branch_directions", "structural_residuals"]


def test_no_module_imports_sympy():
    # numpy and click are the declared runtime; sympy is a test extra
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in n.names] if isinstance(n, ast.Import)
                     else [n.module or ""] if isinstance(n, ast.ImportFrom)
                     else [])
            assert "sympy" not in {m.split(".")[0] for m in names}, path.name


def enclosing_calls(names, sources) -> list:
    """``module.function`` for each call of a name in ``names`` (by
    :func:`_called_name`) in ``sources``, a {module: text} dict, named by
    the innermost function that holds the call (``module`` at module
    level)."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and _called_name(child.func) in names):
                found.add(where)
            visit(child, module, f"{module}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    for module, text in sources.items():
        visit(ast.parse(text), module, module)
    return sorted(found)


def test_enclosing_calls_are_found():
    src = ("def f():\n    g()\n    def h():\n        return mod.g(1)\n"
           "def k():\n    return f()\ng()\n")
    assert enclosing_calls({"g"}, {"m": src}) == ["m", "m.f", "m.h"]


def test_point_queries_enter_by_two_functions():
    # the entry rule of a point query (the domain, the frame of the point's
    # shape dict, the margin) is written once, in the two entry functions:
    # no other function calls its checks
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert enclosing_calls({"_require_margin", "_require_frame"},
                           sources) == ["invariants._shape_at",
                                        "invariants._state_at"]
