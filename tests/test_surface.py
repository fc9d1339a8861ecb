"""Guards on the package's surface: one import path, no dead parameters,
and one name per fact.

Every name is imported from its module, ``ncjoin.<module>.<name>``; the
package itself binds only its submodules and ``__version__``. A function
parameter that its body never reads is surface no caller needs, so none
is allowed (``self`` and ``cls`` aside). A public method or property that
only returns an attribute of ``self``, public or private, or that only
hands out a private attribute set in ``__init__`` (an attribute of it, or
a zero-argument method result of it other than a ``copy()``) names one
fact twice: readers should read the attribute, made public if need be.
An exception class lives in ``errors.py``, and only while some ``except``
in the package names it: a class that nothing catches by name adds no
exit code and no handling, so its raise sites use a surviving class.
A public top-level function or class is read by name somewhere else in
the package or in ``perfbench/``, or has an owner on the ROADMAP: code
that only tests read lives in ``tests/oracles.py``.
"""

import ast
import builtins
import importlib
import pkgutil
import types
from pathlib import Path

import ncjoin

SOURCE = Path(ncjoin.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# public names that nothing in the package reads yet, with the ROADMAP item that owns each
OWNED = {
    "conditional_expectation": "item 4",
    "fixed_point_algebra": "item 4",
    "modular_invariance_check": "item 4",
    "joining_face_dimension": "items 5 and 10",
    "point_spectrum_overlap": "item 6",
    "identity_system": "a system constructor, like cyclic_rotation_system",
}


def test_package_binds_only_submodules_and_version():
    for info in pkgutil.iter_modules(ncjoin.__path__):
        importlib.import_module(f"ncjoin.{info.name}")
    public = {name: value for name, value in vars(ncjoin).items() if not name.startswith("_")}
    assert public
    assert all(isinstance(value, types.ModuleType) for value in public.values()), sorted(public)
    assert isinstance(ncjoin.__version__, str)


def _unread_parameters(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p not in ("self", "cls") and p not in read:
                yield f"{getattr(node, 'name', '<lambda>')}:{node.lineno} {p}"


def test_every_parameter_is_read():
    unread = [f"{path.name} {where}" for path in sorted(SOURCE.glob("*.py"))
              for where in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unread


def _self_attribute(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _accessors(tree: ast.AST):
    """Public methods of a class whose body only returns an attribute of
    ``self``, or a private attribute set in its ``__init__``, an attribute
    of it, or a zero-argument method result of it other than ``copy()``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        private = {_self_attribute(n) for m in methods if m.name == "__init__"
                   for n in ast.walk(m)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        private = {a for a in private if a and a.startswith("_") and not a.startswith("__")}
        for m in methods:
            body = m.body[1:] if ast.get_docstring(m) is not None else m.body
            if m.name.startswith("_") or len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if _self_attribute(value) is not None:
                yield f"{cls.name}.{m.name}:{m.lineno}"
                continue
            if isinstance(value, ast.Call) and not value.args and not value.keywords \
                    and isinstance(value.func, ast.Attribute) and value.func.attr != "copy":
                value = value.func.value
            elif isinstance(value, ast.Attribute) and _self_attribute(value) is None:
                value = value.value
            if _self_attribute(value) in private:
                yield f"{cls.name}.{m.name}:{m.lineno}"


def test_the_accessor_guard_flags_each_form():
    source = """
class C:
    def __init__(self, x):
        self._x, self.y = x, x
    def same(self):
        return self._x
    @property
    def part(self):
        return self._x.blocks
    def derived(self):
        "a docstring does not hide the return"
        return self._x.stacks()
    def copied(self):
        return self._x.copy()
    def public(self):
        return self.y.stacks()
    def two_steps(self):
        return self._x.blocks.tolist()
    @property
    def renamed(self):
        return self.y
"""
    assert [a.split(":")[0] for a in _accessors(ast.parse(source))] == [
        "C.same", "C.part", "C.derived", "C.renamed"]


def test_no_public_accessor_of_a_private_attribute():
    found = [f"{path.name} {where}" for path in sorted(SOURCE.glob("*.py"))
             for where in _accessors(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found


def _resolve(node: ast.AST, namespace: dict):
    """The object a class base like `X` or `np.linalg.LinAlgError` names."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_exception_classes_are_caught_by_name():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    caught = {n.attr if isinstance(n, ast.Attribute) else n.id
              for tree in trees.values() for h in ast.walk(tree)
              if isinstance(h, ast.ExceptHandler) and h.type is not None
              for n in ast.walk(h.type) if isinstance(n, (ast.Name, ast.Attribute))}
    defined = {}
    for stem, tree in trees.items():
        namespace = vars(importlib.import_module(f"ncjoin.{stem}".removesuffix(".__init__")))
        defined[stem] = [
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(b, type) and issubclass(b, BaseException)
                    for b in (_resolve(base, namespace) for base in node.bases))]
    assert [name for name in defined.pop("errors") if name not in caught] == []
    assert {stem: names for stem, names in defined.items() if names} == {}


def _names_read(tree: ast.Module) -> set[str]:
    """Names and attributes read by each top-level statement, its own name aside."""
    read = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return read


def _spanned(tree: ast.Module) -> set[str]:
    """The strings of the tracer's SPANNED table: the functions it wraps by name."""
    return {n.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in stmt.targets)
            for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)}


def test_every_public_name_has_a_reader_or_an_owner():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    public = {node.name: path.name for path, tree in trees.items() if path.parent == SOURCE
              for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    read = set().union(*map(_names_read, trees.values()),
                       _spanned(trees[PERFBENCH / "tracer.py"]))
    assert set(OWNED) <= set(public) - read
    assert {name: where for name, where in public.items()
            if name not in read and name not in OWNED} == {}
