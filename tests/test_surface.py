"""Guards on the package's surface: one import path and no dead parameters.

Every name is imported from its module, ``ncjoin.<module>.<name>``; the
package itself binds only its submodules and ``__version__``. A function
parameter that its body never reads is surface no caller needs, so none
is allowed (``self`` and ``cls`` aside).
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import ncjoin

SOURCE = Path(ncjoin.__file__).resolve().parent


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
