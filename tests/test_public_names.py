"""Every public name of `nclevi` has a caller outside the tests of its own.

A name stays public only if the package itself, the benchmark or the
acceptance tests run it, or the README's library sketch shows it; a
one-object wrapper that only unit tests call is not a reason to keep it.
The public names are the exports of `nclevi` and every public module-level
function and public method defined in `src/nclevi`.  Callers are read from
the syntax trees, as test_perfbench_imports.py does, so a docstring that
mentions a name does not count as a use.

The check matches names, not bindings, so it cannot see two things.  Dunder
methods are out of its reach: `x + y` calls `__add__` by syntax, not by name.
And any identifier that is spelt like a method counts as a call of it: a
local variable named `wedge` would keep a method `CalculusSpec.wedge` that
nothing calls.
"""

import ast
import inspect
import re
from pathlib import Path

import nclevi

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nclevi"


def _used_names(tree: ast.AST) -> set:
    """The names, attributes and imported names in a syntax tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _perfbench_imports() -> set:
    out = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "nclevi":
                out.update(alias.name for alias in node.names)
    return out


def _readme_sketch() -> ast.AST:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no python block under '## Library sketch'"
    return ast.parse(block.group(1))


def _public_definitions() -> dict:
    """module.function or module.Class.method -> its name, for each public
    module-level function and public method of src/nclevi."""
    out = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{d.name}", d) for d in node.body
                        if isinstance(d, functions)]
            else:
                continue
            out.update({f"{path.stem}.{qualname}": d.name for qualname, d in defs
                        if not d.name.startswith("_")})
    return out


def test_every_public_name_has_a_caller():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    used |= _perfbench_imports()
    used |= _used_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))
    used |= _used_names(_readme_sketch())
    public = {name: name for name in nclevi.__all__
              if not inspect.ismodule(getattr(nclevi, name))}
    public.update(_public_definitions())
    unused = sorted(where for where, name in public.items() if name not in used)
    assert not unused, f"public names that only the unit tests call: {unused}"
