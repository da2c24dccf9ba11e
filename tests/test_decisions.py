"""Each decision is made in one module.

The exit status of an error is its class's `exit_code`, so the CLI catches
`GeometryError` once and names no subclass; the Levi-Civita gate is
`solver.certify`, so only the solver raises `Inconsistent`; grid values
become elements in `TorusGrid.read_back`, so the solver builds no central
element itself; the one dense pseudo-inverse is the wedge table's, so
Phi_g^{-1} undoes (P_sym)_23 by its closed form; and graded products and sums
share one pass loop, so only its kernel cuts passes and coalesces.  The code
is read from its syntax trees, so a docstring that names one of these does
not count.
"""

import ast
from pathlib import Path

from nclevi import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "nclevi"

# every GeometryError subclass -> the status `nclevi` exits with: 1 for a
# mathematical failure, 2 for input that fails validation
EXIT_CODES = {
    "GeometryError": 1,
    "InputError": 2,
    "BackendMismatch": 1,
    "Inconsistent": 1,
    "NoSolution": 1,
    "NonUnique": 1,
    "RangeNotSymmetric": 1,
    "SingularMetric": 1,
    "NonCentralResult": 2,
    "NonCommutativeBackend": 2,
    "NonSkew": 2,
    "SizeTooLarge": 2,
    "TruncationOverflow": 2,
}


def _error_classes() -> list:
    out, todo = [], [errors.GeometryError]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return out


def _tree(module: str) -> ast.AST:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _names(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_error_class_has_a_pinned_exit_code():
    assert {cls.__name__: cls.exit_code for cls in _error_classes()} == EXIT_CODES


def test_cli_catches_no_error_subclass():
    # neither a subclass by name nor a module-level tuple of them
    tree = _tree("cli")
    aliases = {t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    banned = aliases | {cls.__name__ for cls in _error_classes()} - {"GeometryError"}
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught |= _names(node.type)
    assert not caught & banned, f"cli.py catches {sorted(caught & banned)}"


def test_only_the_solver_raises_inconsistent():
    raisers = {path.stem for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Raise) and node.exc is not None
               and "Inconsistent" in _names(node.exc)}
    assert raisers == {"solver"}


def test_solver_builds_no_central_element():
    calls = [node.lineno for node in ast.walk(_tree("solver"))
             if isinstance(node, ast.Call) and "central_element" in _names(node.func)]
    assert not calls, f"solver.py calls central_element at lines {calls}"


def _callers(name: str) -> list:
    """(module, enclosing class and function) of every call whose callee names `name`."""
    out = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in _names(child.func):
                out.append((module, ".".join(where)))
            scope = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, where + (child.name,) if scope else where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return out


def test_the_only_pseudo_inverse_is_the_wedge_tables():
    assert _callers("pinv") == [("calculus", "CalculusSpec._validate")]


def test_one_graded_pass_loop_serves_products_and_sums():
    for name in ("_passes", "_coalesce"):
        assert _callers(name) == [("algebra", "_graded_kernel")], name
