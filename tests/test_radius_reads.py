"""The truncation radius bounds outside input and enters no computation.

An algebra's radius R is read where input is checked: the descriptor itself,
the mode constructors' `_truncated` and `random_element`'s draws, and in
`deform_backend`, which carries R over to the deformed algebra.  A metric's
components are elements like any other, so `MetricSpec` does not read R.  A
read anywhere else would let an answer depend on the R a user picked.  Reads
are found in the syntax trees, so a docstring that mentions the radius does
not count; the CLI's `args.radius` is the parsed `--radius` option, the input
itself.
"""

import ast
from pathlib import Path

from conftest import attribute_uses

SRC = Path(__file__).resolve().parents[1] / "src" / "nclevi"

INPUT_SITES = {
    ("algebra", ("BackendDescriptor",)),
    ("algebra", ("_truncated",)),
    ("algebra", ("random_element",)),
    ("deformation", ("deform_backend",)),
}


def _radius_reads(tree: ast.AST) -> list:
    """(enclosing class and function names, line) of every `x.radius` read but `args.radius`."""
    return [(scope, node.lineno) for scope, node in attribute_uses(tree, "radius")
            if isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")]


def test_radius_is_read_only_where_input_is_checked():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _radius_reads(ast.parse(path.read_text(encoding="utf-8"))):
            if not any(path.stem == module and scope[:len(site)] == site
                       for module, site in INPUT_SITES):
                stray.append(f"{path.stem}.{'.'.join(scope) or '<module>'} (line {line})")
    assert not stray, f"the truncation radius is read outside input checks: {stray}"
