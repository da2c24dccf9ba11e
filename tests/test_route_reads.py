"""What the direct route, the phi route and the Koszul oracle share.

The calculus solves the torsion equations once: `torsion_particular` holds
c^+(-D_i).  The phi route starts from it (`nabla0`) and the oracle's brackets
are twice it (`structure_constants`).  The direct route reads the wedge and
exterior constants themselves, so a fault in `torsion_particular` cannot hide
in all three answers at once.  Uses are found in the syntax trees, so a
docstring that mentions a name does not count.
"""

import ast
from pathlib import Path

from conftest import attribute_uses

SRC = Path(__file__).resolve().parents[1] / "src" / "nclevi"

PARTICULAR_READERS = {
    ("calculus", ("CalculusSpec",)),
    ("solver", ("nabla0",)),
    ("solver", ("structure_constants",)),
}


def _uses(attr: str) -> list:
    """(module, enclosing scope, node) of every `x.attr` in src/nclevi."""
    return [(path.stem, scope, node) for path in sorted(SRC.glob("*.py"))
            for scope, node in attribute_uses(ast.parse(path.read_text(encoding="utf-8")), attr)]


def test_torsion_particular_is_read_only_by_the_phi_route_and_the_oracle():
    stray = [f"{module}.{'.'.join(scope) or '<module>'} (line {node.lineno})"
             for module, scope, node in _uses("torsion_particular")
             if isinstance(node.ctx, ast.Load)
             and not any(module == m and scope[:len(site)] == site
                         for m, site in PARTICULAR_READERS)]
    assert not stray, f"torsion_particular is read outside nabla0 and the oracle: {stray}"


def test_no_torsion_kernel_is_left():
    left = [f"{module} (line {node.lineno})" for module, _, node in _uses("torsion_kernel")]
    assert not left, f"torsion_kernel is still used: {left}"
