"""The benchmark's workloads import public names from nclevi.  A name removed
from the package would break the benchmark only when it runs, so check here
that every such import still resolves."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_workload_imports_resolve():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    wanted = [(node.module, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "nclevi"
              for alias in node.names]
    assert wanted, "perfbench/workloads.py imports nothing from nclevi"
    missing = [f"{module}.{name}" for module, name in wanted if not _resolves(module, name)]
    assert not missing, f"names the benchmark imports are gone: {missing}"
