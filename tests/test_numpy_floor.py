"""The package and its tools use no numpy name newer than the declared floor.

pyproject.toml declares ``numpy>=1.24``.  Each name below was added after
1.24 (most in 2.0), so one use of it breaks every run on that floor.  The
scan reads the syntax tree, so a name in a comment or a docstring is no
hit.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "diafact").glob("*.py"), *(ROOT / "tools").glob("*.py")])

# attributes of the numpy module, and of numpy.linalg
NEWER = {
    "vecdot", "matrix_transpose", "permute_dims", "concat", "pow", "astype", "isdtype",
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "cumulative_sum", "cumulative_prod", "trapezoid", "bool",
}
NEWER_LINALG = {"vector_norm", "matrix_norm", "vecdot", "matrix_transpose", "outer", "cross"}


def _numpy_path(node, aliases):
    """``["numpy", ...]`` for an attribute chain rooted at a numpy alias, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return aliases[node.id].split(".") + parts[::-1]
    return None


def newer_uses(source):
    """The numpy names newer than 1.24 that ``source`` uses, as strings."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the numpy module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            newer = NEWER if node.module == "numpy" else NEWER_LINALG
            hits += [f"{node.module}.{a.name}" for a in node.names if a.name in newer]
        elif isinstance(node, ast.Attribute):
            if node.attr == "mT":
                hits.append(".mT")
            path = _numpy_path(node, aliases)
            if path == ["numpy", node.attr] and node.attr in NEWER or (
                    path == ["numpy", "linalg", node.attr] and node.attr in NEWER_LINALG):
                hits.append(".".join(path))
        elif isinstance(node, ast.Call) and _numpy_path(node.func, aliases) == ["numpy", "asarray"]:
            if any(k.arg == "copy" for k in node.keywords):
                hits.append("numpy.asarray(copy=...)")
    return hits


def test_the_scan_finds_each_newer_name():
    source = "\n".join([
        "import numpy as np", "import numpy.linalg as la", "from numpy import concat",
        "x.mT", "np.vecdot(a, b)", "np.linalg.vector_norm(a)", "la.outer(a, b)", "np.bool",
        "np.asarray(a,\n    copy=False)",
        "np.concatenate(a)", "np.power(a, 2)", "np.bool_", "np.linalg.norm(a)", "np.outer(a, b)",
        "np.asarray(a, dtype=float)", "'np.vecdot and .mT in a string'",
    ])
    assert sorted(newer_uses(source)) == sorted([
        "numpy.concat", ".mT", "numpy.vecdot", "numpy.linalg.vector_norm",
        "numpy.linalg.outer", "numpy.bool", "numpy.asarray(copy=...)",
    ])


def test_the_floor_is_the_one_scanned_for():
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_numpy_name_newer_than_the_floor(path):
    assert newer_uses(path.read_text(encoding="utf-8")) == []
