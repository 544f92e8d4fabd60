"""Route independence, read from the import statements.

Core claims:
    - the four routes (enumeration oracle, closed forms, series, 2-to-1
      correspondence) import nothing from the package but ``paths``, and
      ``paths`` imports nothing from it, so no route can borrow another's
      values; only ``verify`` (and the CLI) see more than one route
    - the import reader itself sees package imports in every spelling
"""

import ast
from pathlib import Path

import pytest

import pathpairs

PACKAGE_DIR = Path(pathpairs.__file__).parent


def package_imports(source: Path) -> set[str]:
    """Names of the pathpairs modules the file ``source`` imports anywhere,
    function bodies included."""
    tree = ast.parse(source.read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "pathpairs":
                    found.add(rest.split(".")[0] or "pathpairs")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                head, _, rest = (node.module or "").partition(".")
                if head != "pathpairs":
                    continue
            else:
                rest = node.module or ""
            if rest:
                found.add(rest.split(".")[0])
            else:  # from . import a, b / from pathpairs import a, b
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("paths", set()),
        ("oracle", {"paths"}),
        ("formulas", {"paths"}),
        ("series", {"paths"}),
        ("bijection", {"paths"}),
    ],
)
def test_route_imports_only_paths(module, allowed):
    assert package_imports(PACKAGE_DIR / f"{module}.py") <= allowed


def test_import_reader_sees_every_spelling(tmp_path):
    source = (
        "import math\n"
        "import pathpairs.oracle\n"
        "from pathpairs import series\n"
        "from pathpairs.bijection import insert_meeting\n"
        "from . import paths\n"
        "from .formulas import binom\n"
        "def f():\n"
        "    from .verify import run_all\n"
    )
    (tmp_path / "probe.py").write_text(source)
    found = package_imports(tmp_path / "probe.py")
    assert found == {"oracle", "series", "bijection", "paths", "formulas", "verify"}


def test_verify_is_where_routes_meet():
    assert {"oracle", "formulas", "series", "bijection"} <= package_imports(PACKAGE_DIR / "verify.py")
