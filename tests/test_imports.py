"""What a cold start loads, and the package's exports, which are resolved
on first access.

Core claims:
    - in a fresh interpreter, importing the CLI and building its parser
      loads ``pathpairs``, ``cli``, ``paths`` and ``routes`` only, and
      neither ``dataclasses`` nor ``inspect``
    - one closed-form ``nkr`` query then loads ``formulas`` alone, and one
      ``barrier --p`` query ``oracle`` and ``formulas`` alone
    - every name in ``__all__`` is the object its defining module holds,
      ``dir`` lists it and ``from pathpairs import *`` binds it; a resolved
      name is not kept in the package's globals, and an unknown name raises
      the standard ``AttributeError``
    - ``IntegralityError`` is one class, defined in ``paths``
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import pathpairs
from pathpairs import formulas, paths

# Run in a fresh interpreter: the modules that importing the CLI and
# building its parser add, and those that one query then adds.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from pathpairs import cli
cli.build_parser()
parsed = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"parser": sorted(parsed - before), "query": sorted(set(sys.modules) - parsed), "code": code}))
"""


def loads(*argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(pathpairs.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def package(modules: list[str]) -> list[str]:
    return [name for name in modules if name.split(".")[0] == "pathpairs"]


def test_building_the_parser_loads_no_route_module_and_no_dataclasses():
    loaded = loads()
    assert package(loaded["parser"]) == ["pathpairs", "pathpairs.cli", "pathpairs.paths", "pathpairs.routes"]
    assert not {"dataclasses", "inspect"} & set(loaded["parser"])


@pytest.mark.parametrize(
    "argv, added",
    [
        ("nkr --n 7 --r 3 --k 2 --method formula-a", ["pathpairs.formulas"]),
        ("barrier --a 2 --b 1 --x 1 --p 1/3", ["pathpairs.formulas", "pathpairs.oracle"]),
    ],
)
def test_a_query_loads_only_the_modules_of_its_routes(argv, added):
    loaded = loads(*argv.split())
    assert loaded["code"] == 0
    assert package(loaded["query"]) == added


def test_every_export_is_its_defining_modules_object():
    for name in pathpairs.__all__:
        module = import_module(f"pathpairs.{pathpairs._EXPORTS[name]}")
        value = getattr(pathpairs, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert not set(pathpairs.__all__) & set(vars(pathpairs))  # nothing resolved is kept


def test_dir_and_star_import_see_every_export():
    assert set(pathpairs.__all__) <= set(dir(pathpairs))
    namespace = {}
    exec("from pathpairs import *", namespace)
    assert all(namespace[name] is getattr(pathpairs, name) for name in pathpairs.__all__)


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match="^module 'pathpairs' has no attribute 'nope'$"):
        pathpairs.nope
    assert getattr(pathpairs, "nope", None) is None


def test_integrality_error_is_one_class():
    assert formulas.IntegralityError is paths.IntegralityError is pathpairs.IntegralityError
