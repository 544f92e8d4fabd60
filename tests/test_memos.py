"""The registry of process memos, ``paths.MEMOS``, held to every module's
globals.

Core claims:
    - every ``pathpairs`` global with a ``cache_clear`` is registered
    - in a fresh interpreter, a workload that runs every CLI command changes
      exactly the registered globals, and ``clear_memos`` then puts every
      global back to what it held at import
    - the scan names an unregistered ``lru_cache`` and an unregistered
      module-level dict that a workload fills
    - a second copy of a module, loaded from its source, leaves the
      package's registrations in place
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from io import StringIO
from pathlib import Path

from conftest import clear_memos

import pathpairs
from pathpairs import cli, formulas, paths, series

MODULES = [
    pathpairs,
    *(importlib.import_module(f"pathpairs.{info.name}") for info in pkgutil.iter_modules(pathpairs.__path__)),
]

#: One query per CLI command, small enough to run in well under a second,
#: that between them fill every memo.
WORKLOAD = [
    ["nkr", "--n", "6", "--r", "3", "--method", "all"],
    ["mrs", "--n", "6", "--r", "2", "--s", "4", "--method", "all"],
    ["fnk", "--n", "5", "--method", "all"],
    ["pnk", "--n", "5", "--method", "all"],
    ["diag", "--n", "5"],
    ["avg", "--n", "5"],
    ["barrier", "--a", "2", "--b", "2", "--x", "2", "--p", "1/3"],
    ["bijection", "--r", "2", "--s", "3"],
    ["verify", "--all", "--nmax", "4"],
]


def _globals():
    """(qualified name, value) of every global of every pathpairs module,
    dunder names aside."""
    for module in MODULES:
        prefix = module.__name__.removeprefix("pathpairs.")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield f"{prefix}.{name}", value


def unregistered_caches() -> list[str]:
    """The globals with a ``cache_clear`` that no registry entry calls."""
    resets = list(paths.MEMOS.values())
    return sorted(name for name, value in _globals() if hasattr(value, "cache_clear") and value.cache_clear not in resets)


def snapshot() -> dict[str, str]:
    """What each global holds: a cache's statistics, or any other value's
    repr, which shows a container's contents."""
    return {name: repr(value.cache_info() if hasattr(value, "cache_info") else value) for name, value in _globals()}


def changed_since(before: dict[str, str]) -> list[str]:
    return sorted(name for name, held in snapshot().items() if held != before.get(name))


def run_every_command() -> None:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        codes = [cli.main(argv) for argv in WORKLOAD]
    assert codes == [0] * len(WORKLOAD)


def scan_from_import() -> dict[str, list[str]]:
    """Run in a fresh interpreter: the globals the workload changed, and
    those that still differ from their values at import after
    ``clear_memos``."""
    at_import = snapshot()
    run_every_command()
    changed = changed_since(at_import)
    clear_memos()
    return {"changed": changed, "left": changed_since(at_import)}


def test_every_cache_is_registered():
    assert unregistered_caches() == []


def test_the_workload_runs_every_command():
    commands = {name.removeprefix("cmd_") for name in vars(cli) if name.startswith("cmd_")}
    assert sorted(argv[0] for argv in WORKLOAD) == sorted(commands)


def test_every_command_changes_only_registered_memos_and_clear_memos_restores_them():
    here = Path(__file__).parent
    path = [str(here), str(Path(pathpairs.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    code = "import json, test_memos; print(json.dumps(test_memos.scan_from_import()))"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"changed": sorted(paths.MEMOS), "left": []}


def test_the_scan_names_an_unregistered_cache_and_dict(monkeypatch):
    cache, kept = lru_cache(maxsize=8)(abs), {}
    monkeypatch.setattr(formulas, "_fake_cache", cache, raising=False)
    monkeypatch.setattr(series, "_FAKE_DICT", kept, raising=False)
    assert unregistered_caches() == ["formulas._fake_cache"]
    before = snapshot()
    cache(-3)
    kept[1] = 2
    assert changed_since(before) == ["formulas._fake_cache", "series._FAKE_DICT"]
    assert not set(changed_since(before)) & set(paths.MEMOS)


def test_a_second_copy_of_a_module_leaves_the_registry_as_it_was():
    registered = dict(paths.MEMOS)
    spec = importlib.util.spec_from_file_location("pathpairs._formulas_again", formulas.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert paths.MEMOS == registered
