"""What importing entmac and a CLI run load: only the modules they use, and
never ``typing``, so every annotation in the package must resolve without it.

Each import check runs in a fresh interpreter without ``site``, since the test
process has long since imported the modules under test.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import entmac

SRC = Path(__file__).resolve().parent.parent / "src"

#: prints, as a dict literal, which of WATCHED are loaded after each step
CHILD = """
import contextlib, io, sys
WATCHED = ("dataclasses", "inspect", "typing", "concurrent.futures", "multiprocessing", "json",
           "csv")
def loaded():
    return [name for name in WATCHED if name in sys.modules]
import entmac.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    status = entmac.cli.main(sys.argv[1:])
print(repr(dict(after_import=after_import, after_run=loaded(), status=status)))
"""


def run_fresh(code, argv=()):
    """The literal a fresh interpreter without ``site`` prints running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout)


def imports_of(argv):
    return run_fresh(CHILD, argv)


@pytest.mark.parametrize("module, loaded", [
    # the package root imports no submodule, so each module loads only its own imports
    ("entmac", ["entmac"]),
    ("entmac.aloha", ["entmac", "entmac._records", "entmac.aloha", "entmac.rng", "entmac.stats"]),
])
def test_importing_a_module_loads_only_its_own_imports(module, loaded):
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'entmac'))"
    assert run_fresh(f"import sys, {module}\n{listing}") == loaded


def annotated_objects(module):
    """The functions and classes ``module`` defines, and the functions its classes define.

    A function counts wrapped too, as ``functools.lru_cache`` wraps one.
    """
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(inspect.unwrap(obj)) or inspect.isclass(obj):
            yield obj
        if inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


#: every entmac module but the build script and ``python -m entmac``, which runs the CLI
MODULES = ["entmac"] + [info.name for info in pkgutil.walk_packages(entmac.__path__, "entmac.")
                        if info.name not in ("entmac._kernels.build", "entmac.__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # the package imports no typing, so an annotation is a string nothing evaluates until here
    module = importlib.import_module(name)
    for obj in annotated_objects(module):
        typing.get_type_hints(obj)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_thread_pool():
    got = imports_of(["compare", "--slots", "1000", "--format", "text"])
    assert got["after_import"] == []
    assert got["status"] == 0


@pytest.mark.parametrize("argv", [
    ["compare", "--slots", "1000", "--format", "text"],
    # two chunks and two workers: one forked child, on either backend
    ["hyperdense", "--c-source", "coin", "--workers", "2", "--slots", "70000"],
], ids=["compare", "hyperdense-workers-2"])
def test_a_text_run_loads_no_json_csv_or_pool_it_does_not_use(argv):
    got = imports_of(argv)
    assert got["status"] == 0
    assert got["after_run"] == []


@pytest.mark.parametrize("fmt, module", [("json", "json"), ("csv", "csv")])
def test_each_format_loads_its_own_serializer(fmt, module):
    got = imports_of(["aloha", "--slots", "1000", "--format", fmt])
    assert got["status"] == 0
    assert module in got["after_run"]
