"""What importing entmac and a CLI run load: only the modules they use.

Each check runs in a fresh interpreter without ``site``, since the test
process has long since imported the modules under test.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: prints, as a dict literal, which of WATCHED are loaded after each step
CHILD = """
import contextlib, io, sys
WATCHED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "json", "csv")
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
