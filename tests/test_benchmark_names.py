"""The names the benchmark's tracer pins exist in the package.

``perfbench/tracer.py`` wraps each function its ``BOUNDARIES`` names, and a
run with a name missing from the build reports ``correct: false``. This
module resolves each name as ``Tracer.install`` does, without installing the
tracer, so that a rename fails here before it fails the benchmark. It goes
with ``tracer.py`` once the run report replaces the tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses reads the module's namespace from sys.modules while it builds a class
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


#: every target but the compiled kernel's "entmac._kernels._fast:*", which wraps whatever the
#: module exports, and only when it is built
TARGETS = [b.target for b in load_tracer().BOUNDARIES if not b.target.endswith(":*")]


@pytest.mark.parametrize("target", TARGETS)
def test_a_traced_boundary_resolves_in_the_package(target):
    module_name, attr = target.split(":")
    holder = importlib.import_module(module_name)
    owner, _, name = attr.rpartition(".")
    if owner:
        holder = getattr(holder, owner)
    assert name in vars(holder)
