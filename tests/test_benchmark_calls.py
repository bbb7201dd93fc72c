"""The calls the benchmark makes into the package run.

``perfbench/child.py rates`` times calls such as ``pure.aloha_tally(2, 0.5,
n, seed)``, ``campaign.compare(64, seed)`` and ``qubit.bell_state``. A
changed signature fails only when the benchmark runs, so this module loads
``child.py`` as the benchmark does, with ``perfbench/`` on ``sys.path``, and
calls each rate case once; ``None`` for the compiled module leaves out the
cases that time it directly.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def child(monkeypatch):
    """``perfbench/child.py`` as a module; its sibling modules are dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_each_rate_case_runs_once(child):
    for _, call, _ in child.rate_cases(7, None):
        call()
