"""Every name the repository benchmark binds still resolves.

``perfbench/layertrace.py`` wraps program functions and methods by
qualified name, and its ``install()`` raises ``KeyError`` for a name
that no longer exists.  Loading that file read-only and installing its
wrappers here makes a deleted or renamed bound name fail tier-1, not
only a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[2] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("_perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(targets):
    """The object each target names, as its owner holds it now."""
    found = []
    for module_name, qualname, _, _ in targets:
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        found.append(owner.__dict__[attr])
    return found


@pytest.mark.parametrize("table", ["PROGRAM_TARGETS", "CLIENT_TARGETS"])
def test_bound_names_install_and_uninstall(layertrace, table):
    targets = getattr(layertrace, table)
    originals = _bound(targets)
    tracer = layertrace.Tracer()
    try:
        tracer.install(targets)
        assert len(tracer._restore) >= len(targets)
    finally:
        tracer.uninstall()
    # Uninstall put every original back: no wrapper is left behind.
    assert all(a is b for a, b in zip(_bound(targets), originals))
