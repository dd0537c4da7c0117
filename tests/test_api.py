"""The public names other code binds to by name must exist.

The benchmark's tracer wraps each of its ``TARGETS`` by owner and attribute
name and silently skips one that is gone, so a renamed or deleted target
would read as zero work instead of failing; these tests make it fail.
"""

import importlib
import runpy
from pathlib import Path

import pytest

import preisach

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_targets():
    # run_path compiles the source without importing it as a module, so
    # nothing is cached next to it
    return runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize("owner, attr", sorted({(t[2], t[3]) for t in tracer_targets()}))
def test_tracer_target_resolves(owner, attr):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if cls_name:
        obj = getattr(obj, cls_name)
    assert hasattr(obj, attr), f"{owner} has no {attr}"


def test_every_exported_name_resolves():
    missing = [name for name in preisach.__all__ if not hasattr(preisach, name)]
    assert missing == []
