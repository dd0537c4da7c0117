"""The public names other code binds to by name must exist.

The benchmark's tracer wraps each of its ``TARGETS`` by owner and attribute
name and silently skips one that is gone, so a renamed or deleted target
would read as zero work instead of failing; these tests make it fail.
"""

import importlib
import inspect
import re
import runpy
from pathlib import Path

import pytest

import preisach

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"


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


def test_tracer_target_classes_are_not_subclasses_of_one_another():
    # the tracer finds each method through inspect.getattr_static, so a target
    # class derived from another would inherit that class's wrapper and wrap
    # it again: each of its calls would count once under each span name
    owners = {t[2] for t in tracer_targets() if ":" in t[2]}
    classes = [getattr(importlib.import_module(m), c) for m, c in
               (owner.split(":") for owner in sorted(owners))]
    assert [(a.__name__, b.__name__) for a in classes for b in classes
            if a is not b and issubclass(a, b)] == []


def console_scripts():
    """``name = "module:attr"`` lines of ``[project.scripts]`` (no tomllib on 3.10)."""
    table = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    table = table.split("\n[", 1)[0]
    return re.findall(r'^(\S+)\s*=\s*"([\w.]+):(\w+)"', table, flags=re.M)


def test_console_scripts_declared():
    assert [name for name, _, _ in console_scripts()] == ["preisach"]


@pytest.mark.parametrize("name, module, attr", console_scripts())
def test_console_script_target_runs(name, module, attr, capsys):
    target = getattr(importlib.import_module(module), attr)
    assert callable(target)
    assert target(["--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: {name} ")


def test_every_exported_name_resolves():
    missing = [name for name in preisach.__all__ if not hasattr(preisach, name)]
    assert missing == []


@pytest.mark.parametrize("kind", [preisach.AgentPopulation, preisach.WeightGrid,
                                  preisach.GeneralizedPopulation, preisach.ShiftModel],
                         ids=lambda kind: kind.__name__)
def test_every_simulator_starts_from_a_memory(kind):
    assert list(inspect.signature(kind.simulator).parameters) == ["self", "memory"]
