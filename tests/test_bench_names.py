"""Every function that the benchmark traces by name is still a public function of its layer.

`BENCHMARK.json` names per-layer metrics `<layer>.<function>.self_s` and
`<layer>.<function>.calls`.  The benchmark's tracer finds those functions
among the public functions of `kopt_lab.<layer>`, plus the one method
`lowerbound.LowerBoundInstance.as_instance`.  A function that is renamed,
removed or made private leaves its metric unmeasured, and
`bench/run.py --trace 1` then stops with "metrics not measured".  This guard
fails first, in tier 1.  It reads `BENCHMARK.json` and changes nothing.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from kopt_lab import geometry, lowerbound

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_names() -> list:
    """`<layer>.<function>` of every `.self_s` or `.calls` metric that names a function."""
    out = []
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        stem, _, suffix = metric["name"].rpartition(".")
        if suffix in ("self_s", "calls") and "." in stem:  # not a layer total, `<layer>.self_s`
            out.append(stem)
    return out


def is_traced(name: str) -> bool:
    """Is `<layer>.<function>` (or `<layer>.<class>.<method>`) there for the tracer to find?"""
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"kopt_lab.{layer}")
    owner, _, method = attr.rpartition(".")
    if owner:
        cls = vars(module).get(owner)
        return inspect.isclass(cls) and inspect.isfunction(vars(cls).get(method))
    fn = vars(module).get(attr)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_every_traced_name_is_a_public_function():
    names = traced_names()
    assert {"geometry.point_in_polygon", "lowerbound.LowerBoundInstance.as_instance"} <= set(names)
    assert [name for name in names if not is_traced(name)] == []


@pytest.mark.parametrize("owner,attr,name", [
    (geometry, "point_in_polygon", "geometry.point_in_polygon"),
    (lowerbound.LowerBoundInstance, "as_instance", "lowerbound.LowerBoundInstance.as_instance"),
])
def test_a_deleted_name_fails_the_guard(monkeypatch, owner, attr, name):
    assert is_traced(name)
    monkeypatch.delattr(owner, attr)
    assert not is_traced(name)
