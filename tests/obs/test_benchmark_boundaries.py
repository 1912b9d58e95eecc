"""The benchmark's traced run wraps program methods by name.

``perfbench/spans.py`` lists ``(module, class, method, span)`` boundaries
and, with ``--trace 1``, replaces ``owner.__dict__[method]`` on each.  A
refactor that drops or moves one of those methods would only surface as a
``KeyError`` when the traced run installs; this test fails first.  The
list is read with ``ast`` so the benchmark's own modules are not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _boundaries() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BOUNDARIES"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no BOUNDARIES assignment in {SPANS}")


BOUNDARIES = _boundaries()


def test_boundaries_found():
    assert BOUNDARIES


@pytest.mark.parametrize(
    "module_name, class_name, method, span_name",
    BOUNDARIES,
    ids=[f"{cls}.{method}" for _, cls, method, _ in BOUNDARIES],
)
def test_boundary_method_defined_on_owner(module_name, class_name, method, span_name):
    owner = getattr(importlib.import_module(module_name), class_name)
    assert method in owner.__dict__, (
        f"{module_name}.{class_name} no longer defines {method!r}; the traced "
        f"benchmark run wraps it as span {span_name!r}"
    )
