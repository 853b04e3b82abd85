"""Every function the traced benchmark run wraps must exist.

perfbench/layers.py names panehr functions by module and attribute; a
rename would silently drop its spans ("not found, not traced"), so each
target is resolved here.  The benchmark files are read, never changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("CALLS", "ITERATORS")
                for t in node.targets):
            yield from ast.literal_eval(node.value)


TARGETS = list(_targets())


def test_targets_listed():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module, attr, span", TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_trace_target_resolves(module, attr, span):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{module}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)
