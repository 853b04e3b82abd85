"""Every function the traced benchmark run wraps must exist.

perfbench/layers.py names panehr functions by module and attribute; a
rename would silently drop its spans ("not found, not traced"), so each
target is resolved here.  The benchmark files are read, never changed.
A traced check counts only while the code reaches it by the name the run
patches, so phi and phi_inverse are checked to call the traced checks.
"""

import ast
import importlib
import sys
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


def _count_calls(monkeypatch, module, attr):
    """Count calls of module.attr wherever a panehr module holds it, as the
    traced benchmark run patches it; returns the list the calls land in."""
    original = getattr(importlib.import_module(module), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "panehr" or name.startswith("panehr.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_phi_and_phi_inverse_reach_the_traced_checks(monkeypatch):
    # processing.checks_per_object counts the calls of these two traced
    # checks, so phi and phi_inverse must go through them, once per call
    from panehr import forests, processing

    checked = _count_calls(monkeypatch, "panehr.forests", "check_distinguished")
    imaged = _count_calls(monkeypatch, "panehr.processing", "image_check")
    q = 3
    for d in forests.iter_dcf(q, 3):
        checked.clear()
        imaged.clear()
        image = processing.phi(d)
        assert (len(checked), len(imaged)) == (1, 0)
        assert processing.phi_inverse(image, q) == d
        assert (len(checked), len(imaged)) == (1, 1)
