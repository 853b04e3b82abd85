"""The README's library example runs as written."""

import doctest
from pathlib import Path


def test_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted and not failed
