"""The example scripts still import against the current API.

No other test imports ``examples/``, so a renamed or deleted public name
would otherwise break them silently.  Every example guards ``main()``
behind ``if __name__ == "__main__"``, so running one under another
module name executes only its imports and definitions.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="__example_import__")
    assert callable(namespace["main"])
