"""The benchmark's tracer binds package names by attribute; each must exist.

``perfbench/tracing.py`` wraps every ``(module, attr)`` in its ``LAYERS``
table with ``setattr``.  A rename or removal in the package would break
``perfbench/run.py --trace 1`` without failing any other test, so the
table is read here (the file is only imported, never changed).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for bindings in module.LAYERS.values() for mod, attr in bindings]


@pytest.mark.parametrize("mod,attr", layers())
def test_binding_resolves_to_a_callable(mod, attr):
    module = importlib.import_module(f"toeplitz_bounds.{mod}")
    assert callable(getattr(module, attr, None)), f"toeplitz_bounds.{mod}.{attr}"
