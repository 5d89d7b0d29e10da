"""Every polyhom name that the benchmark's traced run wraps still exists.

`perfbench/tracing.py` imports only the standard library, so it is
loaded here by path, unedited.  Its tables name (module, attribute)
pairs that `--trace 1` replaces with wrappers; a deleted or renamed
function would make that run fail with an AttributeError.
"""

import importlib
import importlib.util
import pathlib

import pytest

from polyhom.algebra import FinAbelianGroup

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracing()
WRAPPED = sorted({(module, attr) for module, attr, _ in TRACED.SPANS + TRACED.COUNTED})


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"polyhom.{module}"), attr, None))


def test_counted_group_ops_exist():
    assert all(callable(getattr(FinAbelianGroup, op, None)) for op in TRACED.GROUP_OPS)

