"""The benchmark's traced run wraps synthnotes functions by name; a rename
or deletion in the program would break only that run, so guard it here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("layer, function", [t[:2] for t in traced_targets()])
def test_traced_name_resolves(layer, function):
    obj = importlib.import_module(f"synthnotes.{layer}")
    for part in function.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
