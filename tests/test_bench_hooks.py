"""Every name the traced benchmark wraps still exists, so no per-layer metric drops silently."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _hooked_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, path) for module, path, *_ in tracing.HOOKS]


HOOKED = _hooked_names()


@pytest.mark.parametrize("module,path", HOOKED, ids=[f"{m}.{p}" for m, p in HOOKED])
def test_hooked_name_resolves(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if isinstance(owner, type):
        # the tracer replaces a method in the class body itself
        assert attr in owner.__dict__, f"{module}.{path} is not defined in its class"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{path} is missing"
