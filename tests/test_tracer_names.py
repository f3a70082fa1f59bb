"""The benchmark tracer's engine names all resolve.

perfbench/tracer.py rebinds engine functions and methods by name from
outside the package, so a refactor that renames or removes one of them
breaks the traced benchmark pass; this test makes that fail here first.
"""

import importlib.util
from pathlib import Path

import dworkcohom
from dworkcohom.matrices import IntRankAccumulator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    for mod_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(getattr(dworkcohom, mod_name), attr)), attr
    for mod_name, cls_name, attr in tracer.METHODS:
        cls = getattr(getattr(dworkcohom, mod_name), cls_name)
        assert callable(getattr(cls, attr)), f"{cls_name}.{attr}"
    # the tracer also wraps this constructor and reads the stored pivots
    assert isinstance(IntRankAccumulator().pivcol, dict)
