"""The benchmark tracer's engine names all resolve, and the CLI reaches them.

perfbench/tracer.py rebinds engine functions and methods by name from
outside the package, so a refactor that renames or removes one of them
breaks the traced benchmark pass; this test makes that fail here first.
A command that reaches its result through an untraced wrapper reads 0 in
a traced pass, so each pipeline command must call its traced function.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import dworkcohom
from dworkcohom.matrices import IntRankAccumulator

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# command line -> the traced function the command must reach exactly once
TRACED_JOBS = {
    "griffiths.jacobian_hilbert": ["hodge", "x0^3 + x1^3 + x2^3",
                                   "-v", "x0,x1,x2"],
    "dwork.primitive_dwork_cohomology": ["dwork", "x0*x1*x2", "-v", "x0,x1,x2"],
    "dwork.affine_twisted_cohomology": ["affine", "x^2 + y^3", "-v", "x,y",
                                        "--weights", "3,2"],
    "dwork.strand_decomposition": ["strands", "x0^3 + x1^3 + x2^3",
                                   "-v", "x0,x1,x2"],
}

# Installs the tracer in a fresh interpreter, runs each command through
# cli.main, and prints each command's exit code and the calls it added to
# every traced function.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from dworkcohom import cli
out = {}
for name, argv in json.loads(sys.argv[2]).items():
    before = {k: span.calls for k, span in tracer.spans.items()}
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out[name] = code, {k: span.calls - before[k]
                       for k, span in tracer.spans.items()}
print(json.dumps(out))
"""


def test_each_command_reaches_its_traced_function_once():
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), json.dumps(TRACED_JOBS)],
        capture_output=True, text=True, timeout=300, check=True)
    got = json.loads(run.stdout)
    assert {name: (code, calls[name]) for name, (code, calls) in got.items()} \
        == {name: (0, 1) for name in TRACED_JOBS}
