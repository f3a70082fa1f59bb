"""The benchmark's workloads: inputs, operations and the oracle for each.

A workload is a list of operations.  Each operation calls the engine through
a module attribute looked up at call time, so that the tracer, once it has
rebound those attributes, sees the call.  ``check`` returns None when the
output agrees with the oracle, else ``(kind, detail)`` where kind is
``"error"`` (the call raised or returned an unexpected exit code) or
``"mismatch"`` (the call returned an answer that disagrees with the oracle).
An operation that fails in the engine as it stands carries that failure's
detail as ``known_error``: it still counts as failed, but only that exact
error is expected, so any other failure of any operation is a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from dworkcohom import QQ, Polynomial, cli, dwork, gaussmanin, griffiths
from dworkcohom.poly import monomial_basis

# window-dense draws its cubics from this fixed seed and ignores --seed: the
# cost of a random dense cubic ranges from 0.5 s to 42 s with the draw, and
# runs with different seeds must measure the same work to be comparable.
PANEL_SEED = 3
DENSE_CUBICS = 3
DENSE_COEFFICIENTS = (-2, -1, 1, 2)

# Digest of the 204x204 Dwork-quintic connection matrix at t = 2, frozen
# from the engine as first released (sha256 of the JSON list of entry rows).
QUINTIC_T2_DIGEST = ("1241d2d1de8703ecd68bb4fee422cb73"
                     "f5a0f8af18aff98c05d996b9b2c57020")

# The K3 gm job fails in the engine as it stands: _DegreeSolver._reduce stops
# at the first non-pivot row, so solve can leave pivot rows in the residue.
K3_GM_ERROR = ("exit 1: residue x0*x1*x2*x3 in degree 4 lies outside the "
               "standard basis")

QUINTIC_VARS = ["x0", "x1", "x2", "x3", "x4"]
FERMAT_QUINTIC = "x0^5 + x1^5 + x2^5 + x3^5 + x4^5"


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    known_error: str | None = None


def fermat(m: int, nvars: int) -> Polynomial:
    return sum(Polynomial.variable(QQ, nvars, k) ** m for k in range(nvars))


def _verdict_check(top: int, nvars: int):
    """Oracle for compare_smooth_paths: the truncated dims are ``top`` in the
    top degree and 0 below, and the verdict (Jacobian-path total equals the
    truncated top dimension, certificate stabilized) holds."""
    def check(verdict):
        trunc = verdict.reports[0]
        dims = tuple(trunc.dim(k) for k in range(nvars + 1))
        want = (0,) * nvars + (top,)
        if dims != want or not verdict.ok:
            failed = [c.name for c in verdict.failed()]
            return "mismatch", f"dims {dims} != {want}, failed {failed}"
        return None
    return check


def _job_check(code_want: int, oracle: Callable[[dict], object]):
    def check(result):
        code, report = result
        if code != code_want:
            return "error", f"exit {code}: {report.get('error', '')}"
        return oracle(report)
    return check


def _dims(report: dict) -> tuple:
    return tuple(d["dim"] for d in report["dims"])


def _expect(label: str, got, want):
    return None if got == want else ("mismatch", f"{label} {got} != {want}")


def _job(command: str, polynomial: str, variables, **fields):
    job = cli.Job(command=command, polynomial=polynomial,
                  variables=list(variables), **fields)
    return lambda: cli.run_job(job)


def window_sparse(seed: int) -> list:
    del seed  # fixed inputs
    f = fermat(4, 4)
    return [
        Operation("compare_smooth_paths fermat(4, 4)",
                  lambda: dwork.compare_smooth_paths(f), _verdict_check(21, 4)),
        Operation("dwork x0*x1*x2",
                  _job("dwork", "x0*x1*x2", ["x0", "x1", "x2"]),
                  _job_check(0, lambda r: _expect("dims", _dims(r),
                                                  (0, 0, 2, 1)))),
    ]


def _draw_cubic(rng: random.Random) -> Polynomial:
    monos = monomial_basis(3, 3)
    while True:
        support = rng.sample(monos, rng.randint(4, len(monos)))
        f = Polynomial(QQ, 3, {nu: rng.choice(DENSE_COEFFICIENTS)
                               for nu in support})
        if griffiths.jacobian_hilbert(f).smooth:
            return f


def window_dense(seed: int) -> list:
    del seed  # fixed inputs, drawn from PANEL_SEED
    rng = random.Random(PANEL_SEED)
    ops = []
    for f in [_draw_cubic(rng) for _ in range(DENSE_CUBICS)]:
        ops.append(Operation(f"compare_smooth_paths {f}",
                             lambda f=f: dwork.compare_smooth_paths(f),
                             _verdict_check(2, 3)))
    return ops


def _strands_oracle(report: dict):
    """Strand dims summed degreewise equal the full complex, which is the
    Milnor number 4^5 = 1024 in the top degree and zero below."""
    full = _dims(report)
    sums = tuple(sum(d["dim"] for s in report["strands"] for d in s["dims"]
                     if d["degree"] == k) for k in range(len(full)))
    if full != (0, 0, 0, 0, 0, 1024):
        return "mismatch", f"full complex {full}"
    return _expect("strand sums", sums, full)


def _matrix_check(mat):
    text = json.dumps(mat.entry_strings())
    digest = hashlib.sha256(text.encode()).hexdigest()
    if mat.size != 204:
        return "mismatch", f"size {mat.size} != 204"
    return _expect("entry digest", digest, QUINTIC_T2_DIGEST)


def _gm_oracle(report: dict):
    failed = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    return ("mismatch", f"failed checks {failed}") if failed else None


def _corpus_check(result):
    code, summary = result
    if code != 0:
        return "error", f"exit {code}: {summary['passed']}/{summary['total']}"
    return _expect("passed", summary["passed"], 5)


def jacobian_gm(seed: int) -> list:
    del seed  # fixed inputs
    quintic_t2 = cli.parse_polynomial(
        FERMAT_QUINTIC + " - 10*x0*x1*x2*x3*x4", QUINTIC_VARS)
    quintic_g = cli.parse_polynomial("-5*x0*x1*x2*x3*x4", QUINTIC_VARS)
    return [
        Operation("hodge fermat quintic",
                  _job("hodge", FERMAT_QUINTIC, QUINTIC_VARS),
                  _job_check(0, lambda r: _expect("hodge", _dims(r),
                                                  (1, 101, 101, 1)))),
        Operation("strands fermat quintic",
                  _job("strands", FERMAT_QUINTIC, QUINTIC_VARS),
                  _job_check(0, _strands_oracle)),
        Operation("rational_connection_matrix dwork quintic t=2",
                  lambda: gaussmanin.rational_connection_matrix(
                      quintic_t2, quintic_g),
                  _matrix_check),
        Operation("gm dwork quartic k3 samples 0,2,-1",
                  _job("gm", "x0^4 + x1^4 + x2^4 + x3^4",
                       ["x0", "x1", "x2", "x3"],
                       perturbation="-4*x0*x1*x2*x3", samples=["0", "2", "-1"]),
                  _job_check(0, _gm_oracle), known_error=K3_GM_ERROR),
        Operation("corpus_runner bundled corpus", lambda: cli.corpus_runner(),
                  _corpus_check),
    ]


def build(name: str, seed: int) -> list:
    """The operations of workload ``name`` with inputs made from ``seed``."""
    builders = {"window-sparse": window_sparse, "window-dense": window_dense,
                "jacobian-gm": jacobian_gm}
    return builders[name](seed)
