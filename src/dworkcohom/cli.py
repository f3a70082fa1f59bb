"""Command-line surface: polynomial parsing, job dispatch, JSON reports,
and the regression corpus runner.

Commands
    hodge       primitive Hodge numbers via the Jacobian ring
    dwork       strand-0 twisted cohomology (primitive local cohomology)
    affine      full-complex twisted cohomology (affine fiber Betti numbers)
    strands     per-strand decomposition with the sum identity
    koszul      complete-intersection Koszul complex on scalars[x, y]
    fourier     the 2r-operator Koszul complex concentration check
    ts          Thom-Sebastiani / Kunneth dimension identities
    suspension  suspension additivity of the three in-engine sides
    gm          Gauss-Manin connection matrix of a one-parameter family
    run         execute a JSON job file
    verify      run a corpus of job files against frozen expectations

Exit codes: 0 success, 1 input error, 2 unstabilized or unverified
dimension identity, 3 smoothness required but absent.

Reports are deterministic JSON (sorted keys); only timing_ms varies between
runs, and the corpus runner ignores it when diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dwork import (affine_twisted_cohomology, ci_dwork_koszul,
                    fourier_lemma_check, primitive_dwork_cohomology,
                    strand_cohomology, strand_decomposition,
                    suspension_check, thom_sebastiani_check)
from .exceptions import (NonHomogeneousError, NotSmoothError, ParseError,
                         UnknownVariableError)
from .fields import QQ
from .gaussmanin import (Family, connection_matrix_strings,
                         connection_properties_check, family_connection_matrix)
from .griffiths import jacobian_hilbert, primitive_hodge_numbers
from .linalg import StabilizationPolicy, default_policy
from .forms import StrandSpec, full_complex_spec
from .poly import Polynomial


# ---- polynomial grammar ----------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the CLI grammar: rational coefficients, declared variables,
    '^' powers, explicit '*' between factors, '+'/'-'; whitespace-free."""
    variables = list(variables)
    if not variables:
        raise ParseError("no variables declared", 0)
    index = {name: k for k, name in enumerate(variables)}
    nvars = len(variables)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        kind, value, at = take()
        if kind == "INT":
            num = int(value)
            if peek()[:2] == ("OP", "/"):
                take()
                k2, v2, at2 = take()
                if k2 != "INT":
                    raise ParseError("expected an integer denominator", at2)
                if int(v2) == 0:
                    raise ParseError("zero denominator", at2)
                return Fraction(num, int(v2)), None
            return Fraction(num), None
        if kind == "NAME":
            if value not in index:
                raise UnknownVariableError(f"unknown variable {value!r}", at)
            exp = 1
            if peek()[:2] == ("OP", "^"):
                take()
                k2, v2, at2 = take()
                if k2 != "INT":
                    raise ParseError("expected an integer exponent", at2)
                exp = int(v2)
            nu = [0] * nvars
            nu[index[value]] = exp
            return None, tuple(nu)
        raise ParseError(f"expected a coefficient or variable, got {value!r}",
                         at)

    def parse_term():
        coeff = Fraction(1)
        nu = [0] * nvars
        while True:
            c, mono = parse_factor()
            if c is not None:
                coeff *= c
            else:
                nu = [a + b for a, b in zip(nu, mono)]
            if peek()[:2] == ("OP", "*"):
                take()
                continue
            break
        return tuple(nu), coeff

    terms = {}
    sign = 1
    kind, value, at = peek()
    if kind == "OP" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        nu, coeff = parse_term()
        coeff *= sign
        terms[nu] = terms.get(nu, Fraction(0)) + coeff
        kind, value, at = peek()
        if kind == "END":
            break
        if kind == "OP" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError(f"expected '+', '-' or end of input, got {value!r}",
                         at)
    return Polynomial(QQ, nvars, terms)


def format_polynomial(p: Polynomial, variables) -> str:
    """Canonical text form; parse_polynomial inverts it exactly."""
    variables = list(variables)
    if len(variables) != p.nvars:
        raise ValueError("variable list does not match the polynomial")
    if not p.terms:
        return "0"
    parts = []
    for nu, c in p.sorted_terms():
        factors = []
        for k, e in enumerate(nu):
            if e == 1:
                factors.append(variables[k])
            elif e > 1:
                factors.append(f"{variables[k]}^{e}")
        body = str(abs(c))
        if factors and abs(c) == 1:
            text = "*".join(factors)
        elif factors:
            text = "*".join([body] + factors)
        else:
            text = body
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(parts)


# ---- jobs --------------------------------------------------------------


_JOB_FIELDS = {"command", "polynomial", "polynomials", "perturbation",
               "variables", "weights", "strand", "policy", "bound", "r",
               "basis", "samples", "output"}

_COMMANDS = ("hodge", "dwork", "affine", "strands", "koszul", "fourier",
             "ts", "suspension", "gm", "verify")


@dataclass
class Job:
    """One pipeline invocation, as carried by a JSON job file."""

    command: str
    polynomial: str = None
    polynomials: list = None
    perturbation: str = None
    variables: list = None
    weights: list = None
    strand: int = None
    policy: dict = None
    bound: int = None
    r: int = None
    basis: list = None
    samples: list = None
    output: str = None

    @staticmethod
    def from_dict(data: dict) -> "Job":
        if not isinstance(data, dict):
            raise ValueError("a job must be a JSON object")
        unknown = set(data) - _JOB_FIELDS
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        if "command" not in data:
            raise ValueError("job is missing the command field")
        if data["command"] not in _COMMANDS:
            raise ValueError(f"unknown command {data['command']!r}")
        job = Job(**data)
        if job.policy is not None:
            if not isinstance(job.policy, dict):
                raise ValueError("policy must be a JSON object")
            bad = set(job.policy) - {"initial_bound", "step", "max_bound"}
            if bad:
                raise ValueError(f"unknown policy fields: {sorted(bad)}")
            values = [v for v in job.policy.values() if v is not None]
            if any(type(v) is not int for v in values):
                raise ValueError("policy values must be integers or null")
            if any(v < 0 for v in values):
                raise ValueError("policy bounds must be non-negative")
        return job


def _job_policy(job: Job, f: Polynomial, spec: StrandSpec):
    if not job.policy:
        return None
    base = default_policy(f, spec)
    return StabilizationPolicy(
        int(job.policy.get("initial_bound", base.initial_bound)),
        int(job.policy.get("step", base.step)),
        int(job.policy.get("max_bound", job.policy.get(
            "initial_bound", base.initial_bound) + 4 * int(
            job.policy.get("step", base.step)))))


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _need_poly(job: Job) -> Polynomial:
    if not job.polynomial:
        raise ValueError("this command needs a polynomial")
    if not job.variables:
        raise ValueError("this command needs a variable list")
    return parse_polynomial(job.polynomial, job.variables)


def _weights(job: Job):
    return tuple(int(w) for w in job.weights) if job.weights else None


def _report_base(job: Job) -> dict:
    echo = {k: v for k, v in vars(job).items()
            if v is not None and k != "output"}
    return {"engine_version": __version__, "command": job.command,
            "input": _jsonable(echo)}


def _attach_report(out: dict, rep) -> int:
    out["path"] = rep.path
    out["dims"] = rep.dims_list()
    out["certificate"] = (rep.certificate.to_json_dict()
                          if rep.certificate else None)
    out["m"] = rep.modulus
    out["nvars"] = rep.nvars
    out["strand"] = rep.strand
    out["weights"] = list(rep.weights) if rep.weights else None
    return 0 if rep.stabilized else 2


def _attach_verdict(out: dict, verdict, code_when_ok=0) -> int:
    out["checks"] = [_jsonable(c.to_json_dict()) for c in verdict.checks]
    stabilized = all(r.stabilized for r in verdict.reports)
    return code_when_ok if (verdict.ok and stabilized) else 2


def _dispatch(job: Job) -> tuple:
    out = _report_base(job)
    if job.command == "hodge":
        f = _need_poly(job)
        profile = jacobian_hilbert(f)
        out["m"] = profile.modulus
        out["nvars"] = profile.nvars
        out["hilbert"] = list(profile.hilbert)
        out["smooth"] = profile.smooth
        if not profile.smooth:
            out["error"] = "hypersurface is singular; Hodge numbers need smoothness"
            return 3, out
        n = f.nvars - 1
        out["milnor"] = profile.milnor
        out["path"] = "jacobian"
        out["dims"] = [{"degree": q, "label": f"h^({n - q},{q - 1})_prim",
                        "dim": h} for q, h in primitive_hodge_numbers(f)]
        out["certificate"] = None
        return 0, out
    if job.command == "dwork":
        f = _need_poly(job)
        policy = _job_policy(job, f, StrandSpec(
            f.nvars, max(f.homogeneous_degree() or 1, 1), 0))
        return _attach_report(out, primitive_dwork_cohomology(f, policy)), out
    if job.command == "affine":
        f = _need_poly(job)
        w = _weights(job)
        policy = _job_policy(job, f, full_complex_spec(f.nvars, w))
        return _attach_report(
            out, affine_twisted_cohomology(f, weights=w, policy=policy)), out
    if job.command == "strands":
        f = _need_poly(job)
        w = _weights(job)
        m = f.homogeneous_degree(w)
        if m is None:
            raise NonHomogeneousError("strand decomposition needs homogeneous input")
        policy = _job_policy(job, f, StrandSpec(f.nvars, max(m, 1), 0, w))
        if job.strand is not None:
            rep = strand_cohomology(f, int(job.strand), policy, w)
            return _attach_report(out, rep), out
        reports = strand_decomposition(f, policy, w)
        full = affine_twisted_cohomology(f, weights=w, policy=policy)
        code = _attach_report(out, full)
        out["strands"] = [r.to_json_dict() for r in reports]
        checks = []
        for k in range(f.nvars + 1):
            checks.append({"name": f"strand sum equals full complex in degree {k}",
                           "lhs": sum(r.dim(k) for r in reports),
                           "rhs": full.dim(k),
                           "pass": sum(r.dim(k) for r in reports) == full.dim(k)})
        out["checks"] = checks
        if any(not r.stabilized for r in reports):
            code = 2
        return code, out
    if job.command == "koszul":
        if not job.polynomials or not job.variables:
            raise ValueError("koszul needs polynomials and variables")
        if job.bound is None:
            raise ValueError("koszul needs an explicit truncation bound")
        fs = [parse_polynomial(p, job.variables) for p in job.polynomials]
        return _attach_report(
            out, ci_dwork_koszul(fs, int(job.bound))), out
    if job.command == "fourier":
        if job.r is None or job.bound is None:
            raise ValueError("fourier needs r and a truncation bound")
        verdict = fourier_lemma_check(int(job.r), int(job.bound))
        code = _attach_verdict(out, verdict)
        _attach_report(out, verdict.reports[0])
        return code, out
    if job.command == "ts":
        f = _need_poly(job)
        verdict = thom_sebastiani_check(f)
        return _attach_verdict(out, verdict), out
    if job.command == "suspension":
        f = _need_poly(job)
        verdict = suspension_check(f)
        return _attach_verdict(out, verdict), out
    if job.command == "gm":
        f0 = _need_poly(job)
        if job.perturbation is None:
            raise ValueError("gm needs a perturbation polynomial")
        g = parse_polynomial(job.perturbation, job.variables)
        fam = Family(f0, g)
        basis = None
        if job.basis:
            basis = [parse_polynomial(b, job.variables) for b in job.basis]
        mat = family_connection_matrix(fam, basis)
        out["matrix"] = connection_matrix_strings(mat)
        code = 0
        if job.samples:
            verdict = connection_properties_check(
                fam, [Fraction(str(s)) for s in job.samples], basis)
            code = _attach_verdict(out, verdict)
        return code, out
    raise ValueError(f"command {job.command!r} is not a pipeline")


def run_job(job: Job) -> tuple:
    """Run one job; returns (exit code, JSON-ready report)."""
    started = time.perf_counter()
    try:
        code, out = _dispatch(job)
    except UnknownVariableError as exc:
        return 1, {"error": str(exc), "position": exc.position,
                   "engine_version": __version__}
    except ParseError as exc:
        return 1, {"error": str(exc), "position": exc.position,
                   "engine_version": __version__}
    except NotSmoothError as exc:
        return 3, {"error": str(exc), "engine_version": __version__}
    except (ValueError, TypeError, NonHomogeneousError) as exc:
        return 1, {"error": str(exc), "engine_version": __version__}
    out["timing_ms"] = int((time.perf_counter() - started) * 1000)
    if job.output:
        write_report(out, job.output)
    return code, out


def write_report(report: dict, path) -> None:
    """Atomic JSON write (temp file + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


# ---- corpus runner -------------------------------------------------------


def _diff_fields(expected, got, trail=""):
    """Field-by-field diff; expectation fields must all match (timing ignored)."""
    diffs = []
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{trail}: expected an object"]
        for key, val in expected.items():
            if key == "timing_ms":
                continue
            if key not in got:
                diffs.append(f"{trail}.{key}: missing")
            else:
                diffs.extend(_diff_fields(val, got[key], f"{trail}.{key}"))
        return diffs
    if isinstance(expected, list):
        if not isinstance(got, list):
            return [f"{trail}: expected a list"]
        if len(expected) != len(got):
            return [f"{trail}: length {len(got)} != expected {len(expected)}"]
        for k, (e, g) in enumerate(zip(expected, got)):
            diffs.extend(_diff_fields(e, g, f"{trail}[{k}]"))
        return diffs
    if expected != got:
        diffs.append(f"{trail}: {got!r} != expected {expected!r}")
    return diffs


def bundled_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _run_job_dict(data: dict) -> tuple:
    return run_job(Job.from_dict(data))


def corpus_runner(directory=None) -> tuple:
    """Run every <name>.job.json against <name>.expect.json in a directory.

    Returns (exit code, summary).  Missing or unreadable expectation files
    are infrastructure failures, kept distinct from dimension mismatches.
    Set DWORKCOHOM_WORKERS > 1 to run independent jobs in parallel worker
    processes; results are deterministic either way.
    """
    directory = Path(directory) if directory else bundled_corpus_dir()
    rows = []
    runnable = []
    for job_path in sorted(directory.glob("*.job.json")):
        name = job_path.name[:-len(".job.json")]
        expect_path = directory / f"{name}.expect.json"
        row = {"name": name}
        rows.append(row)
        try:
            job_data = json.loads(job_path.read_text())
            Job.from_dict(job_data)
        except (ValueError, OSError) as exc:
            row.update(status="infrastructure", detail=f"bad job file: {exc}")
            continue
        if not expect_path.exists():
            row.update(status="infrastructure", detail="missing expectation file")
            continue
        try:
            expected = json.loads(expect_path.read_text())
        except (ValueError, OSError) as exc:
            row.update(status="infrastructure",
                       detail=f"corrupted expectation: {exc}")
            continue
        runnable.append((row, job_data, expected))
    workers = int(os.environ.get("DWORKCOHOM_WORKERS", "1") or "1")
    if workers > 1 and len(runnable) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job_dict,
                                    [data for _, data, _ in runnable]))
    else:
        results = [_run_job_dict(data) for _, data, _ in runnable]
    for (row, _, expected), (code, report) in zip(runnable, results):
        diffs = _diff_fields(expected, {"exit_code": code, **report})
        if diffs:
            row.update(status="fail", detail="; ".join(diffs))
        else:
            row.update(status="pass", detail="")
    summary = {
        "total": len(rows),
        "passed": sum(r["status"] == "pass" for r in rows),
        "failed": sum(r["status"] == "fail" for r in rows),
        "infrastructure": sum(r["status"] == "infrastructure" for r in rows),
        "rows": rows,
    }
    if summary["infrastructure"]:
        return 1, summary
    if summary["failed"]:
        return 2, summary
    return 0, summary


# ---- argument parsing -----------------------------------------------------


def _add_common(sub):
    sub.add_argument("polynomial", help="polynomial text over the declared variables")
    sub.add_argument("--variables", "-v", required=True,
                     help="comma-separated variable names, e.g. x0,x1,x2")
    sub.add_argument("--output", "-o", help="write the JSON report here")


def _add_policy(sub):
    sub.add_argument("--initial-bound", type=int)
    sub.add_argument("--step", type=int)
    sub.add_argument("--max-bound", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworkcohom",
        description="Exact twisted de Rham (Dwork) cohomology of polynomials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in [
            ("hodge", "primitive Hodge numbers via the Jacobian ring"),
            ("dwork", "strand-0 twisted cohomology (primitive local cohomology)"),
            ("affine", "full twisted cohomology (affine fiber Betti numbers)"),
            ("strands", "per-strand decomposition"),
            ("ts", "Thom-Sebastiani dimension identities"),
            ("suspension", "suspension additivity check")]:
        s = sub.add_parser(name, help=blurb)
        _add_common(s)
        if name != "hodge":
            _add_policy(s)
        if name in ("affine", "strands"):
            s.add_argument("--weights", help="comma-separated positive weights")
        if name == "strands":
            s.add_argument("--strand", type=int,
                           help="report a single residue instead of all")

    s = sub.add_parser("koszul", help="complete-intersection Koszul complex")
    s.add_argument("polynomials", help="semicolon-separated defining polynomials")
    s.add_argument("--variables", "-v", required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--output", "-o")

    s = sub.add_parser("fourier", help="2r-operator Koszul concentration check")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--output", "-o")

    s = sub.add_parser("gm", help="Gauss-Manin connection matrix")
    _add_common(s)
    s.add_argument("--perturbation", "-g", required=True)
    s.add_argument("--basis", help="semicolon-separated basis polynomials")
    s.add_argument("--samples", help="comma-separated rational t samples to verify")

    s = sub.add_parser("run", help="execute a JSON job file")
    s.add_argument("job", help="path to a .job.json file")

    s = sub.add_parser("verify", help="run a regression corpus")
    s.add_argument("directory", nargs="?",
                   help="corpus directory (default: the bundled corpus)")
    return parser


def _job_from_args(args) -> Job:
    data = {"command": args.command}
    if getattr(args, "polynomial", None):
        data["polynomial"] = args.polynomial
    if getattr(args, "polynomials", None):
        data["polynomials"] = [p.strip() for p in args.polynomials.split(";")]
    if getattr(args, "variables", None):
        data["variables"] = [v.strip() for v in args.variables.split(",")]
    if getattr(args, "weights", None):
        data["weights"] = [int(w) for w in args.weights.split(",")]
    if getattr(args, "strand", None) is not None:
        data["strand"] = args.strand
    if getattr(args, "perturbation", None):
        data["perturbation"] = args.perturbation
    if getattr(args, "basis", None):
        data["basis"] = [b.strip() for b in args.basis.split(";")]
    if getattr(args, "samples", None):
        data["samples"] = [s.strip() for s in args.samples.split(",")]
    if getattr(args, "bound", None) is not None:
        data["bound"] = args.bound
    if getattr(args, "r", None) is not None:
        data["r"] = args.r
    if getattr(args, "output", None):
        data["output"] = args.output
    policy = {}
    for key, field in [("initial_bound", "initial_bound"),
                       ("step", "step"), ("max_bound", "max_bound")]:
        val = getattr(args, field, None)
        if val is not None:
            policy[key] = val
    if policy:
        data["policy"] = policy
    return Job.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        code, summary = corpus_runner(args.directory)
        width = max([len(r["name"]) for r in summary["rows"]], default=4)
        for row in summary["rows"]:
            line = f"{row['name']:<{width}}  {row['status']}"
            if row["detail"]:
                line += f"  {row['detail']}"
            print(line)
        print(f"{summary['passed']}/{summary['total']} passed"
              + (f", {summary['infrastructure']} infrastructure"
                 if summary["infrastructure"] else ""))
        return code
    if args.command == "run":
        try:
            job = Job.from_dict(json.loads(Path(args.job).read_text()))
        except (ValueError, OSError) as exc:
            print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
            return 1
        code, report = run_job(job)
        print(json.dumps(report, sort_keys=True, indent=2))
        return code
    try:
        job = _job_from_args(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return 1
    code, report = run_job(job)
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
