"""Command-line surface: polynomial parsing, the command table, JSON
reports, and the regression corpus runner.

Each pipeline command is one entry of COMMANDS: a help line, the job
fields it requires and accepts, and a handler.  The argument parser and
Job validation are both derived from that table, so a command line is
exactly a job file written as flags.  ``run`` executes a JSON job file and
``verify`` runs a corpus of job files against frozen expectations.

This layer only translates: a handler maps a job to one engine call and
the engine's reports and checks to JSON through their own to_json_dict.
The engine decides everything else: the defaults of policy keys a job
leaves unset (linalg.default_policy, for the complex each report runs
on), the identities that are checked, and the text of polynomials
(poly.format_polynomial, which parse_polynomial inverts).

Exit codes: 0 success, 1 input error, 2 unstabilized or unverified
dimension identity, 3 smoothness required but absent.  A report with
checks exits 0 if every check passes and every report behind it is
stabilized, and 2 otherwise.

Reports are deterministic JSON (sorted keys); only timing_ms varies between
runs, and the corpus runner ignores it when diffing.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import suppress
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .dwork import (affine_twisted_cohomology, ci_dwork_koszul,
                    fourier_lemma_check, primitive_dwork_cohomology,
                    strand_cohomology, strand_decomposition,
                    suspension_check, thom_sebastiani_check)
from .exceptions import (NotSmoothError, ParseError, StrandSumError,
                         UnknownVariableError)
from .fields import QQ
from .gaussmanin import (Family, GriffithsDworkReducer, connection_matrix,
                         connection_properties_check)
from .griffiths import jacobian_hilbert
from .linalg import StabilizationPolicy
from .poly import Polynomial
from .reports import Verdict


# ---- polynomial grammar ----------------------------------------------


def _tokenize(text: str) -> list:
    """(kind, text, position) triples ending in ("END", "", len(text)); an
    operator is its own kind."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if "0" <= ch <= "9":  # ASCII only: str.isdigit takes superscripts
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("INT", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
        elif ch in "+-*/^":
            tokens.append((ch, ch, i))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    return tokens + [("END", "", n)]


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the CLI grammar: rational coefficients, declared variables,
    '^' powers, explicit '*' between factors, '+'/'-'; whitespace-free.
    It inverts poly.format_polynomial exactly.

    One pass over the tokens: an optional sign, then each term's factors
    joined by '*', the term closed by '+', '-' or END.  A factor looks one
    token ahead for its '/' or '^', and no token past END is read."""
    variables = list(variables)
    if not variables:
        raise ParseError("no variables declared", 0)
    index = {name: k for k, name in enumerate(variables)}
    tokens, terms, n = _tokenize(text), {}, len(variables)
    pos = 1 if tokens[0][0] in ("+", "-") else 0
    coeff, nu = Fraction(-1 if tokens[0][0] == "-" else 1), [0] * n
    while True:
        kind, value, at = tokens[pos]
        if kind == "INT":
            coeff *= int(value)
            if tokens[pos + 1][0] == "/":
                pos += 2
                kind, value, at = tokens[pos]
                if kind != "INT":
                    raise ParseError("expected an integer denominator", at)
                if int(value) == 0:
                    raise ParseError("zero denominator", at)
                coeff /= int(value)
        elif kind == "NAME":
            if value not in index:
                raise UnknownVariableError(f"unknown variable {value!r}", at)
            k, exp = index[value], 1
            if tokens[pos + 1][0] == "^":
                pos += 2
                kind, value, at = tokens[pos]
                if kind != "INT":
                    raise ParseError("expected an integer exponent", at)
                exp = int(value)
            nu[k] += exp
        else:
            raise ParseError(
                f"expected a coefficient or variable, got {value!r}", at)
        kind, value, at = tokens[pos + 1]
        pos += 2
        if kind == "*":
            continue
        terms[tuple(nu)] = terms.get(tuple(nu), 0) + coeff
        if kind == "END":
            return Polynomial(QQ, n, terms)
        if kind not in ("+", "-"):
            raise ParseError(
                f"expected '+', '-' or end of input, got {value!r}", at)
        coeff, nu = Fraction(-1 if kind == "-" else 1), [0] * n


# ---- the command table ----------------------------------------------------

# JSON type of a job field -> (is a list, type of the value or of each item)
_TYPES = {"string": (False, str), "integer": (False, int),
          "list of strings": (True, str), "list of integers": (True, int)}

_POLICY_KEYS = ("initial_bound", "step", "max_bound")
_POLICY = ("policy object {initial_bound, step, max_bound: "
           "non-negative integer or null}")


class Field(NamedTuple):
    """A job field: its JSON type (a key of _TYPES, or _POLICY, spelled as
    one integer flag per key) and its command-line spelling.  With no
    ``flags`` it is positional; a list is one argument split at ``sep``."""

    kind: str
    flags: tuple = ()
    sep: str = None
    help: str = None

    def check(self, name: str, value) -> None:
        if self.kind == _POLICY:
            ok = (type(value) is dict and set(value) <= set(_POLICY_KEYS)
                  and all(v is None or type(v) is int and v >= 0
                          for v in value.values()))
        else:
            is_list, item = _TYPES[self.kind]
            ok = (type(value) is list and all(type(v) is item for v in value)
                  if is_list else type(value) is item)
        if not ok:
            raise ValueError(f"{name} must be of type {self.kind}, "
                             f"got {value!r}")

    def add_to(self, parser, name: str, required: bool) -> None:
        if self.kind == _POLICY:
            for key in _POLICY_KEYS:
                parser.add_argument("--" + key.replace("_", "-"), type=int)
            return
        is_list, item = _TYPES[self.kind]
        convert = _splitter(self.sep, item) if is_list else item
        if self.flags:
            parser.add_argument(*self.flags, dest=name, type=convert,
                                required=required, help=self.help)
        else:
            parser.add_argument(name, type=convert, help=self.help)


def _splitter(sep: str, item: type):
    def split(text: str) -> list:
        return [item(part.strip()) for part in text.split(sep)]
    split.__name__ = f"{item.__name__} list"  # named in argparse errors
    return split


FIELDS = {
    "polynomial": Field("string",
                        help="polynomial text over the declared variables"),
    "polynomials": Field("list of strings", sep=";",
                         help="semicolon-separated defining polynomials"),
    "variables": Field("list of strings", ("--variables", "-v"), ",",
                       "comma-separated variable names, e.g. x0,x1,x2"),
    "weights": Field("list of integers", ("--weights",), ",",
                     "comma-separated positive weights"),
    "strand": Field("integer", ("--strand",),
                    help="report a single residue instead of all"),
    "perturbation": Field("string", ("--perturbation", "-g"),
                          help="G in the family F + t*G"),
    "basis": Field("list of strings", ("--basis",), ";",
                   "semicolon-separated basis polynomials"),
    "samples": Field("list of strings", ("--samples",), ",",
                     "comma-separated rational t samples to verify"),
    "bound": Field("integer", ("--bound",), help="truncation bound"),
    "r": Field("integer", ("--r",), help="number of operator pairs"),
    "policy": Field(_POLICY),
    "output": Field("string", ("--output", "-o"),
                    help="write the JSON report here"),
}


class Command(NamedTuple):
    """A pipeline command: a help line, the job fields it requires and
    accepts, and a handler (job, report) -> exit code that fills in the
    report.  Every command also takes ``output``."""

    help: str
    handler: Callable
    required: tuple
    optional: tuple = ()

    @property
    def fields(self) -> tuple:
        return self.required + self.optional + ("output",)


def _poly(job: "Job") -> Polynomial:
    return parse_polynomial(job.polynomial, job.variables)


def _weights(job: "Job"):
    return tuple(job.weights) if job.weights else None


def _policy(job: "Job"):
    """The policy keys the job sets, or None when it sets none; the engine
    fills the others for the complex it runs on."""
    given = {k: v for k, v in (job.policy or {}).items() if v is not None}
    return StabilizationPolicy(**given) if given else None


def _answer(out: dict, report=None, verdict: Verdict = Verdict()) -> int:
    """Write the report's fields and the verdict's checks into out.

    The exit code: 0 if every check passes and every report (this one and
    the verdict's) is stabilized, else 2.
    """
    if report is not None:
        out.update((k, v) for k, v in report.to_json_dict().items()
                   if k not in ("description", "stabilized"))
    if verdict.checks:
        out["checks"] = [c.to_json_dict() for c in verdict.checks]
    stabilized = verdict.stabilized and (report is None or report.stabilized)
    return 0 if verdict.ok and stabilized else 2


def _hodge(job, out) -> int:
    profile = jacobian_hilbert(_poly(job))
    out.update(profile.to_json_dict())
    if not profile.smooth:
        out["error"] = "hypersurface is singular; Hodge numbers need smoothness"
        return 3
    return 0


def _dwork(job, out) -> int:
    return _answer(out, primitive_dwork_cohomology(_poly(job), _policy(job)))


def _affine(job, out) -> int:
    return _answer(out, affine_twisted_cohomology(
        _poly(job), weights=_weights(job), policy=_policy(job)))


def _strands(job, out) -> int:
    f, policy, w = _poly(job), _policy(job), _weights(job)
    if job.strand is not None:
        return _answer(out, strand_cohomology(f, job.strand, policy, w))
    verdict = strand_decomposition(f, policy, w)
    *strands, full = verdict.reports
    out["strands"] = [r.to_json_dict() for r in strands]
    return _answer(out, full, verdict)


def _koszul(job, out) -> int:
    fs = [parse_polynomial(p, job.variables) for p in job.polynomials]
    return _answer(out, ci_dwork_koszul(fs, job.bound))


def _fourier(job, out) -> int:
    verdict = fourier_lemma_check(job.r, job.bound)
    return _answer(out, verdict.reports[0], verdict)


def _sample(text: str) -> Fraction:
    with suppress(ValueError, ZeroDivisionError):
        if text.isascii():  # Fraction reads any Unicode digit
            return Fraction(text)
    raise ValueError(f"sample {text!r} is not a rational number")


def _gm(job, out) -> int:
    fam = Family(_poly(job), parse_polynomial(job.perturbation, job.variables))
    basis = [parse_polynomial(b, job.variables)
             for b in job.basis or ()] or None
    samples = [_sample(s) for s in job.samples or ()]
    reducer = GriffithsDworkReducer(fam.symbolic())
    matrix = connection_matrix(reducer, fam.perturbation, basis)
    out["matrix"] = matrix.to_json_dict()
    if not samples:
        return _answer(out)
    return _answer(out, verdict=connection_properties_check(
        fam, samples, reducer, matrix))


_POLY = ("polynomial", "variables")

COMMANDS = {
    "hodge": Command("primitive Hodge numbers via the Jacobian ring",
                     _hodge, _POLY),
    "dwork": Command("strand-0 twisted cohomology (primitive local cohomology)",
                     _dwork, _POLY, ("policy",)),
    "affine": Command("full twisted cohomology (affine fiber Betti numbers)",
                      _affine, _POLY, ("weights", "policy")),
    "strands": Command("per-strand decomposition with the sum identity",
                       _strands, _POLY, ("weights", "strand", "policy")),
    "koszul": Command("complete-intersection Koszul complex on scalars[x, y]",
                      _koszul, ("polynomials", "variables", "bound")),
    "fourier": Command("the 2r-operator Koszul complex concentration check",
                       _fourier, ("r", "bound")),
    "ts": Command("Thom-Sebastiani / Kunneth dimension identities",
                  lambda job, out: _answer(
                      out, verdict=thom_sebastiani_check(_poly(job))), _POLY),
    "suspension": Command("suspension additivity of the three in-engine sides",
                          lambda job, out: _answer(
                              out, verdict=suspension_check(_poly(job))),
                          _POLY),
    "gm": Command("Gauss-Manin connection matrix of a one-parameter family",
                  _gm, _POLY + ("perturbation",), ("basis", "samples")),
}


# ---- jobs --------------------------------------------------------------


# The one input budget so far, checked before any work starts: a job's
# variable count.  Without it a job of many variables on the window engine,
# whose exterior algebra has 2^nvars index sets, fills memory instead of
# failing.
MAX_VARIABLES = 1000


class Job:
    """One pipeline invocation, as carried by a JSON job file or written as
    command-line flags.  The keyword constructor checks ``command`` and the
    fields against COMMANDS and FIELDS, raising ValueError; a null field
    counts as absent and reads as None."""

    def __init__(self, /, **fields):
        given = {k: v for k, v in fields.items() if v is not None}
        command = given.pop("command", None)
        if not isinstance(command, str) or command not in COMMANDS:
            raise ValueError(f"command must be one of {', '.join(COMMANDS)}, "
                             f"got {command!r}")
        spec = COMMANDS[command]
        unknown = sorted(set(given) - set(spec.fields))
        if unknown:
            raise ValueError(f"{command} does not take the fields {unknown}")
        missing = [name for name in spec.required if name not in given]
        if missing:
            raise ValueError(f"{command} needs the fields {missing}")
        for name, value in given.items():
            FIELDS[name].check(name, value)
        names = given.get("variables", [])
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if len(names) > MAX_VARIABLES:
            raise ValueError(f"{len(names)} variables exceed the variable "
                             f"budget of {MAX_VARIABLES}")
        for name in ("command", *FIELDS):
            setattr(self, name, fields.get(name))

    @staticmethod
    def from_dict(data: dict) -> "Job":
        if not isinstance(data, dict):
            raise ValueError("a job must be a JSON object")
        return Job(**data)


def run_job(job: Job) -> tuple:
    """Run one job; returns (exit code, JSON-ready report)."""
    started = time.perf_counter()
    echo = {k: v for k, v in vars(job).items()
            if v is not None and k != "output"}
    out = {"engine_version": __version__, "command": job.command,
           "input": echo}
    try:
        code = COMMANDS[job.command].handler(job, out)
    except ParseError as exc:
        return 1, {"error": str(exc), "position": exc.position,
                   "engine_version": __version__}
    except NotSmoothError as exc:
        return 3, {"error": str(exc), "engine_version": __version__}
    except StrandSumError as exc:
        return 2, {"error": str(exc), "engine_version": __version__}
    except (ValueError, TypeError, ArithmeticError) as exc:
        return 1, {"error": str(exc), "engine_version": __version__}
    out["timing_ms"] = int((time.perf_counter() - started) * 1000)
    if job.output:
        try:
            write_report(out, job.output)
        except (OSError, ValueError) as exc:
            return 1, {"error": f"cannot write the report: {exc}",
                       "engine_version": __version__}
    return code, out


def write_report(report: dict, path) -> None:
    """Atomic JSON write (temp file + rename); a failed write leaves no
    temp file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


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


def corpus_runner(directory=None) -> tuple:
    """Run every <name>.job.json against <name>.expect.json in a directory.

    Returns (exit code, summary).  Jobs run one at a time in sorted order.
    A bad job file, a missing or unreadable expectation file and an
    expectation file with no job are infrastructure failures, and a job
    that raises an exception run_job does not map to an exit code is an
    error row with its traceback; both are kept distinct from dimension
    mismatches.  A path that is not a directory, or a directory with no
    job file, raises ValueError before any job runs.
    """
    directory = Path(directory) if directory else bundled_corpus_dir()
    if not directory.is_dir():
        raise ValueError(f"not a corpus directory: {directory}")

    def names(suffix):
        return {p.name[:-len(suffix)] for p in directory.glob(f"*{suffix}")}

    jobs = names(".job.json")
    if not jobs:
        raise ValueError(f"no *.job.json file in the corpus directory: "
                         f"{directory}")
    orphans = names(".expect.json") - jobs
    rows = []
    # rows in the order of their job file names
    for name in sorted(jobs | orphans, key=lambda n: f"{n}.job.json"):
        job_path = directory / f"{name}.job.json"
        expect_path = directory / f"{name}.expect.json"
        row = {"name": name}
        rows.append(row)
        if name in orphans:
            row.update(status="infrastructure", detail="missing job file")
            continue
        try:
            job = Job.from_dict(json.loads(job_path.read_text()))
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
        try:
            code, report = run_job(job)
        except Exception as exc:
            from traceback import format_exc
            row.update(status="error", detail=f"{type(exc).__name__}: {exc}",
                       traceback=format_exc())
        else:
            diffs = _diff_fields(expected, {"exit_code": code, **report})
            row.update(status="fail" if diffs else "pass",
                       detail="; ".join(diffs))
    summary = {
        "total": len(rows),
        "passed": sum(r["status"] == "pass" for r in rows),
        "failed": sum(r["status"] == "fail" for r in rows),
        "infrastructure": sum(r["status"] == "infrastructure" for r in rows),
        "errors": sum(r["status"] == "error" for r in rows),
        "rows": rows,
    }
    if summary["infrastructure"] or summary["errors"]:
        return 1, summary
    if summary["failed"]:
        return 2, summary
    return 0, summary


# ---- command line ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, derived from COMMANDS and FIELDS.  argparse
    is imported here, not at module level, so that ``import dworkcohom``
    loads neither it nor gettext."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors raise ValueError, for main to report as JSON with
        exit code 1; argparse's own exit code 2 means "unstabilized" here."""

        def error(self, message):
            raise ValueError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="dworkcohom",
        description="Exact twisted de Rham (Dwork) cohomology of polynomials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        s = sub.add_parser(name, help=command.help)
        for field in command.fields:
            FIELDS[field].add_to(s, field, field in command.required)
    s = sub.add_parser("run", help="execute a JSON job file")
    s.add_argument("job", help="path to a .job.json file")
    s = sub.add_parser("verify", help="run a regression corpus")
    s.add_argument("directory", nargs="?",
                   help="corpus directory (default: the bundled corpus)")
    return parser


def _print_lines(lines) -> None:
    """Print lines to stdout.  If the reader has closed it, stdout is sent
    to os.devnull, so neither this write nor the flush at shutdown raises."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_json(report: dict, code: int) -> int:
    _print_lines([json.dumps(report, sort_keys=True, indent=2)])
    return code


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except ValueError as exc:
        return _print_json({"error": str(exc)}, 1)
    command = args["command"]
    if command == "verify":
        try:
            code, summary = corpus_runner(args["directory"])
        except ValueError as exc:
            return _print_json({"error": str(exc)}, 1)
        width = max([len(r["name"]) for r in summary["rows"]], default=4)
        lines = []
        for row in summary["rows"]:
            line = f"{row['name']:<{width}}  {row['status']}"
            if row["detail"]:
                line += f"  {row['detail']}"
            lines.append(line)
        counts = [f"{summary[k]} {k}" for k in ("infrastructure", "errors")
                  if summary[k]]
        lines.append(", ".join([f"{summary['passed']}/{summary['total']} passed",
                                *counts]))
        _print_lines(lines)
        return code
    try:
        if command == "run":
            data = json.loads(Path(args["job"]).read_text())
        else:  # every parsed argument is a field, or a key of the policy
            data = {k: v for k, v in args.items() if k not in _POLICY_KEYS}
            data["policy"] = {k: args[k] for k in _POLICY_KEYS
                              if args.get(k) is not None} or None
        job = Job.from_dict(data)
    except (ValueError, OSError) as exc:
        return _print_json({"error": str(exc)}, 1)
    code, report = run_job(job)
    return _print_json(report, code)


if __name__ == "__main__":
    sys.exit(main())
