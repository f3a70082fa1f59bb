"""CLI grammar, job dispatch, exit codes, determinism, corpus runner."""

import hashlib
import importlib.util
import itertools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dworkcohom import Family, Job, Polynomial, QQ, QQ_T, RatFunc, \
    compare_smooth_paths, corpus_runner, format_polynomial, \
    parse_polynomial, run_job, strand_cohomology
from dworkcohom import cli, dwork, gaussmanin, griffiths
from dworkcohom.cli import COMMANDS, bundled_corpus_dir, main
from dworkcohom.exceptions import (ParseError, StrandSumError,
                                   UnknownVariableError)

from _helpers import fermat, parse_polynomial as descent_parse

VARS4 = ["x0", "x1", "x2", "x3"]


def test_parse_examples():
    p = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", VARS4)
    assert p == fermat(4, 4)
    q = parse_polynomial("x0*x1*x2", ["x0", "x1", "x2"])
    assert q.homogeneous_degree() == 3 and len(q.terms) == 1
    r = parse_polynomial("3/2*x0 - x1^2 + 4", ["x0", "x1"])
    assert r.terms[(1, 0)] == Fraction(3, 2)


def test_parse_whitespace_insensitive():
    a = parse_polynomial("x0^2+2*x0*x1", ["x0", "x1"])
    b = parse_polynomial("  x0^2 +  2 * x0 * x1 ", ["x0", "x1"])
    assert a == b


def test_parse_unknown_variable_position():
    with pytest.raises(UnknownVariableError) as err:
        parse_polynomial("x0^2 + y", ["x0"])
    assert err.value.position == 7


def test_parse_syntax_errors():
    for text in ["x0 +", "* x0", "x0^", "x0 x1", "x0^2.5", "(x0)"]:
        with pytest.raises(ParseError):
            parse_polynomial(text, ["x0", "x1"])
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ["x0"])


@pytest.mark.parametrize("text", ["x0^\u00b2", "x0^\u0663"],
                         ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digits_are_parse_errors(capsys, text):
    # str.isdigit takes both, and int() reads the second as 3
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ["x0"])
    assert err.value.position == 3
    code = main(["hodge", text, "-v", "x0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["position"] == 3


# polynomial text as factors joined by operators, some factors malformed,
# so that each error can come first; and as loose pieces, which merge into
# longer numbers and names where no space parts them
_FACTORS = st.sampled_from([
    "1", "12", "007", "3/4", "x", "x0", "x1", "_a", "x0^2", "x1^0", "y^12",
    "2/0", "3/", "3/x", "x0^", "x0^y", "x0^-1", "x0^2^3", "2/3/4", "x0 x1",
    "(x0)", "x0.5", "x0^\u00b2", "\u0663", "\u00e9", ""])
_JOINED = st.lists(st.tuples(st.sampled_from(["+", "-", "*", " + ", "", "/"]),
                             _FACTORS), max_size=6).map(
    lambda parts: "".join(op + factor for op, factor in parts))
_PIECES = st.lists(st.sampled_from([
    "0", "7", "12", "x", "y", "x0", "x1", "+", "-", "*", "/", "^", " ",
    "\t", "(", ".", "\u00b2"]), max_size=14).map("".join)
_NAMES = st.lists(st.sampled_from(["x", "y", "x0", "x1", "_a", "\u00e9"]),
                  max_size=4) | st.just(["x0", "x1", "x"])


def _outcome(parse, text, names):
    """The Polynomial, or the error's class, text and position."""
    try:
        return parse(text, names)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=400, deadline=None)
@given(_JOINED | _PIECES | st.text(max_size=16), _NAMES)
@example("-3/4*x0^2*x1 + x0 - 2", ["x0", "x1"])  # and one of each error:
@example("x0", [])
@example("x0 + (x1)", ["x0", "x1"])
@example("x0 + y", ["x0", "x1"])
@example("x0 + 3/x1", ["x0", "x1"])
@example("x0 + 1/0", ["x0", "x1"])
@example("x0 + x1^y", ["x0", "x1"])
@example("x0 + * x1", ["x0", "x1"])
@example("x0 x1", ["x0", "x1"])
def test_one_pass_parser_matches_the_descent_parser(text, names):
    assert _outcome(parse_polynomial, text, names) == \
        _outcome(descent_parse, text, names)


@settings(max_examples=300, deadline=None)
@given(st.text(), st.lists(st.text()))
def test_parse_returns_a_polynomial_or_a_placed_parse_error(text, names):
    try:
        assert isinstance(parse_polynomial(text, names), Polynomial)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([*COMMANDS, "x0^2", "x0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["command", *cli.FIELDS]) | st.text(), inner,
        max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON | st.dictionaries(st.sampled_from(["command", *cli.FIELDS]),
                               _JSON, max_size=5))
def test_job_from_any_json_value_is_a_job_or_a_value_error(data):
    try:
        assert isinstance(Job.from_dict(data), Job)
    except ValueError:
        pass


@st.composite
def random_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        nu = tuple(draw(st.integers(0, 4)) for _ in range(3))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[nu] = terms.get(nu, 0) + c
    return Polynomial(QQ, 3, terms)


@settings(max_examples=60, deadline=None)
@given(random_polys())
def test_parse_print_round_trip(p):
    names = ["a", "b", "c"]
    assert parse_polynomial(format_polynomial(p, names), names) == p
    assert str(p) == format_polynomial(p, ["x0", "x1", "x2"])


def test_format_function_field_coefficients():
    # str(c) carries the sign of a QQ(t) coefficient, or none when the
    # coefficient prints as a parenthesized quotient
    f_t = Family(parse_polynomial("x^3 + y^3 + z^3", "xyz"),
                 parse_polynomial("-3*x*y*z", "xyz")).symbolic()
    assert format_polynomial(f_t, "xyz") == "x^3 - 3*t*x*y*z + y^3 + z^3"
    assert str(f_t) == "x0^3 - 3*t*x0*x1*x2 + x1^3 + x2^3"
    t = QQ_T.gen
    g = Polynomial(QQ_T, 2, {(2, 0): t / (t + 1), (1, 1): RatFunc((-2,)) / (3 * t),
                             (0, 0): -t})
    assert format_polynomial(g, ["u", "v"]) == \
        "(t)/(t + 1)*u^2 + (-2)/(3*t)*u*v - t"
    assert str(g) == "(t)/(t + 1)*x0^2 + (-2)/(3*t)*x0*x1 - t"
    with pytest.raises(ValueError):
        format_polynomial(g, ["u"])


def test_job_validation():
    with pytest.raises(ValueError):
        Job.from_dict({"command": "nope"})
    with pytest.raises(ValueError):
        Job.from_dict({"command": "dwork", "bogus": 1})
    with pytest.raises(ValueError):
        Job.from_dict({})
    with pytest.raises(ValueError):
        Job.from_dict(["dwork"])
    with pytest.raises(ValueError):
        Job.from_dict({"command": "verify"})
    with pytest.raises(ValueError):  # missing required field
        Job.from_dict({"command": "koszul", "polynomials": ["x^2 - 1"],
                       "variables": ["x"]})


CUBIC = {"polynomial": "x0^3 + x1^3 + x2^3", "variables": ["x0", "x1", "x2"]}


@pytest.mark.parametrize("job", [
    {"command": "ts", **CUBIC, "policy": {"initial_bound": 2}},
    {"command": "suspension", **CUBIC, "policy": {"step": 2}},
    {"command": "dwork", **CUBIC, "weights": [1, 1, 1]},
    {"command": "affine", "polynomial": "x^2 + y^3", "variables": ["x", "y"],
     "weights": "32"},
    {"command": "affine", "polynomial": "x^2 + y^3", "variables": ["x", "y"],
     "weights": [3.7, 2.2]},
    {"command": "strands", **CUBIC, "strand": 1.9},
    {"command": "fourier", "r": 1.5, "bound": 8},
    {"command": "fourier", "r": True, "bound": 8},
    {"command": "dwork", "polynomial": "x0^3 + x0^2",
     "variables": ["x0", "x0"]},
    {"command": "hodge", **CUBIC, "policy": {"step": 2}},
    {"command": "hodge", **CUBIC, "strand": 0},
    {"command": "koszul", "polynomials": ["x^2 - 1"], "variables": ["x"],
     "bound": "10"},
])
def test_job_rejects_misread_fields(job):
    # each of these used to run, ignoring or coercing the field
    with pytest.raises(ValueError):
        Job.from_dict(job)


@pytest.mark.parametrize("policy", [5, {"step": [1]}, {"step": True},
                                    {"step": -1}, {"steps": 2}])
def test_bad_policy_ends_in_exit_code(tmp_path, capsys, policy):
    # a malformed policy is a bad job file: `run` reports it as JSON with
    # exit 1, and `verify` records an infrastructure row
    (tmp_path / "a.job.json").write_text(json.dumps(
        {"command": "dwork", "polynomial": "x0^3 + x1^3 + x2^3",
         "variables": ["x0", "x1", "x2"], "policy": policy}))
    (tmp_path / "a.expect.json").write_text(json.dumps({"exit_code": 0}))
    code = main(["run", str(tmp_path / "a.job.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "policy" in out["error"]
    code = main(["verify", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1 and "a  infrastructure  bad job file: policy" in out
    assert "0/1 passed, 1 infrastructure" in out


# Three jobs on the evidence path: their fields, the value of each policy
# key, and the pinned certificate bounds with no key given, with
# initial_bound, with step, and with both.  Every strand of the strands job
# carries the certificate of its full complex.
POLICY_JOBS = {
    "dwork": ({"polynomial": "x0*x1*x2", "variables": ["x0", "x1", "x2"]},
              {"initial_bound": 6, "step": 2, "max_bound": 16},
              (12, 15, 18), (6, 9, 12), (12, 14, 16), (6, 8, 10)),
    "affine": ({"polynomial": "x^2 + y^3", "variables": ["x", "y"],
                "weights": [3, 2]},
               {"initial_bound": 10, "step": 4, "max_bound": 30},
               (19, 25, 31), (10, 16, 22), (19, 23, 27), (10, 14, 18)),
    "strands": ({"polynomial": "x1^2*x2 - x0^3",
                 "variables": ["x0", "x1", "x2"]},
                {"initial_bound": 6, "step": 2, "max_bound": 16},
                (12, 15, 18), (6, 9, 12), (12, 14, 16), (6, 8, 10)),
}


def _expected_bounds(keys, default, initial, step, both):
    """Pinned bounds for the given keys, or None for an unstabilized run:
    max_bound alone stops the default schedule before three windows agree,
    and is slack whenever another key is set."""
    given = set(keys) - {"max_bound"}
    if not given and keys:
        return None
    return {frozenset(): default, frozenset({"initial_bound"}): initial,
            frozenset({"step"}): step,
            frozenset({"initial_bound", "step"}): both}[frozenset(given)]


def test_null_policy_values_mean_default():
    # every subset of the policy keys, the others absent or null: the engine
    # fills the unset keys for the complex each report runs on
    for command, (fields, values, *bounds) in POLICY_JOBS.items():
        for r, nulls in itertools.product(range(len(values) + 1),
                                          (False, True)):
            for keys in itertools.combinations(values, r):
                policy = {k: values[k] for k in keys}
                if nulls:
                    policy = {k: policy.get(k) for k in values}
                code, rep = run_job(Job(command=command, policy=policy,
                                        **fields))
                want = _expected_bounds(keys, *bounds)
                cert = ({"agreed": True, "bounds": list(want)} if want
                        else {"agreed": False, "bounds": []})
                assert (code, rep["certificate"]) == (0 if want else 2, cert), \
                    (command, policy)
                for strand in rep.get("strands", ()):
                    assert strand["certificate"] == cert


def test_run_job_dwork_report_fields():
    code, rep = run_job(Job.from_dict({
        "command": "dwork",
        "polynomial": "x0^4 + x1^4 + x2^4 + x3^4",
        "variables": VARS4}))
    assert code == 0
    assert rep["path"] == "jacobian"
    assert {d["degree"]: d["dim"] for d in rep["dims"]}[4] == 21
    assert rep["m"] == 4 and rep["nvars"] == 4
    assert "timing_ms" in rep and "engine_version" in rep


def test_run_job_exit_codes():
    code, rep = run_job(Job.from_dict({
        "command": "dwork", "polynomial": "x0^2 +",
        "variables": ["x0", "x1"]}))
    assert code == 1 and "position" in rep
    code, rep = run_job(Job.from_dict({
        "command": "hodge", "polynomial": "x0*x1*x2",
        "variables": ["x0", "x1", "x2"]}))
    assert code == 3
    # unstabilized: max_bound below any chance of three agreements
    code, rep = run_job(Job.from_dict({
        "command": "dwork", "polynomial": "x0*x1*x2",
        "variables": ["x0", "x1", "x2"],
        "policy": {"initial_bound": 2, "step": 3, "max_bound": 4}}))
    assert code == 2
    assert rep["certificate"]["agreed"] is False


def test_run_job_affine_weighted():
    code, rep = run_job(Job.from_dict({
        "command": "affine", "polynomial": "x^2 + y^3",
        "variables": ["x", "y"], "weights": [3, 2]}))
    assert code == 0
    assert {d["degree"]: d["dim"] for d in rep["dims"]} == {0: 0, 1: 0, 2: 2}


def test_run_job_strands_and_checks():
    code, rep = run_job(Job.from_dict({
        "command": "strands", "polynomial": "x0^3 + x1^3 + x2^3",
        "variables": ["x0", "x1", "x2"]}))
    assert code == 0
    assert len(rep["strands"]) == 3
    assert all(c["pass"] for c in rep["checks"])


def test_run_job_koszul_and_fourier():
    code, rep = run_job(Job.from_dict({
        "command": "koszul", "polynomials": ["x^2 - 1"],
        "variables": ["x"], "bound": 10}))
    assert code == 0
    assert {d["degree"]: d["dim"] for d in rep["dims"]}[2] == 2
    code, rep = run_job(Job.from_dict({"command": "fourier", "r": 1, "bound": 8}))
    assert code == 0 and all(c["pass"] for c in rep["checks"])


def test_report_determinism(tmp_path):
    job = {"command": "dwork", "polynomial": "x0^3 + x1^3 + x2^3",
           "variables": ["x0", "x1", "x2"]}
    _, rep1 = run_job(Job.from_dict(job))
    _, rep2 = run_job(Job.from_dict(job))
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_output_written_atomically(tmp_path):
    out = tmp_path / "report.json"
    job = Job.from_dict({"command": "hodge",
                         "polynomial": "x0^3 + x1^3 + x2^3",
                         "variables": ["x0", "x1", "x2"],
                         "output": str(out)})
    code, _ = run_job(job)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["milnor"] == 8
    assert not (tmp_path / "report.json.tmp").exists()


def test_output_failures_end_in_exit_code(tmp_path, capsys):
    job = {"command": "hodge", **CUBIC,
           "output": str(tmp_path / "missing" / "r.json")}
    (tmp_path / "j.job.json").write_text(json.dumps(job))
    code = main(["run", str(tmp_path / "j.job.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "cannot write the report" in out["error"]
    (tmp_path / "j.job.json").write_text(json.dumps({**job, "output": 5}))
    code = main(["run", str(tmp_path / "j.job.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "output must be of type string" in out["error"]


def test_failed_output_leaves_no_temp_file(tmp_path, capsys):
    # the rename onto a directory fails after the temp file is written
    (tmp_path / "out.json").mkdir()
    code = main(["hodge", CUBIC["polynomial"], "-v", "x0,x1,x2",
                 "-o", str(tmp_path / "out.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "cannot write the report" in out["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_gm_with_a_large_coefficient_finds_its_roots():
    # the lead coefficient 1000003^3 of the denominator is never factored
    code, report = run_job(Job.from_dict({
        "command": "gm", **CUBIC, "perturbation": "-1000003*x0*x1*x2"}))
    assert code == 0
    assert report["matrix"]["denominator"] == "1000009000027000027*t^4 - 27*t"
    assert report["matrix"]["discriminant_roots"] == ["0", "3/1000003"]


def test_corpus_reports_every_row_past_a_bad_output(tmp_path):
    jobs = {"good": {},
            "missing-dir": {"output": str(tmp_path / "missing" / "r.json")},
            "not-a-path": {"output": 5}}
    for name, extra in jobs.items():
        (tmp_path / f"{name}.job.json").write_text(
            json.dumps({"command": "hodge", **CUBIC, **extra}))
        (tmp_path / f"{name}.expect.json").write_text(
            json.dumps({"exit_code": 0}))
    code, summary = corpus_runner(tmp_path)
    status = {r["name"]: r["status"] for r in summary["rows"]}
    assert status == {"good": "pass", "missing-dir": "fail",
                      "not-a-path": "infrastructure"}
    assert code == 1


def test_corpus_job_that_raises_is_an_error_row(tmp_path, monkeypatch,
                                                capsys):
    run = cli.run_job

    def flaky(job):
        if job.polynomial == CUBIC["polynomial"]:
            raise RuntimeError("boom")
        return run(job)

    monkeypatch.setattr(cli, "run_job", flaky)
    for name, poly in [("a", CUBIC["polynomial"]),
                       ("b", "x0^2 + x1^2 + x2^2")]:
        (tmp_path / f"{name}.job.json").write_text(json.dumps(
            {**CUBIC, "command": "hodge", "polynomial": poly}))
        (tmp_path / f"{name}.expect.json").write_text(
            json.dumps({"exit_code": 0}))
    code = main(["verify", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "a  error  RuntimeError: boom" in out
    assert "b  pass" in out and "1/2 passed, 1 errors" in out


def test_bundled_corpus_passes():
    code, summary = corpus_runner(bundled_corpus_dir())
    assert code == 0
    assert summary["passed"] == summary["total"] == 5


def test_corpus_empty_directory(tmp_path, capsys):
    # a corpus with no job proves nothing: a JSON error with exit 1, even
    # when expectations are there
    for files in ([], ["a.expect.json"]):
        for name in files:
            (tmp_path / name).write_text(json.dumps({"exit_code": 0}))
        with pytest.raises(ValueError, match="no \\*.job.json file"):
            corpus_runner(tmp_path)
        code = main(["verify", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"] == (
            f"no *.job.json file in the corpus directory: {tmp_path}")


def test_corpus_expectation_without_a_job(tmp_path, capsys):
    # an expectation whose job is missing is never checked: an
    # infrastructure row, in job-file order among the others
    (tmp_path / "b.job.json").write_text(json.dumps(
        {"command": "hodge", **CUBIC}))
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.expect.json").write_text(
            json.dumps({"exit_code": 0}))
    code, summary = corpus_runner(tmp_path)
    assert code == 1
    assert [(r["name"], r["status"], r["detail"]) for r in summary["rows"]] == [
        ("a", "infrastructure", "missing job file"), ("b", "pass", ""),
        ("c", "infrastructure", "missing job file")]
    code = main(["verify", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1 and "a  infrastructure  missing job file" in out
    assert "1/3 passed, 2 infrastructure" in out


def test_verify_needs_a_directory(tmp_path, capsys):
    (tmp_path / "a.job.json").write_text(json.dumps(
        {"command": "hodge", **CUBIC}))
    for path in (tmp_path / "missing", tmp_path / "a.job.json"):
        code = main(["verify", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and "not a corpus directory" in out["error"]


def test_verify_ignores_a_stale_worker_variable(monkeypatch, capsys):
    # verify runs in process; the worker-count variable it once read is
    # ignored, whatever its value (the name is joined here so that a
    # search for it finds no reader in the package, its docs or tests)
    stale = "_".join(["DWORKCOHOM", "WORKERS"])
    code = main(["verify"])
    expected = (code, capsys.readouterr().out)
    for value in ("2", "abc"):
        monkeypatch.setenv(stale, value)
        code = main(["verify"])
        assert (code, capsys.readouterr().out) == expected


def test_corpus_missing_and_corrupted_expectations(tmp_path):
    (tmp_path / "a.job.json").write_text(json.dumps(
        {"command": "hodge", "polynomial": "x0^2 + x1^2 + x2^2",
         "variables": ["x0", "x1", "x2"]}))
    code, summary = corpus_runner(tmp_path)
    assert code == 1
    assert summary["rows"][0]["status"] == "infrastructure"
    (tmp_path / "a.expect.json").write_text("{ not json")
    code, summary = corpus_runner(tmp_path)
    assert code == 1
    assert summary["rows"][0]["status"] == "infrastructure"
    (tmp_path / "a.expect.json").write_text(json.dumps({"exit_code": 0}))
    code, summary = corpus_runner(tmp_path)
    assert code == 0 and summary["passed"] == 1


def test_corpus_math_mismatch(tmp_path):
    (tmp_path / "a.job.json").write_text(json.dumps(
        {"command": "hodge", "polynomial": "x0^2 + x1^2 + x2^2",
         "variables": ["x0", "x1", "x2"]}))
    (tmp_path / "a.expect.json").write_text(json.dumps({"milnor": 999}))
    code, summary = corpus_runner(tmp_path)
    assert code == 2 and summary["failed"] == 1


def test_main_smoke(capsys):
    code = main(["hodge", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2"])
    out = capsys.readouterr().out
    assert code == 0 and '"milnor": 8' in out
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0 and "5/5 passed" in out
    code = main(["dwork", "x0^2 + oops", "-v", "x0"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["koszul", "x^2 - 1", "-v", "x"],
    ["fourier", "--r", "2"],
    ["hodge", "x0^2", "-v", "x0", "--bogus"],
    ["ts", "x0^3 + x1^3", "-v", "x0,x1", "--initial-bound", "2"],
    ["affine", "x^2 + y^3", "-v", "x,y", "--weights", "3,two"],
])
def test_usage_errors_exit_1_with_json(capsys, argv):
    # exit code 2 means "unstabilized", never a usage error
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"].startswith("dworkcohom")


CONSTANT = "a nonzero constant defines no hypersurface and has no strands"


@pytest.mark.parametrize("argv,error", [
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
      "--perturbation=-3*x0*x1*x2", "--samples", "0,1/0"],
     "sample '1/0' is not a rational number"),
    (["koszul", "x^2 - 1", "-v", "x", "--bound=-3"], "bound must be >= 0"),
    (["fourier", "--r", "1", "--bound=-3"], "bound must be >= 0"),
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2", "--perturbation", "0",
      "--basis", "1;2"], "proposed classes are not a cohomology basis"),
    # Fraction reads both, as 3 and 1
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
      "--perturbation=-3*x0*x1*x2", "--samples", "\u0663"],
     "sample '\u0663' is not a rational number"),
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
      "--perturbation=-3*x0*x1*x2", "--samples", "\uff11"],
     "sample '\uff11' is not a rational number"),
    # V(F) is empty, or F = sum y_i f_i does not see a dual variable
    (["dwork", "7/2", "-v", "x0,x1,x2"], CONSTANT),
    (["strands", "1", "-v", "x0,x1", "--strand", "0"], CONSTANT),
    (["strands", "1", "-v", "x0,x1"],
     "affine twisted cohomology needs a nonconstant polynomial"),
    (["koszul", "x0^2+x1^2;0", "-v", "x0,x1", "--bound", "2"],
     "defining polynomials must be nonzero"),
], ids=["gm-sample", "koszul-bound", "fourier-bound", "gm-zero-perturbation",
        "gm-sample-arabic-indic-three", "gm-sample-fullwidth-one",
        "dwork-constant", "strand-constant", "strands-constant", "koszul-zero"])
def test_bad_values_exit_1_with_json(capsys, argv, error):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"] == error


@pytest.mark.parametrize("argv", [["hodge", "x0^2+x1^2"], ["dwork", "x0^2"]],
                         ids=["hodge", "dwork"])
def test_a_thousand_variables_exit_1_with_json(capsys, argv):
    # the job is refused on its variable count before any work starts
    names = ",".join(f"x{k}" for k in range(1200))
    code = main(argv + ["-v", names])
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)["error"] == (
        "1200 variables exceed the variable budget of 1000")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,error", [
    (["affine", "x^2 + y^3", "-v", "x,y", "--weights", "3"],
     "weight list length != variable count"),
    (["affine", "x^2 + y^3", "-v", "x,y", "--weights", "0,2"],
     "weights must be positive integers"),
    (["strands", "x^2 + y^2", "-v", "x,y", "--weights", "1"],
     "weight list length != variable count"),
    (["strands", "x^2 + y^4", "-v", "x,y", "--weights", "2", "--strand", "0"],
     "weight list length != variable count"),
], ids=["affine-short", "affine-zero", "strands-short", "strand-short"])
def test_bad_weights_are_blamed_on_the_weights(capsys, argv, error):
    # the weights are checked before any weighted degree of F is read
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"] == error


def test_strand_label_is_reduced_mod_m(capsys):
    reports = []
    for k in (1, 4, 7, -2):
        code = main(["strands", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
                     f"--strand={k}"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report.pop("input")["strand"] == k
        report.pop("timing_ms")
        reports.append(report)
    assert reports[0]["strand"] == 1 and reports[0]["dims"][3]["dim"] == 3
    assert all(r == reports[0] for r in reports)
    description = strand_cohomology(fermat(3, 3), -2).description
    assert description.startswith("strand 1 mod 3 ")


def test_help_and_version_exit_0(capsys):
    for argv in (["--help"], ["--version"], ["gm", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--perturbation" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2", "--perturbation", "0",
      "--basis", "1;2"], 1),
    (["hodge", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2"], 0),
    (["verify"], 0),
    (["--version"], 0),
], ids=["gm-error", "hodge", "verify", "version"])
def test_closed_stdout_ends_in_the_exit_code(argv, code):
    # the read end is closed before the CLI starts, so every write to
    # stdout meets a broken pipe
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-m", "dworkcohom", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr.decode()
    assert "Exception ignored" not in proc.stderr.decode()


FLAG_JOBS = [
    (["hodge", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2"], {}),
    (["dwork", "x0*x1*x2", "-v", "x0,x1,x2", "--initial-bound", "2",
      "--step", "3", "--max-bound", "4"],
     {"policy": {"initial_bound": 2, "step": 3, "max_bound": 4}}),
    (["affine", "x^2 + y^3", "-v", "x,y", "--weights", "3,2"],
     {"weights": [3, 2]}),
    (["strands", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2", "--strand", "1"],
     {"strand": 1}),
    (["koszul", "x^2 - 1; y", "-v", "x,y", "--bound", "6"],
     {"polynomials": ["x^2 - 1", "y"], "bound": 6}),
    (["fourier", "--r", "1", "--bound", "8"], {"r": 1, "bound": 8}),
    (["ts", "x0^2 + x1^2", "-v", "x0,x1"], {}),
    (["suspension", "x0^2 + x1^2", "-v", "x0,x1"], {}),
    (["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
      "--perturbation=-3*x0*x1*x2", "--basis", "1;x0*x1*x2",
      "--samples", "0,2"],
     {"perturbation": "-3*x0*x1*x2", "basis": ["1", "x0*x1*x2"],
      "samples": ["0", "2"]}),
]


def test_flags_cover_every_command():
    assert sorted(argv[0] for argv, _ in FLAG_JOBS) == sorted(COMMANDS)


@pytest.mark.parametrize("argv,fields", FLAG_JOBS,
                         ids=[argv[0] for argv, _ in FLAG_JOBS])
def test_flags_match_job_file(tmp_path, capsys, argv, fields):
    # a command line is exactly a job file written as flags
    job = {"command": argv[0], **fields}
    if "-v" in argv:
        job["variables"] = argv[argv.index("-v") + 1].split(",")
    if argv[0] not in ("koszul", "fourier"):
        job["polynomial"] = argv[1]
    (tmp_path / "j.job.json").write_text(json.dumps(job))
    reports = []
    for args in (argv, ["run", str(tmp_path / "j.job.json")]):
        code = main(args)
        report = json.loads(capsys.readouterr().out)
        report.pop("timing_ms")
        reports.append((code, report))
    assert reports[0] == reports[1]
    assert reports[0][1]["input"] == job


def test_main_gm(capsys):
    # values starting with '-' need the '=' form, per argparse convention
    code = main(["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
                 "--perturbation=-3*x0*x1*x2", "--basis", "1;x0*x1*x2",
                 "--samples", "0,2"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["matrix"]["entries"][1][0] == "-3"


def test_main_gm_without_samples(capsys):
    # no samples, no checks: the report is the matrix alone
    code = main(["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
                 "--perturbation=-3*x0*x1*x2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and "checks" not in rep
    assert rep["matrix"]["basis"] == ["1", "x2^3"]
    assert rep["matrix"]["denominator"] == "3*t^4 - 3*t"


@pytest.mark.xfail(strict=True, reason=(
    "_DegreeSolver._reduce stops at the first non-pivot row, so a solve "
    "can leave pivot rows in the residue (ROADMAP item 1)"))
def test_main_gm_residue_on_pivot_rows(capsys):
    # today: exit 1, "residue x1^3 in degree 3 lies outside the standard
    # basis", raised while reducing the forms of the conjugation check
    code = main(["gm", "x0^3 + x1^3 + x2^3", "-v", "x0,x1,x2",
                 "--perturbation", "x0^3 - x1^3", "--samples", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["pass"] for c in rep["checks"]] == [True, True]
    assert rep["matrix"]["denominator"] == "9*t^2 - 9"


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path (its dataclass needs the
    module registered while it runs)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.hash_order
def test_main_gm_k3_fails_as_the_benchmark_pins(capsys, monkeypatch):
    # the benchmark accepts exactly this failure of its K3 gm job; an engine
    # change that alters the error must change the pin with it
    code = main(["gm", "x0^4 + x1^4 + x2^4 + x3^4", "-v", "x0,x1,x2,x3",
                 "--perturbation=-4*x0*x1*x2*x3", "--samples", "0,2,-1"])
    rep = json.loads(capsys.readouterr().out)
    pin = load_workloads(monkeypatch).K3_GM_ERROR
    assert f"exit {code}: {rep['error']}" == pin


# sha256 of the symbolic Dwork-quintic gm report (default basis, no
# samples), timing_ms removed, as json.dumps(report, sort_keys=True)
QUINTIC_GM_REPORT_DIGEST = ("2f18b8449c4be89afea157b651c66674"
                            "cf15842b595ce4f3a6c5fd1ac0943389")


@pytest.mark.hash_order
def test_main_gm_symbolic_quintic_report_is_frozen(capsys):
    # the 204 perturbation products over QQ(t) on the standard basis, as
    # the gm command prints them; no frozen report or benchmark digest
    # covers this product path over QQ(t)
    code = main(["gm", "x0^5 + x1^5 + x2^5 + x3^5 + x4^5",
                 "-v", "x0,x1,x2,x3,x4", "--perturbation=-5*x0*x1*x2*x3*x4"])
    rep = json.loads(capsys.readouterr().out)
    rep.pop("timing_ms")
    text = json.dumps(rep, sort_keys=True)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == QUINTIC_GM_REPORT_DIGEST


def test_main_gm_singular_base_member(capsys):
    # F_0 = x0*x1*x2 is singular, the generic member is smooth: no check
    # may build a reducer of F_0
    code = main(["gm", "x0*x1*x2", "-v", "x0,x1,x2",
                 "--perturbation", "x0^3+x1^3+x2^3", "--samples", "1,2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and "error" not in rep
    assert [c["pass"] for c in rep["checks"]] == [True] * 3
    assert rep["checks"][2]["name"] == "basis change conjugates the matrix"
    assert rep["matrix"]["discriminant_roots"] == ["-1/3", "0"]


@pytest.mark.parametrize("argv, size", [
    (["gm", "x0^3", "-v", "x0", "--perturbation", "x0^3", "--samples", "2"],
     0),
    (["gm", "x0^2+x1^2", "-v", "x0,x1", "--perturbation", "x0*x1",
      "--samples", "1,3"], 1),
], ids=["empty-basis", "one-form"])
def test_main_gm_basis_change_on_tiny_bases(capsys, argv, size):
    # the basis-change check on bases of size 0 and 1; t = 1 and t = 3 avoid
    # the roots +-2 of t^2 - 4, the one-form family's denominator
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["pass"] for c in rep["checks"])
    check = rep["checks"][-1]
    assert check["name"] == "basis change conjugates the matrix"
    assert check["lhs"] == check["rhs"]
    assert len(check["lhs"]) == len(rep["matrix"]["basis"]) == size


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n")[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#")[0])[1:] for line in lines
            if line.startswith("dworkcohom ")]


# `run job.json` and `verify corpus/` name files the reader supplies
README_EXAMPLES = [argv for argv in _readme_cli_examples()
                   if argv not in (["run", "job.json"], ["verify", "corpus/"])]


def test_readme_examples_cover_every_command():
    assert {argv[0] for argv in README_EXAMPLES} == {*COMMANDS, "verify"}


@pytest.mark.parametrize("argv", README_EXAMPLES,
                         ids=[argv[0] for argv in README_EXAMPLES])
def test_readme_cli_examples_run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if argv == ["verify"]:  # the bundled corpus prints a text summary
        assert out.endswith("5/5 passed\n")
    else:
        assert json.loads(out)["command"] == argv[0]


def test_readme_lists_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, command in COMMANDS.items():
        optional = command.fields[len(command.required):]
        required, optional = (", ".join(f"`{f}`" for f in fields)
                              for fields in (command.required, optional))
        assert f"| `{name}` | {required} | {optional} |" in readme


def test_main_run_job_file(tmp_path, capsys):
    path = tmp_path / "j.job.json"
    path.write_text(json.dumps({"command": "affine", "polynomial": "x0*x1",
                                "variables": ["x0", "x1"]}))
    code = main(["run", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {d["degree"]: d["dim"] for d in out["dims"]}[2] == 1


# ---- error boundary ------------------------------------------------------


@pytest.mark.parametrize("exc, code", [
    (StrandSumError("strand sum 7 != full-complex dimension 8 in degree 3"), 2),
    (ZeroDivisionError("division by zero rational function"), 1),
    (ArithmeticError("overflow in an exact step"), 1),
])
def test_engine_errors_end_in_exit_code(monkeypatch, capsys, exc, code):
    def raising(job, out):
        raise exc

    monkeypatch.setitem(COMMANDS, "strands",
                        COMMANDS["strands"]._replace(handler=raising))
    got, report = run_job(Job(command="strands", **CUBIC))
    assert (got, report["error"]) == (code, str(exc))
    assert main(["strands", CUBIC["polynomial"], "-v", "x0,x1,x2"]) == code
    assert json.loads(capsys.readouterr().out)["error"] == str(exc)


def test_strand_sum_mismatch_is_exit_2(monkeypatch):
    # a wrong strand dimension trips the strand-sum identity itself
    top = dwork.strand_top_dims
    monkeypatch.setattr(dwork, "strand_top_dims",
                        lambda profile, residue: top(profile, residue) + 1)
    code, report = run_job(Job(command="strands", **CUBIC))
    assert code == 2
    assert report["error"].startswith("strand sum 11 != full-complex "
                                      "dimension 8 in degree 3")


# ---- one Jacobian profile and one symbolic reducer per pipeline ----------


@pytest.fixture
def profiled(monkeypatch):
    """Every polynomial whose Jacobian profile is computed, once per
    computation: jacobian_hilbert and smooth_profile both go through
    griffiths._smooth_or_singular."""
    calls = []
    original = griffiths._smooth_or_singular

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(griffiths, "_smooth_or_singular", counted)
    return calls


@pytest.mark.parametrize("run, distinct", [
    (lambda: run_job(Job(command="hodge", **CUBIC)), 1),
    (lambda: run_job(Job(command="strands", **CUBIC)), 1),
    (lambda: compare_smooth_paths(fermat(3, 3)), 1),
    (lambda: dwork.thom_sebastiani_check(fermat(3, 3)), 3),
    (lambda: dwork.suspension_check(fermat(3, 3)), 2),
    (lambda: run_job(Job(command="dwork", **CUBIC)), 1),
    (lambda: run_job(Job(command="affine", **CUBIC)), 1),
    (lambda: run_job(Job(command="strands", strand=1, **CUBIC)), 1),
], ids=["hodge", "strands", "compare_smooth_paths", "ts", "suspension",
        "dwork", "affine", "strand"])
def test_one_profile_per_polynomial(profiled, run, distinct):
    run()
    assert len(profiled) == len(set(profiled)) == distinct


def test_gm_job_builds_one_symbolic_reducer(monkeypatch):
    built = []
    init = gaussmanin.GriffithsDworkReducer.__init__

    def counted(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(gaussmanin.GriffithsDworkReducer, "__init__", counted)
    job = Job(command="gm", polynomial="x^3 + y^3 + z^3",
              variables=["x", "y", "z"], perturbation="-3*x*y*z",
              samples=["2", "-1", "1/2"])
    code, report = run_job(job)
    assert code == 0 and all(c["pass"] for c in report["checks"])
    f_t = Family(parse_polynomial("x^3 + y^3 + z^3", "xyz"),
                 parse_polynomial("-3*x*y*z", "xyz")).symbolic()
    assert built.count(f_t) == 1
    # the other reducers: one per sample over QQ
    assert len(built) == 1 + 3


def test_gm_job_reduces_each_form_once(monkeypatch):
    # the check verifies the matrix the job reports instead of reducing
    # every basis form on the symbolic reducer a second time
    seen, alive = [], []
    reduce = gaussmanin.GriffithsDworkReducer.reduce

    def spied(self, p):
        alive.append(self)  # a freed reducer's id could be reused
        seen.append((id(self), p))
        return reduce(self, p)

    monkeypatch.setattr(gaussmanin.GriffithsDworkReducer, "reduce", spied)
    job = Job(command="gm", polynomial="x^3 + y^3 + z^3",
              variables=["x", "y", "z"], perturbation="-3*x*y*z",
              basis=["1", "x*y*z"], samples=["2", "-1"])
    code, report = run_job(job)
    assert code == 0 and all(c["pass"] for c in report["checks"])
    repeated = [p for p in set(seen) if seen.count(p) > 1]
    assert seen and repeated == []
