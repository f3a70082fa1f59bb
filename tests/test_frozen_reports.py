"""Frozen CLI reports: each job's full JSON, apart from timing_ms.

tests/frozen_reports.json holds the argv, the exit code and the report of
jobs on the Jacobian and Griffiths-Dwork route (three gm families, one of
them failing its discriminant samples; the cubic once more on the basis
1, x0^3, whose general path lifts the basis, solves U X = R and fails its
t = 0 sample), the window engine (dwork on a
singular cubic) and the Jacobian profile (strands, hodge).  Four more run
the window engine's orbit sharing: dwork on x0*x1*x2*x3 (a lattice of low
rank), dwork on the Fermat quartic with an explicit policy (a full-rank
lattice and S4), affine on x0^2 + x1^2 + x2^3 with weights 3,3,2 (weighted,
one swap) and suspension on x0*x1*x2.  A change that
claims to keep every report byte-identical must pass these unedited.  They
are kept out of the bundled corpus, whose job count the benchmark checks.
"""

import json
from pathlib import Path

import pytest

from dworkcohom.cli import main

pytestmark = pytest.mark.hash_order

FROZEN = json.loads(
    (Path(__file__).resolve().parent / "frozen_reports.json").read_text())


@pytest.mark.parametrize("job", FROZEN,
                         ids=[" ".join(job["argv"][:2]) for job in FROZEN])
def test_report_is_frozen(capsys, job):
    code = main(job["argv"])
    report = json.loads(capsys.readouterr().out)
    report.pop("timing_ms")
    assert (code, report) == (job["exit"], job["report"])
