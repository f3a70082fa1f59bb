"""Result containers shared by the cohomology pipelines, and their JSON."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Proof:
    """Why a certificate's dimensions are exact: the argument and the
    hypotheses it used.

    kind "koszul-window": the Jacobian ring of F is finite (smooth, as
    jacobian_hilbert checks exactly), so windowed dimensions are exact at
    every bound >= socle + nvars, and window is such a bound (the argument
    is in the linalg module docstring).
    """

    kind: str
    smooth: bool
    socle: int
    window: int

    def to_json_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    """How far windowed dimensions are to be trusted: evidence or proof.

    An evidence certificate (proof None) comes from escalating windows:
    bounds are the three consecutive truncation bounds whose dimension maps
    agree (empty and agreed=False when the escalation hit max_bound first).
    Agreement is evidence, not proof: the reported dimensions are exact for
    each bound, but stability across three bounds does not certify the
    untruncated limit.  A proved certificate carries the Proof that makes
    its single window bound exact; agreed is then True.  history records
    every (bound, dims) pair that was computed.
    """

    bounds: tuple
    agreed: bool
    history: tuple = ()
    proof: Proof = None

    def to_json_dict(self):
        out = {"bounds": list(self.bounds), "agreed": self.agreed}
        if self.proof is not None:
            out["proof"] = self.proof.to_json_dict()
        return out


@dataclass(frozen=True)
class CohomologyReport:
    """Per-degree cohomology dimensions plus provenance of the computation.

    path is "jacobian" (exact, via the Hilbert function of the Jacobian
    ring) or "truncation" (windowed dimensions with a certificate of
    evidence or of proof).  dims maps raw complex degree k to the
    dimension; labels give the normalized name of each degree
    (local-cohomology or reduced Betti indexing) alongside the raw one.
    """

    description: str
    nvars: int
    modulus: int
    dims: dict
    labels: dict = field(default_factory=dict)
    strand: int = None
    path: str = "truncation"
    certificate: Certificate = None
    weights: tuple = None

    @property
    def stabilized(self) -> bool:
        return self.certificate is None or self.certificate.agreed

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def total(self) -> int:
        return sum(self.dims.values())

    def dims_list(self):
        return [{"degree": k, "label": self.labels.get(k, f"H^{k}"), "dim": v}
                for k, v in sorted(self.dims.items())]

    def to_json_dict(self):
        out = {
            "description": self.description,
            "nvars": self.nvars,
            "m": self.modulus,
            "strand": self.strand,
            "weights": list(self.weights) if self.weights else None,
            "path": self.path,
            "dims": self.dims_list(),
            "certificate": (self.certificate.to_json_dict()
                            if self.certificate else None),
            "stabilized": self.stabilized,
        }
        return out


def _jsonable(value):
    """value with rationals and field elements as strings, tuples as lists."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class Check:
    """One verified dimension identity: lhs and rhs computed independently."""

    name: str
    lhs: object
    rhs: object

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self):
        return {"name": self.name, "lhs": _jsonable(self.lhs),
                "rhs": _jsonable(self.rhs), "pass": self.passed}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a multi-sided identity check, with supporting reports."""

    checks: tuple = ()
    reports: tuple = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def stabilized(self) -> bool:
        return all(r.stabilized for r in self.reports)

    def failed(self):
        return [c for c in self.checks if not c.passed]
