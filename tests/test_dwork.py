"""Top-level pipelines: comparison identities between independent routes."""

import pytest

from dworkcohom import (Job, Polynomial, QQ, StrandSpec,
                        affine_twisted_cohomology, ci_dwork_koszul,
                        compare_smooth_paths, default_policy,
                        fourier_lemma_check, full_complex_spec,
                        primitive_dwork_cohomology, run_job,
                        stabilized_cohomology, strand_cohomology,
                        strand_decomposition, suspension_check,
                        thom_sebastiani_check)
from dworkcohom.exceptions import NonHomogeneousError, NotSmoothError

from _helpers import fermat, triangle, var


def test_primitive_smooth_examples():
    k3 = primitive_dwork_cohomology(fermat(4, 4))
    assert k3.dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 21}
    assert k3.path == "jacobian" and k3.stabilized
    assert k3.labels[4] == "H^4_Y(P^3)^prim"
    cubic = primitive_dwork_cohomology(fermat(3, 3))
    assert cubic.dims[3] == 2 and cubic.total() == 2


def test_primitive_singular_triangle():
    # oracle: P^2 minus a triangle of lines is a 2-torus, whose reduced
    # Betti numbers (0, 2, 1) appear as H^k_prim at k = (1), 2, 3
    rep = primitive_dwork_cohomology(triangle())
    assert rep.dims == {0: 0, 1: 0, 2: 2, 3: 1}
    assert rep.path == "truncation"
    assert rep.certificate.agreed and len(rep.certificate.bounds) == 3


def test_primitive_nodal_and_cuspidal_cubics():
    # oracles from topology: a nodal cubic is P^1 with two points glued
    # (H_1 = C, so prim H^3 = 1); a cuspidal cubic is homeomorphic to P^1
    # (prim vanishes entirely)
    x0, x1, x2 = (var(3, k) for k in range(3))
    nodal = x1 ** 2 * x2 - x0 ** 3 - x0 ** 2 * x2
    rep = primitive_dwork_cohomology(nodal)
    assert rep.dims == {0: 0, 1: 0, 2: 0, 3: 1} and rep.path == "truncation"
    cuspidal = x1 ** 2 * x2 - x0 ** 3
    rep = primitive_dwork_cohomology(cuspidal)
    assert rep.dims == {0: 0, 1: 0, 2: 0, 3: 0}


def test_primitive_input_validation():
    with pytest.raises(ValueError):
        primitive_dwork_cohomology(var(1, 0) ** 2)
    with pytest.raises(NonHomogeneousError):
        primitive_dwork_cohomology(var(2, 0) ** 2 + var(2, 1))
    with pytest.raises(ValueError):
        primitive_dwork_cohomology(Polynomial.zero(QQ, 2))


@pytest.mark.parametrize("g,top,mu", [
    (var(1, 0) ** 2, 1, 1),
    (var(2, 0) * var(2, 1), 2, 1),
    (fermat(3, 3), 3, 8),
])
def test_affine_milnor_numbers(g, top, mu):
    rep = affine_twisted_cohomology(g)
    assert rep.dims[top] == mu
    assert all(v == 0 for k, v in rep.dims.items() if k != top)
    assert rep.labels[top] == f"H~^{top - 1}(U)"


def test_affine_truncation_agrees_with_jacobian_path():
    # force the truncation path on a smooth input and compare
    g = fermat(3, 3)
    spec = full_complex_spec(3)
    forced = stabilized_cohomology(g, spec)
    fast = affine_twisted_cohomology(g)
    assert forced.dims == fast.dims
    assert forced.path == "truncation" and fast.path == "jacobian"


def test_affine_weighted_cusp():
    f = var(2, 0) ** 2 + var(2, 1) ** 3
    rep = affine_twisted_cohomology(f, weights=(3, 2))
    assert rep.dims == {0: 0, 1: 0, 2: 2}


def test_affine_rejects_constant():
    with pytest.raises(ValueError):
        affine_twisted_cohomology(Polynomial.constant(QQ, 2, 5))


def test_strand_decomposition_cubic():
    reps = strand_decomposition(fermat(3, 3)).reports[:-1]
    assert [r.dim(3) for r in reps] == [2, 3, 3]
    assert sum(r.total() for r in reps) == 8


def test_strand_decomposition_quartic():
    reps = strand_decomposition(fermat(4, 4)).reports[:-1]
    assert [r.dim(4) for r in reps] == [21, 20, 20, 20]


def test_strand_decomposition_triangle():
    verdict = strand_decomposition(triangle())
    *reps, last = verdict.reports
    full = affine_twisted_cohomology(triangle())
    for k in range(4):
        assert sum(r.dim(k) for r in reps) == full.dim(k)
    # the last report is the affine report, labels and certificate included
    assert last == full and verdict.ok and len(verdict.checks) == 4


def test_strand_truncation_cross_check():
    # truncation path on each strand of the cubic reproduces the
    # Jacobian-path strand dimensions
    f = fermat(3, 3)
    for j in range(3):
        fast = strand_cohomology(f, j)
        forced = stabilized_cohomology(f, StrandSpec(3, 3, j))
        assert fast.path == "jacobian" and forced.path == "truncation"
        assert forced.dims == fast.dims


def test_thom_sebastiani_two_cubics():
    # x0^3 + x1^3 has mu = 4; adding x2^3 multiplies by m - 1 = 2
    v = thom_sebastiani_check(var(2, 0) ** 3 + var(2, 1) ** 3)
    assert v.ok
    full_ft = v.reports[2]
    assert full_ft.dim(3) == 8


def test_thom_sebastiani_fermat_cubic():
    v = thom_sebastiani_check(fermat(3, 3))
    assert v.ok
    # strand identity at top: cubic surface prim = 3 + 3
    strand_ft0 = v.reports[3]
    assert strand_ft0.dim(4) == 6
    assert v.reports[2].dim(4) == 16


def test_suspension_cubic_pair():
    v = suspension_check(fermat(3, 3))
    assert v.ok
    u_side, prim_ft, prim_f = v.reports
    assert u_side.dim(3) == 8 and prim_ft.dim(4) == 6 and prim_f.dim(3) == 2


def test_suspension_plane_quartic():
    v = suspension_check(fermat(4, 3))
    assert v.ok
    u_side, prim_ft, prim_f = v.reports
    assert (u_side.dim(3), prim_ft.dim(4), prim_f.dim(3)) == (27, 21, 6)


def test_suspension_degenerate_one_variable():
    v = suspension_check(var(1, 0) ** 2)
    assert v.ok
    u_side, prim_ft, prim_f = v.reports
    assert (u_side.dim(1), prim_ft.dim(2), prim_f.dim(1)) == (1, 1, 0)


def test_suspension_singular_triangle():
    # the torus monodromy is trivial, so the whole fiber cohomology sits on
    # strand 0 and the suspended cone has no primitive part at all
    v = suspension_check(triangle())
    assert v.ok
    u_side, prim_ft, prim_f = v.reports
    assert prim_ft.total() == 0
    assert u_side.dims == {0: 0, 1: 0, 2: 2, 3: 1}
    assert prim_f.dims == {0: 0, 1: 0, 2: 2, 3: 1}


def test_thom_sebastiani_singular_triangle():
    assert thom_sebastiani_check(triangle()).ok


def test_ci_koszul_examples():
    rep = ci_dwork_koszul([var(1, 0) ** 2 - 1], 10)
    assert rep.dims[2] == 2 and rep.total() == 2
    assert rep.stabilized and rep.labels[2] == "H^0_dR(Y)"
    rep = ci_dwork_koszul([var(1, 0)], 8)
    assert rep.dims[2] == 1 and rep.total() == 1
    rep = ci_dwork_koszul([var(2, 0), var(2, 1)], 8)
    assert rep.dims[4] == 1 and rep.total() == 1
    assert rep.labels[4] == "H^0_dR(Y)"


def test_ci_koszul_smooth_affine_curve():
    # y^2 = x(x-1)(x+1): affine elliptic curve, b0 = 1, b1 = 2
    x, y = var(2, 0), var(2, 1)
    rep = ci_dwork_koszul([y ** 2 - (x ** 3 - x)], 14)
    assert rep.stabilized
    assert rep.dims[2] == 1 and rep.dims[3] == 2


def test_fourier_lemma():
    assert fourier_lemma_check(1, 8).ok
    v = fourier_lemma_check(2, 8)
    assert v.ok
    rep = v.reports[0]
    assert len(rep.certificate.bounds) == 3


def test_compare_smooth_paths_corpus():
    for f in [fermat(2, 3), fermat(3, 3)]:
        assert compare_smooth_paths(f).ok
    with pytest.raises(NotSmoothError):
        compare_smooth_paths(triangle())


def _is_evidence(rep):
    cert = rep.certificate
    return (rep.path == "truncation" and cert.agreed
            and len(cert.bounds) == 3 and cert.proof is None
            and "proof" not in cert.to_json_dict())


def test_compare_smooth_paths_proves_its_window():
    f = fermat(4, 3)
    proved = compare_smooth_paths(f)
    cert = proved.reports[0].certificate
    assert proved.ok and cert.agreed and cert.bounds == (9,)
    assert (cert.proof.kind, cert.proof.smooth, cert.proof.socle,
            cert.proof.window) == ("koszul-window", True, 6, 9)
    spec = StrandSpec(3, 4, 0)
    evidence = stabilized_cohomology(f, spec, default_policy(f, spec))
    assert _is_evidence(evidence)
    assert evidence.dims == proved.reports[0].dims


def test_evidence_path_keeps_three_windows():
    assert _is_evidence(primitive_dwork_cohomology(triangle()))
    assert _is_evidence(fourier_lemma_check(2, 8).reports[0])
    cusp = var(2, 0) ** 2 + var(2, 1) ** 3
    assert _is_evidence(affine_twisted_cohomology(cusp, weights=(3, 2)))
    weighted = var(3, 0) ** 2 + var(3, 1) ** 4 + var(3, 2) ** 4
    assert _is_evidence(strand_cohomology(weighted, 0, weights=(2, 1, 1)))


def test_betti_relation_on_smooth_corpus():
    # b_middle(Y) = prim + (1 if middle dimension even else 0), with
    # b_middle from the classical Euler-characteristic formula
    for m, nvars in [(2, 3), (3, 3), (4, 3), (4, 4)]:
        f = fermat(m, nvars)
        n = nvars - 1
        rep = primitive_dwork_cohomology(f)
        prim = rep.dim(nvars)
        mu = (m - 1) ** nvars
        chi = (n + 1) - (1 + (-1) ** n * mu) // m
        prim_classical = (-1) ** (n - 1) * (chi - n)
        middle_even = (n - 1) % 2 == 0
        b_middle = prim_classical + (1 if middle_even else 0)
        assert prim == prim_classical
        assert b_middle == prim + (1 if middle_even else 0)


def euler(rep):
    return sum((-1) ** k * d for k, d in rep.dims.items())


@pytest.mark.parametrize("name", ["fermat cubic", "x0*x1*x2", "x0^3 + x1^2*x2",
                                  "x0^2*x1 + x1^2*x2"])
def test_strand_euler_characteristics_agree(name):
    # F homogeneous of degree m, unweighted: mu_m acts freely on
    # U = F^-1(1) by x -> zeta x, with quotient P^n \ V.  Its nontrivial
    # elements have Lefschetz number 0, so every character of mu_m has
    # Euler characteristic chi(P^n \ V) in H*(U).  Strand j carries the
    # zeta^j part shifted up by one, and strand 0 the reduced trivial
    # part, so chi_j = -chi(P^n \ V) for j != 0 and chi_0 = chi_j + 1.
    x = [var(3, k) for k in range(3)]
    f = {"fermat cubic": fermat(3, 3), "x0*x1*x2": triangle(),
         "x0^3 + x1^2*x2": x[0] ** 3 + x[1] ** 2 * x[2],
         "x0^2*x1 + x1^2*x2": x[0] ** 2 * x[1] + x[1] ** 2 * x[2]}[name]
    chi = [euler(rep) for rep in strand_decomposition(f).reports[:-1]]
    assert len(set(chi[1:])) == 1
    assert chi[0] == chi[1] + 1


def test_strand_zero_euler_characteristic_of_the_coordinate_tetrahedron():
    # P^3 minus the four coordinate planes is the torus (C*)^3, with Euler
    # characteristic 0, so chi_0 = 1 - chi(P^3 \ V) = 1
    f = var(4, 0) * var(4, 1) * var(4, 2) * var(4, 3)
    rep = primitive_dwork_cohomology(f)
    assert rep.dims == {0: 0, 1: 0, 2: 3, 3: 3, 4: 1} and rep.stabilized
    assert euler(rep) == 1


@pytest.mark.slow
def test_nodal_quintic_with_125_nodes():
    # the Dwork quintic at t = 1 has 125 ordinary double points; its
    # dwork job takes seconds, so it runs only under pytest -m slow
    names = ["x0", "x1", "x2", "x3", "x4"]
    code, report = run_job(Job.from_dict({
        "command": "dwork", "variables": names,
        "polynomial": " + ".join(f"{x}^5" for x in names)
                      + " - 5*" + "*".join(names)}))
    assert code == 0
    assert [d["dim"] for d in report["dims"]] == [0, 0, 0, 0, 24, 103]
    assert report["certificate"]["bounds"] == [30, 35, 40]
