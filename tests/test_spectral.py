"""Restriction matrices, block eigenvalues, Riesz projections, eigenfunctions,
and iterate decay rates."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from betaop import (BetaParams, QuadNum, apply_transfer, block_eigenvalues,
                    builtin, combine, expand_in_basis, fit_slope,
                    make_psi_basis, make_u_tilde, restriction_matrix,
                    riesz_projections, two_term_residual_exact)
from betaop.spectral import (mat_equal, mat_eye, mat_mul, mat_scale,
                             sylvester_projections)

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def expected_p4(params):
    beta = params.beta()
    binv = beta.inverse()
    a0, a1 = params.a0, params.a1
    z = params.zero()
    return [
        [binv * a0, params.one(), -(binv ** 3) * (2 * a0 * a1), z],
        [binv ** 2 * a1, z, (binv ** 3) * (2 * a0 * a1), z],
        [z, z, binv ** 2 * a0, params.rational(Fraction(1, a1))],
        [z, z, binv ** 4 * a1 * a1, z],
    ]


def block_display(params, k):
    """The paper's display of the k-th 2x2 diagonal block of the restriction
    matrix on the psi basis."""
    return [
        [params.power(-k) * params.a0, params.rational(Fraction(1, params.a1 ** (k - 1)))],
        [params.power(-2 * k) * params.a1 ** k, params.zero()],
    ]


def diagonal_block(m, k):
    """The k-th 2x2 diagonal block of a computed restriction matrix."""
    r = 2 * (k - 1)
    return [row[r:r + 2] for row in m[r:r + 2]]


def inverse_2x2(a):
    d = (a[0][0] * a[1][1] - a[0][1] * a[1][0]).inverse()
    return [[a[1][1] * d, -a[0][1] * d], [-a[1][0] * d, a[0][0] * d]]


def mat_sum(ms):
    total = ms[0]
    for m in ms[1:]:
        total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(total, m)]
    return total


def display_projections(params):
    """The paper's displays of Pi1, Pi2 and Pi3 for the nu=2 psi
    basis. Pi2 carries the starred block pi2 B (lam2 I - C)^{-1}, with B and
    C the top-right and bottom-right blocks of the restriction matrix."""
    beta = params.beta()
    a0, a1 = params.a0, params.a1
    z = params.zero()
    b2 = beta * beta
    den = (b2 + a1).inverse()
    pi1 = [[b2 * den, b2 * den], [den * a1, den * a1]]
    pi2 = [[den * a1, -(b2 * den)], [-(den * a1), b2 * den]]
    p4 = expected_p4(params)
    blk_b = [row[2:] for row in p4[:2]]
    blk_c = [row[2:] for row in p4[2:]]
    lam2 = -(beta.inverse() ** 2) * a1
    lam2_minus_c = [[lam2 - blk_c[0][0], -blk_c[0][1]],
                    [-blk_c[1][0], lam2 - blk_c[1][1]]]
    star = mat_mul(mat_mul(pi2, blk_b), inverse_2x2(lam2_minus_c))
    dd = ((beta + a1) * (b2 + a1)).inverse()
    c01 = beta * (2 * a0 * a1) * dd
    c02 = b2 * (2 * a0) * dd
    pi3_tr = [[-c01, -c02], [c01, c02]]
    pi3_br = [[b2 * den, beta * b2 * den / a1],
              [beta.inverse() * (a1 * a1) * den, den * a1]]
    zero2 = [[z, z], [z, z]]

    def embed(top_left, top_right, bottom_right):
        return ([[*left, *right] for left, right in zip(top_left, top_right)]
                + [[*left, *right] for left, right in zip(zero2, bottom_right)])

    return [embed(pi1, zero2, zero2), embed(pi2, star, zero2),
            embed(zero2, pi3_tr, pi3_br)]


def display_u_tilde_coords(params):
    """The paper's psi-coordinates of u1, u2, u3."""
    beta = params.beta()
    a0, a1 = params.a0, params.a1
    z = params.zero()
    b2 = beta * beta
    den = (b2 + a1).inverse()
    c = (beta * (2 * a0 * a1)) / ((beta + a1) * (b2 + a1))
    return [
        [b2 * den, den * a1, z, z],
        [den * a1, -(den * a1), z, z],
        [-c, c, b2 * den, beta.inverse() * (a1 * a1) * den],
    ]


def test_projections_match_display():
    for params in ALL_PARAMS_5:
        data = riesz_projections(params)
        for pi, display in zip(data.projections, display_projections(params)):
            assert mat_equal(pi, display)
        assert mat_equal(mat_sum(data.projections), mat_eye(params, 4))


def test_u_tilde_match_display():
    for params in ALL_PARAMS_5:
        basis = make_psi_basis(params, 2)
        for u, coords in zip(make_u_tilde(params), display_u_tilde_coords(params)):
            assert u.equal_ae(combine(list(zip(coords, basis))))


def test_sylvester_projections_nu3():
    params = BetaParams(2, 1)
    m = restriction_matrix(make_psi_basis(params, 3))
    eigs = block_eigenvalues(params, 3)
    projs = sylvester_projections(m, eigs)
    for pi, lam in zip(projs, eigs):
        assert mat_equal(mat_mul(pi, pi), pi)
        assert mat_equal(mat_mul(m, pi), mat_scale(pi, lam))
    assert mat_equal(mat_sum(projs), mat_eye(params, 6))


def test_catalog_psi_entries_match_basis():
    for params in (GOLDEN, BetaParams(3, 2)):
        psi1, _, psi3, _ = make_psi_basis(params, 2)
        assert builtin("psi1").piecewise(params).equal_ae(psi1)
        assert builtin("psi3").piecewise(params).equal_ae(psi3)


def test_restriction_matrix_matches_display():
    for params in ALL_PARAMS_5:
        m = restriction_matrix(make_psi_basis(params, 2))
        assert mat_equal(m, expected_p4(params))


def test_restriction_matrix_nu1():
    for params in (GOLDEN, BetaParams(3, 2)):
        m = restriction_matrix(make_psi_basis(params, 1))
        binv = params.beta().inverse()
        assert m[0][0] == binv * params.a0
        assert m[0][1] == 1
        assert m[1][0] == binv ** 2 * params.a1
        assert m[1][1].is_zero()


def test_golden_matrix_values():
    m = restriction_matrix(make_psi_basis(GOLDEN, 2))
    binv = GOLDEN.beta().inverse()
    assert m[0][2] == -(binv ** 3) * 2
    assert m[2][3] == 1
    assert m[3][2] == binv ** 4


def test_block_triangular_shape_unnormalized():
    for nu in (3, 4):
        basis = make_psi_basis(BetaParams(2, 1), nu)
        m = restriction_matrix(basis)
        for i in range(2 * nu):
            for j in range(2 * nu):
                if i // 2 > j // 2:
                    assert m[i][j].is_zero()
        # diagonal blocks equal A_k (both functions of a block share c_s)
        for k in range(1, nu + 1):
            assert mat_equal(diagonal_block(m, k), block_display(BetaParams(2, 1), k))


def test_bases_are_prefixes_and_the_nu4_matrix_extends_the_nu2_matrix():
    # psi_1..psi_2nu do not depend on the nu they were built for, so the
    # top-left block of a larger restriction matrix is the smaller matrix
    for nu in (0, 66):  # B_s, s < nu, exists for s <= 64
        with pytest.raises(ValueError, match=r"^nu must be in \[1, 65\], got %d" % nu):
            make_psi_basis(GOLDEN, nu)
    for params in ALL_PARAMS_5:
        big = make_psi_basis(params, 4)
        for nu in (1, 2, 3):
            small = make_psi_basis(params, nu)
            assert len(small) == 2 * nu
            assert all(f.equal_ae(g) for f, g in zip(small, big))
        m2, m4 = restriction_matrix(big[:4]), restriction_matrix(big)
        assert mat_equal([row[:4] for row in m4[:4]], m2)
        assert mat_equal(m2, riesz_projections(params).matrix)


def test_nu4_projections_give_the_same_eigenfunctions():
    # on the one basis u1, u2, u3 are Pi1 psi1, Pi2 psi1 and Pi3 psi3 at any nu
    for params in (GOLDEN, BetaParams(3, 2), BetaParams(5, 5)):
        basis = make_psi_basis(params, 4)
        projs = sylvester_projections(restriction_matrix(basis), block_eigenvalues(params, 4))
        for u, pi, col in zip(make_u_tilde(params), projs, (0, 0, 2)):
            assert u.equal_ae(combine([(pi[row][col], f) for row, f in enumerate(basis)]))


def test_block_trace_and_det():
    # each diagonal block of the computed nu=4 matrix equals the display,
    # and the closed-form eigenvalues annihilate its characteristic polynomial
    for params in ALL_PARAMS_5:
        binv = params.beta().inverse()
        m = restriction_matrix(make_psi_basis(params, 4))
        eigs = block_eigenvalues(params, 4)
        for k in range(1, 5):
            blk = diagonal_block(m, k)
            assert mat_equal(blk, block_display(params, k))
            tr = blk[0][0] + blk[1][1]
            det = blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0]
            assert (tr - binv ** k * params.a0).is_zero()
            assert (det + binv ** (2 * k) * params.a1).is_zero()
            for lam in eigs[2 * k - 2:2 * k]:
                assert (lam * lam - tr * lam + det).is_zero()


def test_block_eigenvalues_closed_form():
    for params in ALL_PARAMS_5:
        binv = params.beta().inverse()
        eigs = block_eigenvalues(params, 4)
        assert eigs[0] == 1
        assert eigs[1] == -(binv ** 2) * params.a1
        assert eigs[2] == binv
        assert eigs[3] == -(binv ** 3) * params.a1
        # nu=3 extra pair
        assert eigs[4] == binv ** 2
        assert eigs[5] == -(binv ** 4) * params.a1


def test_expand_in_basis_rejects_outside_span():
    from betaop import PiecewisePoly, Polynomial
    basis = make_psi_basis(GOLDEN, 2)
    cubic = PiecewisePoly.from_polynomial(Polynomial.from_rationals(
        [0, 0, 0, 1], GOLDEN))
    with pytest.raises(ValueError):
        expand_in_basis(cubic, basis)


def test_u_tilde_integrals_and_eigenrelations():
    for params in ALL_PARAMS_5:
        u1, u2, u3 = make_u_tilde(params)
        assert (u1.integrate() - 1).is_zero()
        assert u2.integrate().is_zero()
        assert u3.integrate().is_zero()
        binv = params.beta().inverse()
        lam2 = -(binv ** 2) * params.a1
        assert apply_transfer(u1).equal_ae(u1)
        assert apply_transfer(u2).equal_ae(u2.scaled(lam2))
        assert apply_transfer(u3).equal_ae(u3.scaled(binv))


def test_psi_integrals():
    for params in (GOLDEN, BetaParams(4, 3)):
        psi1, psi2, psi3, psi4 = make_psi_basis(params, 2)
        assert (psi1.integrate() - 1).is_zero()
        assert (psi2.integrate() - 1).is_zero()
        assert psi3.integrate().is_zero()
        assert psi4.integrate().is_zero()


def test_projection_columns_match_u_tilde():
    for params in ALL_PARAMS_5:
        data = riesz_projections(params)
        basis = make_psi_basis(params, 2)
        u1, u2, u3 = data.u_tilde
        pi1, pi2, pi3, _ = data.projections
        c1 = expand_in_basis(u1, basis)
        c3 = expand_in_basis(u3, basis)
        for i in range(4):
            assert (pi1[i][0] - c1[i]).is_zero()
            assert (pi3[i][2] - c3[i]).is_zero()
        # column 2 of pi2 relates to u2 through the sign convention of the
        # second basis vector: first column carries the u2 coefficients
        c2 = expand_in_basis(u2, basis)
        assert (pi2[0][0] - c2[0]).is_zero()
        assert (pi2[1][0] - c2[1]).is_zero()


def test_projection_algebra():
    for params in ALL_PARAMS_5:
        data = riesz_projections(params)
        m = restriction_matrix(make_psi_basis(params, 2))
        projs = data.projections
        z = mat_scale(m, params.zero())
        for i, pi in enumerate(projs):
            lam = data.eigenvalues[i]
            assert mat_equal(mat_mul(pi, pi), pi)
            assert mat_equal(mat_mul(m, pi), mat_scale(pi, lam))
            assert mat_equal(mat_mul(pi, m), mat_scale(pi, lam))
            for j, pj in enumerate(projs):
                if i != j:
                    assert mat_equal(mat_mul(pi, pj), z)


@pytest.mark.parametrize("a0,a1", [(1, 1), (2, 1), (3, 2), (5, 5)])
def test_every_spectral_check_holds(a0, a1):
    checks = riesz_projections(BetaParams(a0, a1)).checks()
    assert len(checks) == 7 and all(ok for _, ok in checks)


def test_spectral_checks_fail_on_swapped_eigenvalues():
    """A negative control: with lambda_2 and lambda_4 swapped, exactly the
    checks that read them fail, the u2 eigenrelation and the projection
    algebra; the matrix, projections and eigenfunctions stay as they were."""
    data = riesz_projections(BetaParams(2, 1))
    lam1, lam2, lam3, lam4 = data.eigenvalues
    checks = dataclasses.replace(data, eigenvalues=(lam1, lam4, lam3, lam2)).checks()
    assert [ok for _, ok in checks] == [True, False, True, True, True, True, False]
    assert [label for label, ok in checks if not ok] == [
        "P u2 = (-a1/beta^2) u2", "projection algebra on the 4x4 restriction matrix"]


def test_psi_residual_decay_rates():
    params = GOLDEN
    b = params.beta_float()
    psi = make_psi_basis(params, 2)
    # psi3 has integral 0 and jump 4, so the two-term residual is
    # P^r psi3 - beta^-r u3; it decays per step like a1/beta^2
    ups = two_term_residual_exact(psi[2], 14).residual_upper
    ratios = [y / x for x, y in zip(ups, ups[1:])][6:]
    assert np.mean(ratios) == pytest.approx(1 / b ** 2, abs=0.05)
    # psi4 has integral 0, so the one-term residual is P^r psi4 itself
    series = two_term_residual_exact(psi[3], 14, terms=1)
    slope = fit_slope(series.ks, series.residual_upper)
    assert slope == pytest.approx(-math.log(b), abs=0.1)
