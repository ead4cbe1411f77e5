"""The psi-basis of invariant subspaces, restriction matrices of the transfer
operator on span{psi_1,...,psi_2nu}, their block eigenvalues, and for nu=2
the Riesz projections (Sylvester's formula on the exact restriction matrix)
with the three distinguished eigenfunctions u1, u2, u3 they encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bernoulli import MAX_BERNOULLI_DEGREE, bernoulli_polynomial
from .field import BetaParams, QuadNum
from .piecewise import PiecewisePoly, Polynomial, combine
from .transfer import apply_transfer

Matrix = tuple[tuple[QuadNum, ...], ...]


# -- small exact matrix helpers ------------------------------------------------

def mat_eye(params: BetaParams, n: int) -> Matrix:
    zero, one = params.zero(), params.one()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: QuadNum) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_equal(a, b) -> bool:
    """Entrywise equality; either side may be a list of lists."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- psi basis ---------------------------------------------------------------

def make_psi_basis(params: BetaParams, nu: int) -> tuple[PiecewisePoly, ...]:
    """The tuple psi_1, ..., psi_2nu: psi_{2s+1} = c_s B_s on [0,1] and
    psi_{2s+2} = c_s (beta/a1) B_s(beta x / a1) on [0, a1/beta], s < nu.

    c_1 = 4 = 1/||B_1||_1, the paper's factor, and c_s = 1 otherwise, so
    the basis for nu is the first 2nu functions of the basis for nu + 1."""
    if not 1 <= nu <= MAX_BERNOULLI_DEGREE + 1:  # B_s for s < nu
        raise ValueError("nu must be in [1, %d], got %d" % (MAX_BERNOULLI_DEGREE + 1, nu))
    cut = params.power(-1) * params.a1
    ratio = params.power(1) / params.a1
    funcs = []
    for s in range(nu):
        bs = bernoulli_polynomial(params, s)
        factor = params.rational(4 if s == 1 else 1)
        odd = PiecewisePoly.from_polynomial(bs.scaled(factor))
        even_poly = bs.compose_affine(ratio, params.zero(), factor * ratio)
        even = PiecewisePoly.on_interval(even_poly, params.zero(), cut)
        funcs.extend([odd, even])
    return tuple(funcs)


def expand_in_basis(g: PiecewisePoly, basis: tuple[PiecewisePoly, ...]) -> list[QuadNum]:
    """Exact coordinates of g in span{psi_1,...,psi_2nu}, the tuple that
    make_psi_basis returns; nu is half its length.

    One triangular solve graded by degree, run twice: on (a1/beta, 1) only
    the odd basis functions are supported, which fixes the odd coordinates;
    once those are subtracted, the even ones follow on (0, a1/beta). Raises
    if g is not in the span."""
    params = g.params
    nu = len(basis) // 2
    cut = params.power(-1) * params.a1
    zero = params.zero()

    def poly_coeff(poly: Polynomial, deg: int) -> QuadNum:
        return poly.coeffs[deg] if deg < len(poly.num) else zero

    coords = [zero] * (2 * nu)
    h = g
    for parity, (a, b) in enumerate(((cut, params.one()), (zero, cut))):
        residual = h._piece_on(a, b)
        for s in range(nu - 1, -1, -1):
            basis_poly = basis[2 * s + parity]._piece_on(a, b)
            coeff = poly_coeff(residual, s) / poly_coeff(basis_poly, s)
            coords[2 * s + parity] = coeff
            residual = residual - basis_poly.scaled(coeff)
        for s in range(nu):
            if not coords[2 * s + parity].is_zero():
                h = h - basis[2 * s + parity].scaled(coords[2 * s + parity])
    if not h.is_zero():
        raise ValueError("function is not in the span of the psi basis")
    return coords


def restriction_matrix(basis: tuple[PiecewisePoly, ...]) -> Matrix:
    """Matrix of the transfer operator on the psi span, exact: column j
    holds the psi-expansion of P(psi_j)."""
    return tuple(zip(*(expand_in_basis(apply_transfer(f), basis) for f in basis)))


def block_eigenvalues(params: BetaParams, nu: int) -> list[QuadNum]:
    """Closed-form eigenvalues beta^{1-k}, -a1*beta^{-k-1} of the k-th 2x2
    diagonal block of the restriction matrix, for k = 1..nu."""
    if nu < 1:
        raise ValueError("nu must be >= 1, got %d" % nu)
    out = []
    for k in range(1, nu + 1):
        out.extend([params.power(1 - k), -params.power(-k - 1) * params.a1])
    return out


# -- Riesz projections and eigenfunctions (nu = 2) ------------------------------

def sylvester_projections(m: Matrix, eigenvalues: list[QuadNum]) -> list[Matrix]:
    """Frobenius covariants Pi_i = prod_{j != i} (M - lam_j I)/(lam_i - lam_j)
    (Sylvester's formula): the Riesz projections of a diagonalisable M whose
    distinct eigenvalues are exactly `eigenvalues`."""
    eye = mat_eye(m[0][0].params, len(m))
    shifted = [mat_sub(m, mat_scale(eye, lam)) for lam in eigenvalues]
    projections = []
    for i, lam_i in enumerate(eigenvalues):
        pi = eye
        for j, lam_j in enumerate(eigenvalues):
            if j != i:
                pi = mat_scale(mat_mul(pi, shifted[j]), (lam_i - lam_j).inverse())
        projections.append(pi)
    return projections


@dataclass(frozen=True)
class SpectralData:
    """nu=2 spectral payload: the 4x4 restriction matrix on psi_1..psi_4, its
    eigenvalues, their Riesz projections and the eigenfunctions they encode."""

    params: BetaParams
    eigenvalues: tuple[QuadNum, ...]
    matrix: Matrix
    projections: tuple[Matrix, ...]
    u_tilde: tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]

    def checks(self) -> list[tuple[str, bool]]:
        """The (label, holds) pairs that eigen-check prints, decided exactly; the
        algebra is Pi_i Pi_j = [i = j] Pi_i and M Pi_i = Pi_i M = lam_i Pi_i."""
        _, lam2, binv, _ = self.eigenvalues
        (u1, u2, u3), m, projs = self.u_tilde, self.matrix, self.projections
        zero = mat_scale(m, self.params.zero())
        algebra = all(mat_equal(mat_mul(pi, pj), pi if i == j else zero)
                      for i, pi in enumerate(projs) for j, pj in enumerate(projs))
        algebra &= all(mat_equal(mat_mul(a, b), mat_scale(pi, lam))
                       for pi, lam in zip(projs, self.eigenvalues) for a, b in ((m, pi), (pi, m)))
        return [("P u1 = u1", apply_transfer(u1).equal_ae(u1)),
                ("P u2 = (-a1/beta^2) u2", apply_transfer(u2).equal_ae(u2.scaled(lam2))),
                ("P u3 = (1/beta) u3", apply_transfer(u3).equal_ae(u3.scaled(binv))),
                ("integral u1 = 1", u1.integrate() == 1),
                ("integral u2 = 0", u2.integrate() == 0),
                ("integral u3 = 0", u3.integrate() == 0),
                ("projection algebra on the 4x4 restriction matrix", algebra)]


@lru_cache(maxsize=None)
def riesz_projections(params: BetaParams) -> SpectralData:
    """Projections onto the eigenvalues 1, -a1/beta^2, 1/beta, -a1/beta^3 of
    the 4x4 restriction matrix, from Sylvester's formula; cached per params.

    u1, u2, u3 are the psi-combinations given by column 1 of Pi1, column 1
    of Pi2 and column 3 of Pi3."""
    basis = make_psi_basis(params, 2)
    matrix = restriction_matrix(basis)
    eigs = block_eigenvalues(params, 2)
    projections = sylvester_projections(matrix, eigs)
    u_tilde = tuple(combine([(pi[row][col], f) for row, f in enumerate(basis)])
                    for pi, col in zip(projections, (0, 0, 2)))
    return SpectralData(params=params, eigenvalues=tuple(eigs), matrix=matrix,
                        projections=tuple(projections), u_tilde=u_tilde)


def make_u_tilde(params: BetaParams) -> tuple[PiecewisePoly, PiecewisePoly, PiecewisePoly]:
    """The eigenfunctions u1 (invariant density), u2, u3 as combinations of
    psi_1..psi_4."""
    return riesz_projections(params).u_tilde
