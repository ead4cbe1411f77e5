"""Demo: the 4x4 restriction matrix of the transfer operator and its exact
Riesz projections.

On the span of the psi basis (indicator, rescaled indicator, and their
Bernoulli-B1 analogues) the operator acts as an upper block-triangular 4x4
matrix over Q(beta). Its eigenvalues come in the pairs beta^{1-k} and
-a1*beta^{-k-1}; the four spectral projections come from Sylvester's
formula on the exact matrix, and their algebra is verified symbol-for-symbol.
"""

from betaop import BetaParams, block_eigenvalues, riesz_projections
from betaop.spectral import mat_equal, mat_mul, mat_scale


def show_matrix(title, m):
    print(title)
    for row in m:
        print("   [" + ", ".join("%14s" % e.to_string() for e in row) + "]")


def main() -> None:
    params = BetaParams(1, 1)  # golden ratio
    data = riesz_projections(params)
    m4 = data.matrix
    show_matrix("restriction matrix P4 (golden ratio):", m4)

    print("\nblock eigenvalues for nu <= 3:")
    for lam in block_eigenvalues(params, 3):
        print("   %-14s ~ %s" % (lam.to_string(), lam.to_decimal(12)))

    print("\nprojection algebra (all exact):")
    for i, pi in enumerate(data.projections, start=1):
        lam = data.eigenvalues[i - 1]
        idem = mat_equal(mat_mul(pi, pi), pi)
        inter = mat_equal(mat_mul(m4, pi), mat_scale(pi, lam))
        print("   Pi%d^2 = Pi%d: %-5s   P4 Pi%d = lambda%d Pi%d: %s" % (
            i, i, idem, i, i, i, inter))
    for i, pi in enumerate(data.projections):
        for j, pj in enumerate(data.projections):
            if i != j:
                assert mat_equal(mat_mul(pi, pj), mat_scale(pi, params.zero()))
    print("   Pi_i Pi_j = 0 for i != j: True")

    show_matrix("\nPi1 (column 1 holds the u1 coefficients):", data.projections[0])
    show_matrix("Pi3 (column 3 holds the u3 coefficients):", data.projections[2])


if __name__ == "__main__":
    main()
