"""Demo: the integer-base transfer operator and Bernoulli eigenfunctions.

For an integer base q the operator Q f(x) = (1/q) sum_j f((x+j)/q) has the
Bernoulli polynomials as exact eigenfunctions, Q B_n = q^-n B_n. For a
smooth F, subtracting the periodized-Bernoulli jump corrections of orders
< N from Q^k F leaves a residual of size q^{-Nk}; the fitted slope of the
log-residual recovers -N ln q.
"""

import math
from fractions import Fraction

import mpmath as mp

from betaop import (BetaParams, apply_integer_transfer, bernoulli_piecewise,
                    builtin, fit_slope, integer_base_expansion_residual)


def main() -> None:
    params = BetaParams(1, 1)  # the field is irrelevant for rational data
    print("eigenrelation Q B_n = q^-n B_n (exact):")
    for q in (2, 3, 4):
        ok = all(
            apply_integer_transfer(bernoulli_piecewise(params, n), q)
            .equal_ae(bernoulli_piecewise(params, n).scaled(Fraction(1, q ** n)))
            for n in range(7))
        print("   q=%d, n<=6: %s" % (q, ok))

    q, N = 2, 3
    F = builtin("sin")
    ks = list(range(6, 15))
    with mp.workdps(60):
        res = [integer_base_expansion_residual(F, q, k, N, 41)
               for k in ks]
    print("\nresiduals of the order-%d expansion of Q^k sin (q=%d):" % (N, q))
    for k, r in zip(ks, res):
        print("   k=%2d  residual %.6e" % (k, r))
    slope = fit_slope(ks, res)
    print("fitted slope %.4f vs -N ln q = %.4f" % (slope, -N * math.log(q)))


if __name__ == "__main__":
    main()
