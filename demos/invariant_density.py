"""Demo: the Parry invariant density and its companion eigenfunctions.

For beta with beta^2 = a0*beta + a1 the transfer operator of the greedy
beta-map has three distinguished eigenfunctions inside a 4-dimensional
invariant subspace of piecewise polynomials:

    P u1 = u1            (invariant density, integral 1)
    P u2 = (-a1/beta^2) u2
    P u3 = (1/beta) u3

All identities below are verified in exact arithmetic over Q(beta).
"""

from fractions import Fraction

from betaop import BetaParams, riesz_projections


def main() -> None:
    for a0, a1 in ((1, 1), (2, 1), (3, 2)):
        params = BetaParams(a0, a1)
        beta = params.beta()
        print("=== a0=%d a1=%d  (beta = %s ~ %s)" % (
            a0, a1, beta.to_string(), beta.to_decimal(10)))
        data = riesz_projections(params)
        for label, ok in data.checks()[:6]:
            print("  %-26s %s" % (label, "exact" if ok else "FAILED"))
        # the density is piecewise constant with a single jump at a1/beta
        cut = data.eigenvalues[2] * a1
        u1 = data.u_tilde[0]
        lo = u1.eval(cut * Fraction(1, 2))
        hi = u1.eval((cut + 1) * Fraction(1, 2))
        print("  u1 on [0, a1/beta)  = %s ~ %s" % (lo.to_string(), lo.to_decimal(10)))
        print("  u1 on (a1/beta, 1]  = %s ~ %s" % (hi.to_string(), hi.to_decimal(10)))
        print()


if __name__ == "__main__":
    main()
