"""Demo: two-term asymptotics of P^k F and the exact counterexample.

For smooth F the iterates satisfy

    P^k F = u1 * integral(F) + beta^{-k} u3 (F(1)-F(0))/4 + o(beta^{-k}),

so subtracting both displayed terms should reveal a residual decaying
faster than beta^{-k}. The indicator F = chi_[0,1] shows the expansion is
sharp in a different way: P^k chi = u1 + (-a1/beta^2)^k u2 *exactly*, with
no beta^{-k} term at all (its boundary jump vanishes).
"""

import math

from betaop import (BetaParams, apply_transfer, builtin, make_psi_basis,
                    riesz_projections, two_term_residual_exact,
                    two_term_residual_numeric)


def main() -> None:
    params = BetaParams(1, 1)
    b = params.beta_float()
    print("golden ratio beta ~ %.10f, ln beta ~ %.6f" % (b, math.log(b)))

    print("\nexact counterexample: P^k chi - u1 - (-1/beta^2)^k u2 == 0")
    psi1 = make_psi_basis(params, 2)[0]
    data = riesz_projections(params)
    u1, u2, _ = data.u_tilde
    lam = data.eigenvalues[1]
    cur, lam_k = psi1, params.one()
    for k in range(1, 13):
        cur = apply_transfer(cur)
        lam_k = lam_k * lam
        assert cur.equal_ae(u1 + u2.scaled(lam_k))
    print("  verified exactly for k = 1..12")

    print("\ntwo-term residual slopes (expect <= -(8/7) ln beta ~ %.4f):"
          % (-(8 / 7) * math.log(b)))
    for name in ("linear", "quadratic"):
        series = two_term_residual_exact(builtin(name).piecewise(params), 16)
        print("  F = %-14s slope %.4f  (exact engine)" % (name, series.fitted_slope))
    series = two_term_residual_numeric(builtin("exp-normalized"), params,
                                       range(1, 19))
    print("  F = %-14s slope %.4f  (preimage-tree engine)" % (
        "exp-normalized", series.fitted_slope))

    one = two_term_residual_exact(builtin("linear").piecewise(params), 16, terms=1)
    print("\none-term residual (u3 term left in): slope %.4f ~ -ln beta = %.4f"
          % (one.fitted_slope, -math.log(b)))
    print("the slowdown to beta^{-k} confirms the u3 term is real.")


if __name__ == "__main__":
    main()
