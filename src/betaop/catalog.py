"""Built-in smooth test functions with analytic derivatives to arbitrary
order, exact antiderivatives, and mpmath evaluation at working precision.

Derivatives are supplied analytically rather than by finite differences, so
decay-rate measurements are not polluted by differentiation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .field import BetaParams
from .piecewise import PiecewisePoly, Polynomial, horner


@dataclass
class SmoothFunction:
    """A C^inf function on [0,1] with analytic derivative formulas."""

    name: str
    fn: Callable
    nth_derivative: Callable[[int], Callable]
    antiderivative: Optional[Callable] = None
    mp_fn: Optional[Callable] = None
    mp_nth_derivative: Optional[Callable[[int], Callable]] = None
    mp_antiderivative: Optional[Callable] = None
    qk_integer_transfer: Optional[Callable] = None
    piecewise_factory: Optional[Callable[[BetaParams], PiecewisePoly]] = None

    def __call__(self, x):
        return self.fn(x)

    def deriv_eval(self, order: int, x) -> float:
        if order == 0:
            return self.fn(x)
        return self.nth_derivative(order)(x)

    def mp_eval(self, x):
        return self.mp_fn(x)

    def mp_deriv_eval(self, order: int, x):
        if order == 0:
            return self.mp_eval(x)
        return self.mp_nth_derivative(order)(x)

    def integral(self, a: float, b: float) -> float:
        if self.antiderivative is not None:
            return self.antiderivative(b) - self.antiderivative(a)
        return float(self.mp_integral(a, b))

    def mp_integral(self, a, b):
        if self.mp_antiderivative is not None:
            return self.mp_antiderivative(b) - self.mp_antiderivative(a)
        import mpmath as mp
        return mp.quad(self.mp_eval, [a, b])

    def piecewise(self, params: BetaParams) -> PiecewisePoly:
        if self.piecewise_factory is None:
            raise ValueError("%s has no exact piecewise form" % self.name)
        return self.piecewise_factory(params)


def _poly_smooth(name: str, coeffs: list[Fraction]) -> SmoothFunction:
    """Polynomial entry; derivative formulas are exact coefficient shifts."""
    def deriv_coeffs(order: int) -> list[Fraction]:
        cs = list(coeffs)
        for _ in range(order):
            cs = [n * c for n, c in enumerate(cs)][1:]
        return cs

    def make_eval(cs):
        return partial(horner, [float(c) for c in cs])

    def make_mp_eval(cs):
        # integers over one denominator: mpf arithmetic at working precision
        den = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * den) for c in cs]
        return lambda x: horner(ints, x) / den

    anti = [Fraction(0)] + [c / (n + 1) for n, c in enumerate(coeffs)]

    def pw_factory(params: BetaParams) -> PiecewisePoly:
        return PiecewisePoly.from_polynomial(Polynomial.from_rationals(coeffs, params))

    return SmoothFunction(
        name=name,
        fn=make_eval(coeffs),
        nth_derivative=lambda order: make_eval(deriv_coeffs(order)),
        antiderivative=make_eval(anti),
        mp_fn=make_mp_eval(coeffs),
        mp_nth_derivative=lambda order: make_mp_eval(deriv_coeffs(order)),
        mp_antiderivative=make_mp_eval(anti),
        piecewise_factory=pw_factory,
    )


def _sin_cycle(order: int) -> Callable:
    return [math.sin, math.cos,
            lambda x: -math.sin(x), lambda x: -math.cos(x)][order % 4]


def _mp_sin_cycle(order: int) -> Callable:
    import mpmath as mp
    return [mp.sin, mp.cos, lambda x: -mp.sin(x), lambda x: -mp.cos(x)][order % 4]


def _sin_qk(x, q: int, k: int):
    # closed form: sum_{j<n} sin((x+j)h) = sin(xh + (1-h)/2) sin(1/2)/sin(h/2), h = 1/n
    import mpmath as mp
    h = mp.mpf(q) ** (-k)
    return h * mp.sin(x * h + (1 - h) / 2) * mp.sin(mp.mpf(1) / 2) / mp.sin(h / 2)


def _make_sin() -> SmoothFunction:
    return SmoothFunction(
        name="sin",
        fn=math.sin,
        nth_derivative=_sin_cycle,
        antiderivative=lambda x: -math.cos(x),
        mp_fn=lambda x: _mp_sin_cycle(0)(x),
        mp_nth_derivative=_mp_sin_cycle,
        mp_antiderivative=lambda x: -_mp_sin_cycle(1)(x),
        qk_integer_transfer=_sin_qk,
    )


def _make_sin_normalized() -> SmoothFunction:
    c = 1.0 / (1.0 - math.cos(1.0))

    def deriv(order: int) -> Callable:
        base = _sin_cycle(order)
        return lambda x: c * base(x)

    def mp_deriv(order: int) -> Callable:
        # c at working precision: 1/(1 - cos 1), cos being the order-1 entry
        return lambda x: _mp_sin_cycle(order)(x) / (1 - _mp_sin_cycle(1)(1))

    return SmoothFunction(
        name="sin-normalized",
        fn=lambda x: c * math.sin(x),
        nth_derivative=deriv,
        antiderivative=lambda x: -c * math.cos(x),
        mp_fn=mp_deriv(0),
        mp_nth_derivative=mp_deriv,
        mp_antiderivative=lambda x: -mp_deriv(1)(x),
    )


def _make_exp_normalized() -> SmoothFunction:
    c = 1.0 / (math.e - 1.0)
    f = lambda x: c * math.exp(x)

    def mp_f(x):
        import mpmath as mp
        return mp.e ** x / (mp.e - 1)

    return SmoothFunction(
        name="exp-normalized",
        fn=f,
        nth_derivative=lambda order: f,
        antiderivative=f,
        mp_fn=mp_f,
        mp_nth_derivative=lambda order: mp_f,
        mp_antiderivative=mp_f,
    )


def builtin(name: str) -> SmoothFunction:
    """Look up a built-in test function by CLI name."""
    try:
        return _CATALOG[name]()
    except KeyError:
        raise KeyError("unknown built-in function %r; choose from %s"
                       % (name, sorted(_CATALOG))) from None


_CATALOG = {
    "psi1": lambda: _poly_smooth("psi1", [Fraction(1)]),
    "psi3": lambda: _poly_smooth("psi3", [Fraction(-2), Fraction(4)]),
    "linear": lambda: _poly_smooth("linear", [Fraction(0), Fraction(2)]),
    "quadratic": lambda: _poly_smooth("quadratic", [Fraction(0), Fraction(0), Fraction(3)]),
    "cubic": lambda: _poly_smooth("cubic", [Fraction(0), Fraction(0), Fraction(0), Fraction(4)]),
    "exp-normalized": _make_exp_normalized,
    "sin-normalized": _make_sin_normalized,
    "sin": _make_sin,
}
