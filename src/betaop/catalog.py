"""Built-in smooth test functions with analytic derivatives to arbitrary
order and exact antiderivatives, each written once over a math library:
the `math` module for floats, `mpmath` for working precision.

Derivatives are supplied analytically rather than by finite differences, so
decay-rate measurements are not polluted by differentiation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import ModuleType
from typing import Callable, Optional

from .field import BetaParams
from .piecewise import PiecewisePoly, Polynomial, horner


@dataclass
class SmoothFunction:
    """A C^inf function on [0,1] with analytic derivative formulas.

    derivative(lib, order) is the order-th derivative of F built from lib
    (`math` or `mpmath`); order -1 is an antiderivative. Fetch a form once
    and call it many times: an mpmath form computes its constants at the
    working precision of the fetch."""

    name: str
    derivative: Callable[[ModuleType, int], Callable]
    qk_integer_transfer: Optional[Callable] = None
    piecewise_factory: Optional[Callable[[BetaParams], PiecewisePoly]] = None

    def __post_init__(self):
        self._fn = self.derivative(math, 0)

    def __call__(self, x):
        return self._fn(x)

    def piecewise(self, params: BetaParams) -> PiecewisePoly:
        if self.piecewise_factory is None:
            raise ValueError("%s has no exact piecewise form; "
                             "use asymptotics --engine numeric" % self.name)
        return self.piecewise_factory(params)


def _poly_smooth(name: str, coeffs: list[Fraction]) -> SmoothFunction:
    """Polynomial entry; derivative formulas are exact coefficient shifts."""
    anti = [Fraction(0)] + [c / (n + 1) for n, c in enumerate(coeffs)]

    def derivative(lib: ModuleType, order: int) -> Callable:
        if order < -1:
            raise ValueError("order must be >= -1, got %d" % order)
        cs = anti if order == -1 else coeffs
        for _ in range(order):
            cs = [n * c for n, c in enumerate(cs)][1:]
        if lib is math:
            # float coefficients: vectorised over arrays, rounded as np.polyval
            return partial(horner, [float(c) for c in cs])
        # integers over one denominator: mpf arithmetic at working precision
        den = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * den) for c in cs]
        return lambda x: horner(ints, x) / den

    def pw_factory(params: BetaParams) -> PiecewisePoly:
        return PiecewisePoly.from_polynomial(Polynomial.from_rationals(coeffs, params))

    return SmoothFunction(name, derivative, piecewise_factory=pw_factory)


def _sin(lib: ModuleType, order: int) -> Callable:
    return (lib.sin, lib.cos, lambda x: -lib.sin(x), lambda x: -lib.cos(x))[order % 4]


def _sin_normalized(lib: ModuleType, order: int) -> Callable:
    c = 1 / (1 - lib.cos(1))
    base = _sin(lib, order)
    return lambda x: c * base(x)


def _exp_normalized(lib: ModuleType, order: int) -> Callable:
    c = 1 / (lib.e - 1)
    return lambda x: c * lib.exp(x)


def _sin_qk(x, q: int, k: int):
    # closed form: sum_{j<n} sin((x+j)h) = sin(xh + (1-h)/2) sin(1/2)/sin(h/2), h = 1/n
    import mpmath as mp
    h = mp.mpf(q) ** (-k)
    return h * mp.sin(x * h + (1 - h) / 2) * mp.sin(mp.mpf(1) / 2) / mp.sin(h / 2)


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
    "exp-normalized": lambda: SmoothFunction("exp-normalized", _exp_normalized),
    "sin-normalized": lambda: SmoothFunction("sin-normalized", _sin_normalized),
    "sin": lambda: SmoothFunction("sin", _sin, qk_integer_transfer=_sin_qk),
}
