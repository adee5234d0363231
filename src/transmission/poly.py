"""Polynomials in |t| and t: the algebra of the regime criteria and, as a
`PolyFunc` subclass, the `Nonlinearity` the dynamics evaluate, so that a
certificate is about the polynomial the integrator runs."""

from __future__ import annotations

import math

import numpy as np

_PRUNE = 1e-13


def _abs_power(tau: np.ndarray, a: float, powers: dict) -> np.ndarray:
    """|tau|**a for a != 0, kept in `powers` by exponent: tau*tau for 2 (numpy's
    pow bit for bit), |tau|**(a-2) * tau*tau for the integers 3..8 (within a
    few ulp of pow), |tau| only when needed, numpy's pow for any other a and
    0 at t = 0 for a negative a."""
    if a not in powers:
        if a == 1.0:
            powers[a] = np.abs(tau)
        elif a == 2.0:
            powers[a] = tau * tau
        elif a in range(3, 9):
            powers[a] = _abs_power(tau, a - 2.0, powers) * _abs_power(tau, 2.0, powers)
        else:
            a_abs = _abs_power(tau, 1.0, powers)
            with np.errstate(divide="ignore", invalid="ignore"):
                powers[a] = a_abs ** a if a > 0.0 else np.where(a_abs > 0, a_abs ** a, 0.0)
    return powers[a]


class PolyFunc:
    """Exact algebra on spans of |t|^a * t^b with b in {0, 1}.

    Closed under the operations the criteria need: sums, products,
    derivative, antiderivative, multiplication by t.  The leading pair
    (total degree a + b, coefficient) decides tail behavior exactly.
    """

    def __init__(self, terms: dict[tuple[float, int], float] | None = None):
        self.terms: dict[tuple[float, int], float] = {}
        for (a, b), c in (terms or {}).items():
            if c == 0.0:
                continue
            a, b = float(a), int(b)
            while b >= 2:          # t^2 == |t|^2
                a, b = a + 2.0, b - 2
            key = (a, b)
            self.terms[key] = self.terms.get(key, 0.0) + c
        scale = max((abs(c) for c in self.terms.values()), default=0.0)
        self.terms = {k: c for k, c in self.terms.items()
                      if abs(c) > _PRUNE * max(scale, 1.0)}

    # ---- algebra ----
    def __add__(self, other: "PolyFunc") -> "PolyFunc":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolyFunc(out)

    def __sub__(self, other: "PolyFunc") -> "PolyFunc":
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "PolyFunc":
        return PolyFunc({k: c * s for k, c in self.terms.items()})

    def times_tau(self) -> "PolyFunc":
        return PolyFunc({(a, b + 1): c for (a, b), c in self.terms.items()})

    def __mul__(self, other: "PolyFunc") -> "PolyFunc":
        out: dict[tuple[float, int], float] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyFunc(out)

    def square(self) -> "PolyFunc":
        return self * self

    def derivative(self) -> "PolyFunc":
        out: dict[tuple[float, int], float] = {}
        for (a, b), c in self.terms.items():
            if b == 1:
                key = (a, 0)
                out[key] = out.get(key, 0.0) + c * (a + 1.0)
            elif a != 0.0:
                key = (a - 2.0, 1)
                out[key] = out.get(key, 0.0) + c * a
        return PolyFunc(out)

    def antiderivative(self) -> "PolyFunc":
        """The antiderivative vanishing at 0."""
        out: dict[tuple[float, int], float] = {}
        for (a, b), c in self.terms.items():
            if b == 1:
                out[(a + 2.0, 0)] = out.get((a + 2.0, 0), 0.0) + c / (a + 2.0)
            else:
                out[(a, 1)] = out.get((a, 1), 0.0) + c / (a + 1.0)
        return PolyFunc(out)

    def __call__(self, tau):
        """The terms at tau (a float at a scalar), summed from the first in
        the order of `terms`; each |t|**a is taken once per call by
        _abs_power, and a coefficient of 1 multiplies nothing."""
        tau = np.asarray(tau, dtype=float)
        powers: dict[float, np.ndarray] = {}
        out = None
        for (a, b), c in self.terms.items():
            term = _abs_power(tau, a, powers) if a else tau if b else np.ones(tau.shape)
            if c != 1.0:
                term = c * term
            if a and b:
                term = term * tau
            out = term if out is None else out + term
        # no term, or the single term t: the caller's array is not the result
        if out is None or out is tau:
            out = np.zeros(tau.shape) if out is None else tau.copy()
        return out if out.shape else float(out)

    def _dot(self, weights: np.ndarray, tau: np.ndarray) -> float:
        """sum_i weights_i * self(tau_i), one dot product per term, the terms
        summed from the first in the order of `terms`; each |t|**a is taken
        once per call by _abs_power."""
        powers: dict[float, np.ndarray] = {}
        total = 0.0
        for (a, b), c in self.terms.items():
            if a:
                term = _abs_power(tau, a, powers)
                term = term * tau if b else term
            else:
                term = tau if b else np.ones(tau.shape)
            total += c * float(np.dot(weights, term))
        return total

    def leading(self) -> tuple[float, float]:
        """(total degree, coefficient); (0, 0) for the zero function."""
        if not self.terms:
            return (0.0, 0.0)
        deg = max(a + b for (a, b) in self.terms)
        coeff = sum(c for (a, b), c in self.terms.items() if a + b == deg)
        if abs(coeff) <= _PRUNE:
            rest = PolyFunc({k: c for k, c in self.terms.items() if k[0] + k[1] < deg})
            return rest.leading()
        return (deg, coeff)

    def coeff_at(self, degree: float) -> float:
        return sum(c for (a, b), c in self.terms.items()
                   if abs(a + b - degree) < 1e-12)


class Nonlinearity(PolyFunc):
    """Odd-power polynomial nonlinearity constant + sum_k c_k |t|^{e_k} t
    with finite coefficients and finite exponents >= 0.

    Coefficients of a repeated exponent are summed and none is pruned: f(t)
    adds the constant (when nonzero) first, then each term as given.
    """

    def __init__(self, terms: tuple[tuple[float, float], ...] = (),
                 constant: float = 0.0):
        self.terms = {}
        if not math.isfinite(constant):
            raise ValueError(f"constant {constant} is not finite")
        if constant:
            self.terms[(0.0, 0)] = float(constant)
        for c, e in terms:
            if not (math.isfinite(c) and 0.0 <= e < math.inf):
                raise ValueError(f"term {c}:{e}: need a finite coefficient "
                                 "and a finite exponent >= 0")
            key = (float(e), 1)
            self.terms[key] = self.terms.get(key, 0.0) + float(c)

    @classmethod
    def power(cls, coef: float, exponent: float) -> "Nonlinearity":
        """coef * |t|^exponent * t; exponent 2 with coef 1 is t^3."""
        return cls(terms=((float(coef), float(exponent)),))

    @property
    def growth(self) -> tuple[float, float]:
        """(exponent, coefficient) of the top odd term, which fixes the
        growth at infinity; (0, 0) when there is no nonzero odd term."""
        live = [(e, c) for (e, b), c in self.terms.items() if b and c != 0.0]
        return max(live, default=(0.0, 0.0))
