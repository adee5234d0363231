"""Polynomials in |t| and t: the algebra of the regime criteria and, as a
`PolyFunc` subclass, the `Nonlinearity` the dynamics evaluate, so that a
certificate is about the polynomial the integrator runs."""

from __future__ import annotations

import math

import numpy as np

_PRUNE = 1e-13


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
        self._prune()

    def _prune(self):
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
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape)
        a_abs = np.abs(tau)
        for (a, b), c in self.terms.items():
            if a >= 0.0:
                base = a_abs ** a
            else:
                # |t|^a t^b at t = 0 is read as 0 for a negative power
                with np.errstate(divide="ignore", invalid="ignore"):
                    base = np.where(a_abs > 0, a_abs ** a, 0.0)
            out += c * base * (tau if b else 1.0)
        return out if out.shape else float(out)

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

    @property
    def is_zero(self) -> bool:
        return not self.terms


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
    def zero(cls) -> "Nonlinearity":
        return cls()

    @classmethod
    def power(cls, coef: float, exponent: float) -> "Nonlinearity":
        """coef * |t|^exponent * t; exponent 2 with coef 1 is t^3."""
        return cls(terms=((float(coef), float(exponent)),))

    @classmethod
    def linear(cls, coef: float) -> "Nonlinearity":
        return cls.power(coef, 0.0)

    @property
    def growth(self) -> tuple[float, float]:
        """(exponent, coefficient) of the top odd term, which fixes the
        growth at infinity; (0, 0) when there is no nonzero odd term."""
        live = [(e, c) for (e, b), c in self.terms.items() if b and c != 0.0]
        return max(live, default=(0.0, 0.0))

    def local_slope_bound(self, radius: float) -> float:
        """Upper bound on |f'| over [-radius, radius]: term-wise triangle
        inequality, so sign cancellations between terms are ignored."""
        r = abs(radius)
        return float(sum(abs(c) * (e + 1.0) * r ** e
                         for (e, b), c in self.terms.items() if b))
