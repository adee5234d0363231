"""Brent's bounded scalar minimiser, ported from scipy.optimize.

The regime certificates refine each sup with it.  Importing scipy.optimize
for this one routine loaded 171 more modules in every process, about 0.2 s
of start-up, modes that never classify included.  The port lives outside
`regimes` so that the benchmark tracer (perfbench/tracing.py), which wraps
each public function of the modules it lists and then
`regimes.minimize_scalar` by name, counts each call once.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class ScalarMinimum(NamedTuple):
    x: float
    fun: float


def _sign(r: float) -> float:
    """np.sign(r) + (r == 0): +1 at 0 and -0.0, NaN at NaN."""
    return 1.0 if r >= 0.0 else -1.0 if r < 0.0 else r


def minimize_scalar(fun, bounds, method: str = "bounded",
                    options: dict | None = None) -> ScalarMinimum:
    """Brent's bounded minimiser of fun on [lo, hi] (Brent 1973, ch. 5),
    step for step as scipy.optimize.minimize_scalar(method="bounded") takes
    it, so x and fun are the same bit for bit; options takes "xatol"
    (default 1e-5)."""
    if method != "bounded":
        raise ValueError(f"method {method!r}: only 'bounded' is ported")
    xatol = (options or {}).get("xatol", 1e-5)
    a, b = bounds
    if not a <= b:
        raise ValueError(f"bounds {bounds}: the lower bound exceeds the upper")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:            # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        # np.maximum would propagate a NaN; max need not: a NaN rat makes
        # _sign(rat) NaN, and tol1 is NaN only with xf (a NaN xatol ends the
        # loop before it starts), so x is NaN either way
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:               # scipy's default maxiter
            break
    return ScalarMinimum(x=xf, fun=fx)
