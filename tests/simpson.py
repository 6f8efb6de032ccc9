"""Adaptive-Simpson quadrature of the primary hazard integral: an oracle
for the closed forms in `quakesim.model`, independent of them (it reads
only phi itself).  Import it from a test module as

    from simpson import cumulative_hazard_numeric
"""

import numpy as np

from quakesim.model import PhiSpec, phi_eval

_QUADRATURE_TOL = 1e-12  # relative tolerance of cumulative_hazard_numeric


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int, fa, fm, fb, whole):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, depth - 1, fa, flm, fm, left) + _adaptive_simpson(
        f, m, b, tol / 2.0, depth - 1, fm, frm, fb, right
    )


def cumulative_hazard_numeric(phi: PhiSpec, x: float, c: float, t: float) -> float:
    """Adaptive-Simpson quadrature of the primary hazard integral.

    Reference path only: tests use it as an independent oracle for
    `cumulative_hazard_primary`; production code always takes the closed
    form.  The tolerance _QUADRATURE_TOL is relative to a coarse estimate
    of the integral, so that large-magnitude hazards are handled sensibly.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0

    def f(v: float) -> float:
        return phi_eval(phi, x + c * v)

    # coarse pass over 16 panels seeds the error scale and guards against
    # the integrand being zero at the probe points of a single panel
    edges = np.linspace(0.0, t, 17)
    vals = [f(e) for e in edges]
    coarse = 0.0
    for i in range(16):
        coarse += (edges[i + 1] - edges[i]) / 6.0 * (
            vals[i] + 4.0 * f(0.5 * (edges[i] + edges[i + 1])) + vals[i + 1]
        )
    eps = _QUADRATURE_TOL * max(1.0, abs(coarse))
    total = 0.0
    for i in range(16):
        a, b = float(edges[i]), float(edges[i + 1])
        fa, fb = vals[i], vals[i + 1]
        fm = f(0.5 * (a + b))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _adaptive_simpson(f, a, b, eps / 16.0, 48, fa, fm, fb, whole)
    return total
