"""The 1-D curve-fitting counterexample: the iteration converges linearly, never superlinearly.

A test helper, not library code: criterion 10 of the acceptance suite and
``test_oracle.py`` import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rklqr import ilqr
from rklqr.errors import OracleFailure

CURVE_TOL = 1e-10  # the curve demo stops once |Y| is below this


@dataclass(frozen=True, eq=False)
class ScalarCurveTrace:
    """Iterates of the 1-D curve-fitting demo (closest point to the origin)."""

    us: np.ndarray
    js: np.ndarray
    alphas: np.ndarray
    converged: bool


def scalar_curve_demo(u0: float, max_iter=100, force_full_step=False) -> ScalarCurveTrace:
    """Minimize 1/2 x^2 + 1/2 u^2 on the curve x = u^2 + 1 by the same iteration.

    The closest point to the origin is u* = 0.  Steps follow
    u <- u - alpha Y(u)/W(u) with W = 1 + g'(u)^2 and Y = j'(u), Armijo
    backtracking with the solver's ARMIJO_C1 unless force_full_step pins
    alpha = 1, until |Y| < CURVE_TOL or max_iter steps.  The curvature gap
    |j'' - W| = |g'' g| = 2 at u* keeps the contraction ratio bounded away
    from zero, so convergence is linear, never superlinear.

    j(u) = 1/2 u^4 + 3/2 u^2 + 1/2, so the Armijo decrease is evaluated in
    the expanded difference form j(c) - j(u); subtracting the constant 1/2
    inside the comparison would otherwise drown the decrease in roundoff
    once u^2 falls below the ulp of j.
    """

    def j(u):
        return 0.5 * u**4 + 1.5 * u * u + 0.5

    def jdiff(c, u):
        return 0.5 * (c**4 - u**4) + 1.5 * (c * c - u * u)

    def jprime(u):
        return 2.0 * u**3 + 3.0 * u

    u = float(u0)
    us, js, alphas = [u], [j(u)], []
    converged = False
    for _ in range(max_iter):
        Y = jprime(u)
        if abs(Y) < CURVE_TOL:
            converged = True
            break
        W = 1.0 + (2.0 * u) ** 2
        d = -Y / W
        alpha = 1.0
        while not force_full_step and jdiff(u + alpha * d, u) > ilqr.ARMIJO_C1 * alpha * Y * d:
            alpha *= 0.5
            if alpha < 2.0**-30:
                raise OracleFailure("curve demo line search failed")
        u = u + alpha * d
        us.append(u)
        js.append(j(u))
        alphas.append(alpha)
    return ScalarCurveTrace(
        us=np.array(us), js=np.array(js), alphas=np.array(alphas), converged=converged
    )
