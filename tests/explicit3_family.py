"""The one-parameter 3-stage explicit family of third OCP order.

A test helper, not library code: ``test_tableau.py`` and criterion 13 of
the acceptance suite import it.
"""

from __future__ import annotations

from rklqr.errors import SolverError
from rklqr.tableau import ButcherTableau


class DegenerateFamily(SolverError):
    """Family parameter hits a pole of the coefficient formulas."""


def explicit3_family(c2: float) -> ButcherTableau:
    """Member of the one-parameter 3-stage explicit family with third OCP order.

    Abscissae are (0, c2, 1); c2 in {0, 2/3, 1} makes a denominator vanish.
    The weights are positive, and ``ocp_order`` is 3, only for c2 in
    (1/3, 2/3).  c2 = 1/2 recovers methodB.
    """
    c2 = float(c2)
    for pole in (0.0, 2.0 / 3.0, 1.0):
        if abs(c2 - pole) < 1e-12:
            raise DegenerateFamily(f"c2 = {c2!r} is a pole of the family")
    a31 = (3 * c2 - 1 - 3 * c2**2) / (c2 * (2 - 3 * c2))
    a32 = (1 - c2) / (c2 * (2 - 3 * c2))
    b1 = (c2 - 1 / 3) / (2 * c2)
    b2 = 1 / (6 * c2 * (1 - c2))
    b3 = (2 - 3 * c2) / (6 * (1 - c2))
    return ButcherTableau(
        a=[[0, 0, 0], [c2, 0, 0], [a31, a32, 0]],
        b=[b1, b2, b3],
        name=f"explicit3(c2={c2:g})",
    )
