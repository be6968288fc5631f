"""Runge-Kutta tableaus, their symplectic adjoint pairs, and stage order checks.

A tableau (a, b, c) discretizes the state; its adjoint partner
abar_ij = b_j - b_j a_ji / b_i propagates the costate so that the pair is
symplectic.  Internal-stage control accuracy is governed by how far the
simplifying conditions

    sum_j a_ij    c_j^(l-2) = c_i^(l-1) / (l-1)     (forward,  order q1)
    sum_j abar_ij c_j^(l-2) = c_i^(l-1) / (l-1)     (adjoint,  order q2)

hold, together with the abscissa match c_i == cbar_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdjointUndefined, DegenerateFamily, NotFound

COEFF_TOL = 1e-14
ORDER_COND_TOL = 1e-12
CC_MATCH_TOL = 1e-12

#: OCP convergence order of each builtin method (node-value accuracy of the
#: symplectic pair).  Supplied to stage_orders / the CLI; not re-derived here.
BUILTIN_ORDERS = {
    "euler": 1,
    "methodA": 2,
    "methodB": 3,
    "methodC": 4,
    "trapezoidal": 2,
}


def _frozen(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (a, b, c) of an s-stage Runge-Kutta method.

    c is always recomputed as the row sums of a; a caller-supplied c is only
    accepted as a cross-check.  Weights must sum to one.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(default=None)
    name: str = ""

    def __post_init__(self):
        a = _frozen(np.atleast_2d(self.a))
        b = _frozen(np.atleast_1d(self.b))
        s = b.size
        if a.shape != (s, s):
            raise ValueError(f"a must be {s}x{s}, got {a.shape}")
        c_derived = a.sum(axis=1)
        c_given = None if self.c is None else np.atleast_1d(np.asarray(self.c, dtype=float))
        if not all(np.isfinite(v).all() for v in (a, b, c_given) if v is not None):
            raise ValueError("tableau coefficients must be finite")
        if c_given is not None:
            if c_given.shape != (s,):
                raise ValueError(f"c must have length {s}")
            if np.max(np.abs(c_given - c_derived)) > COEFF_TOL:
                raise ValueError("c does not match the row sums of a")
        if abs(b.sum() - 1.0) > COEFF_TOL:
            raise ValueError(f"weights must sum to 1, got {b.sum()!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _frozen(c_derived))

    @property
    def s(self) -> int:
        return self.b.size

    @cached_property
    def is_explicit(self) -> bool:
        return not np.triu(self.a).any()

    def __repr__(self):
        return f"ButcherTableau(name={self.name!r}, s={self.s})"


@dataclass(frozen=True)
class AdjointTableau:
    """Costate-side coefficients (abar, bbar, cbar) of the symplectic pair."""

    abar: np.ndarray
    bbar: np.ndarray
    cbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "abar", _frozen(self.abar))
        object.__setattr__(self, "bbar", _frozen(self.bbar))
        object.__setattr__(self, "cbar", _frozen(self.cbar))


@dataclass(frozen=True)
class StageOrderReport:
    """Order diagnosis for one internal stage (1-based index)."""

    stage: int
    q1: int
    q2: int
    c_match: bool
    predicted_order: int


def adjoint(tab: ButcherTableau) -> AdjointTableau:
    """Construct the adjoint tableau abar_ij = b_j - b_j a_ji / b_i.

    Requires every weight b_i > 0; the division is undefined otherwise.
    """
    b = tab.b
    if np.any(b <= 0.0):
        bad = int(np.argmin(b)) + 1
        raise AdjointUndefined(f"adjoint needs b_i > 0; b_{bad} = {b[bad - 1]!r}")
    abar = b[None, :] - (b[None, :] * tab.a.T) / b[:, None]
    return AdjointTableau(abar=abar, bbar=b.copy(), cbar=abar.sum(axis=1))


def check_cc(tab: ButcherTableau, adj: AdjointTableau) -> np.ndarray:
    """Stage-wise test of c_i == cbar_i (within CC_MATCH_TOL)."""
    return np.abs(tab.c - adj.cbar) <= CC_MATCH_TOL


def _largest_condition_order(coeffs_row, c, ci, r):
    """Largest l with sum_j row_j c_j^(l-2) == c_i^(l-1)/(l-1) for all 2..l.

    Scans l = 2 .. max(2, r); returns 1 if even l = 2 fails.  Powers follow
    the 0**0 == 1 convention so l = 2 reduces to the row-sum identity.
    """
    q = 1
    for ell in range(2, max(2, r) + 1):
        lhs = float(coeffs_row @ c ** (ell - 2))
        rhs = ci ** (ell - 1) / (ell - 1)
        if abs(lhs - rhs) > ORDER_COND_TOL:
            break
        q = ell
    return q


def stage_orders(tab: ButcherTableau, adj: AdjointTableau, i: int, r: int) -> StageOrderReport:
    """Predict the convergence order of the i-th internal-stage control.

    i is 1-based; r is the method's OCP order.  The prediction is 1 when
    c_i != cbar_i and min(q1, q2) capped at r otherwise.
    """
    if not 1 <= i <= tab.s:
        raise ValueError(f"stage index {i} out of range 1..{tab.s}")
    if r < 1:
        raise ValueError("method order r must be >= 1")
    row = i - 1
    q1 = _largest_condition_order(tab.a[row], tab.c, tab.c[row], r)
    q2 = _largest_condition_order(adj.abar[row], tab.c, tab.c[row], r)
    c_match = bool(check_cc(tab, adj)[row])
    n = min(q1, q2, r) if c_match else 1
    return StageOrderReport(stage=i, q1=q1, q2=q2, c_match=c_match, predicted_order=n)


def builtin(name: str) -> ButcherTableau:
    """Return a builtin tableau: euler, methodA, methodB, methodC, trapezoidal."""
    if name == "euler":
        return ButcherTableau(a=[[0.0]], b=[1.0], name="euler")
    if name == "methodA":
        return ButcherTableau(a=[[0, 0], [1, 0]], b=[0.5, 0.5], name="methodA")
    if name == "methodB":
        return ButcherTableau(
            a=[[0, 0, 0], [0.5, 0, 0], [-1, 2, 0]],
            b=[1 / 6, 2 / 3, 1 / 6],
            name="methodB",
        )
    if name == "methodC":
        return ButcherTableau(
            a=[[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]],
            b=[1 / 6, 1 / 3, 1 / 3, 1 / 6],
            name="methodC",
        )
    if name == "trapezoidal":
        return ButcherTableau(a=[[0, 0], [0.5, 0.5]], b=[0.5, 0.5], name="trapezoidal")
    raise NotFound(f"no builtin tableau named {name!r}")


def explicit3_family(c2: float) -> ButcherTableau:
    """Member of the one-parameter 3-stage explicit family with third OCP order.

    Abscissae are (0, c2, 1); c2 in {0, 2/3, 1} makes a denominator vanish.
    c2 = 1/2 recovers methodB.
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


def load_tableau(source) -> ButcherTableau:
    """Load a tableau from a JSON file path or an already-parsed dict.

    Expected fields: integer ``s``, row-major ``a`` (s*s entries), ``b``
    (s entries), optional ``name``; c is derived from a.
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    try:
        s = int(data["s"])
        a = np.asarray(data["a"], dtype=float).reshape(s, s)
        b = np.asarray(data["b"], dtype=float).reshape(s)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed tableau spec: {exc}") from exc
    return ButcherTableau(a=a, b=b, name=str(data.get("name", "custom")))
