"""Runge-Kutta tableaus, their symplectic adjoint pairs, and order checks.

A tableau (a, b, c) discretizes the state; its adjoint partner, the tableau
(abar, b, cbar) with abar_ij = b_j - b_j a_ji / b_i, propagates the costate
so that the pair is symplectic.  ``ocp_order`` gives the control order r of
the pair from Hager's order conditions.  Internal-stage control accuracy,
which ``stage_orders`` predicts for every stage at once, is governed by how
far the simplifying conditions

    sum_j a_ij    c_j^(l-2) = c_i^(l-1) / (l-1)     (forward,  order q1)
    sum_j abar_ij c_j^(l-2) = c_i^(l-1) / (l-1)     (adjoint,  order q2)

hold, together with the abscissa match c_i == cbar_i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdjointUndefined, NotFound

COEFF_TOL = 1e-14
ORDER_COND_TOL = 1e-12
CC_MATCH_TOL = 1e-12


def _frozen(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients (a, b, c) of an s-stage Runge-Kutta method.

    c is not a constructor argument: it is always the row sums of a.
    Weights must sum to one.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(init=False)
    name: str = ""

    def __post_init__(self):
        a = _frozen(np.atleast_2d(self.a))
        b = _frozen(np.atleast_1d(self.b))
        s = b.size
        if a.shape != (s, s):
            raise ValueError(f"a must be {s}x{s}, got {a.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("tableau coefficients must be finite")
        if abs(b.sum() - 1.0) > COEFF_TOL:
            raise ValueError(f"weights must sum to 1, got {b.sum()!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _frozen(a.sum(axis=1)))

    @property
    def s(self) -> int:
        return self.b.size

    @cached_property
    def is_explicit(self) -> bool:
        return not np.triu(self.a).any()

    @cached_property
    def nonzero_rows(self) -> tuple:
        """The ``(j, a_ij)`` pairs of the nonzero entries of each row i of a, in order of j.

        ``dlqr.step_operators`` reads it: an explicit stage sums over its
        pairs only, and a stage whose row is empty keeps [E_i | F_i] = [I | 0],
        so it is x_k itself.  Tuples of Python floats, so the pattern is as
        read-only as a.
        """
        return tuple(tuple((j, float(v)) for j, v in enumerate(row) if v != 0.0) for row in self.a)

    def __repr__(self):
        return f"ButcherTableau(name={self.name!r}, s={self.s})"


@dataclass(frozen=True)
class StageOrderReport:
    """Order diagnosis for one internal stage (1-based index)."""

    stage: int
    q1: int
    q2: int
    c_match: bool
    predicted_order: int


def adjoint(tab: ButcherTableau) -> ButcherTableau:
    """The symplectic partner (abar, b, cbar) with abar_ij = b_j - b_j a_ji / b_i.

    It shares the weights b; its abscissae cbar are the row sums of abar.
    Requires every weight b_i > 0; the division is undefined otherwise.
    """
    b = tab.b
    if np.any(b <= 0.0):
        bad = int(np.argmin(b)) + 1
        raise AdjointUndefined(f"adjoint needs b_i > 0; b_{bad} = {float(b[bad - 1])!r}")
    abar = b[None, :] - (b[None, :] * tab.a.T) / b[:, None]
    return ButcherTableau(a=abar, b=b, name=f"adjoint({tab.name})")


def ocp_order(tab: ButcherTableau) -> int:
    """The control order of the symplectic pair: the largest r <= 4 whose conditions all hold.

    The conditions of orders 1..4 are Hager's (Numer. Math. 87, 2000), in a,
    b, c, d = b a and d_j / b_j = 1 - cbar_j, each within
    ORDER_COND_TOL (1 + max_j sum_i |b_i a_ij| / b_j): a weight near zero
    amplifies the rounding of d_j by 1 / b_j in d_j / b_j.  r is capped at 4:
    order 5 needs the bi-coloured trees of Bonnans and Laurent-Varin (Numer.
    Math. 103, 2006).  Raises ``adjoint``'s AdjointUndefined unless every b_i > 0.
    """
    a, b, c = tab.a, tab.b, tab.c
    e = 1 - adjoint(tab).c
    tol = ORDER_COND_TOL * (1 + (b @ np.abs(a) / b).max())  # b > 0, or adjoint raised
    d, bc = b @ a, b * c
    residuals = (
        (b.sum() - 1,), (d.sum() - 1 / 2,),
        (c @ d - 1 / 6, b @ c**2 - 1 / 3, d @ e - 1 / 3),
        (b @ c**3 - 1 / 4, bc @ a @ c - 1 / 8, d @ c**2 - 1 / 12, d @ a @ c - 1 / 24,
         c @ (d * e) - 1 / 12, d @ e**2 - 1 / 4, bc @ a @ e - 5 / 24, d @ a @ e - 1 / 8),
    )
    for r, group in enumerate(residuals):
        if np.abs(group).max() > tol:
            return r
    return len(residuals)


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


def stage_orders(tab: ButcherTableau) -> list:
    """Predict the convergence order of every internal-stage control, stages 1..s.

    With r = ``ocp_order(tab)``, the prediction for stage i is 1 when
    c_i != cbar_i and min(q1, q2) capped at r otherwise.
    """
    r = ocp_order(tab)
    adj = adjoint(tab)
    reports = []
    for row, ci in enumerate(tab.c):
        q1 = _largest_condition_order(tab.a[row], tab.c, ci, r)
        q2 = _largest_condition_order(adj.a[row], tab.c, ci, r)
        c_match = bool(abs(ci - adj.c[row]) <= CC_MATCH_TOL)
        reports.append(StageOrderReport(stage=row + 1, q1=q1, q2=q2, c_match=c_match,
                                        predicted_order=min(q1, q2, r) if c_match else 1))
    return reports


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


def read_spec(source, what: str, shapes: dict, kind=None, optional=()) -> dict:
    """Constructor keyword arguments from a problem or tableau spec, a JSON file path or an already-parsed dict.

    ``shapes`` maps each numeric field to its dimensions as one-letter counts
    (``"nm"`` is (n, m), ``""`` one number), read first as positive integers.
    A field is a JSON number or, with dimensions, nested lists of them in
    row-major order; a string or boolean anywhere, which numpy would read as
    a number, is malformed.  Returns a float array per field present, and
    ``name``.  A malformed spec, or one whose ``kind`` is not kind, raises
    ValueError.
    """
    def malformed(reason):
        return ValueError(f"malformed {what} spec: {reason}")

    def numbers(key, value, nested):
        if nested and isinstance(value, list):
            return [x for v in value for x in numbers(key, v, True)]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise malformed(f"{key} holds {value!r}, not a JSON number")
        return [value]

    data = source
    if not isinstance(data, dict):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=float)  # an integer beyond the doubles reads as inf
    if not isinstance(data, dict):
        raise malformed(f"expected a JSON object at the top level, got {type(data).__name__}")
    if kind is not None and data.get("kind") != kind:
        raise malformed(f"unknown kind {data.get('kind')!r}")
    counts = dict.fromkeys("".join(shapes.values()))
    keys = [*counts, *shapes]
    required = [key for key in keys if key not in optional]
    fields = {"name": str(data.get("name", "custom"))}
    for key in keys:
        if key not in data:
            if key in required:
                raise malformed(f"missing field {key!r} (needs {', '.join(required)})")
            continue
        value = data[key]
        if key in counts:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 1 or value % 1:
                raise malformed(f"{key} = {value!r} is not a positive integer")
            counts[key] = int(value)
            continue
        shape = tuple(counts[d] for d in shapes[key])
        flat = numbers(key, value, bool(shape))
        if len(flat) != math.prod(shape):
            raise malformed(f"{key} has {len(flat)} entries, not {math.prod(shape)}")
        fields[key] = np.array(flat, dtype=float).reshape(shape)
    return fields


def load_tableau(source) -> ButcherTableau:
    """Load a tableau from a JSON file path or an already-parsed dict.

    Expected fields: integer ``s``, row-major ``a`` (s*s entries), ``b``
    (s entries), optional ``name``; c is derived from a.  ``read_spec``
    checks them.
    """
    return ButcherTableau(**read_spec(source, "tableau", {"a": "ss", "b": "s"}))
