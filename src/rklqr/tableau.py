"""Runge-Kutta tableaus, their symplectic adjoint pairs, and order checks.

A tableau (a, b, c) discretizes the state; its adjoint partner, the tableau
(abar, b, cbar) with abar_ij = b_j - b_j a_ji / b_i, propagates the costate
so that the pair is symplectic.  ``ocp_order`` gives the control order r of
the pair from the order conditions of its bi-coloured trees (``_trees``).
Internal-stage control accuracy, which ``stage_orders`` predicts for every
stage at once, is governed by how far the simplifying conditions

    sum_j a_ij    c_j^(l-2) = c_i^(l-1) / (l-1)     (forward,  order q1)
    sum_j abar_ij c_j^(l-2) = c_i^(l-1) / (l-1)     (adjoint,  order q2)

hold.  The adjoint's l = 2 condition is the abscissa match c_i == cbar_i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import AdjointUndefined, NotFound

COEFF_TOL = 1e-14
ORDER_COND_TOL = 1e-12
MAX_OCP_ORDER = 6  # 601 trees; order 7 would add 2,058


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
    """Order diagnosis for one internal stage (1-based index); ``c_match``, c_i == cbar_i, is q2 >= 2."""

    stage: int
    q1: int
    q2: int
    predicted_order: int

    @property
    def c_match(self) -> bool:
        return self.q2 >= 2


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


@cache
def _trees(p: int) -> tuple:
    """The bi-coloured rooted trees with p vertices, each the sorted tuple of its root's children.

    A child is (colour, subtree), colour 0 reading a and 1 reading abar; the
    root has none, as both tableaus share b.  Each tree grafts one leaf onto
    a tree with p - 1 vertices; sorted children make equal trees equal tuples.
    """
    if p == 1:
        return ((),)

    def grafts(tree):
        for colour in (0, 1):
            yield tuple(sorted(tree + ((colour, ()),)))
        for i, (colour, sub) in enumerate(tree):
            for grown in grafts(sub):
                yield tuple(sorted(tree[:i] + ((colour, grown),) + tree[i + 1:]))

    return tuple(sorted({grown for tree in _trees(p - 1) for grown in grafts(tree)}))


def _row_tol(tab: ButcherTableau) -> np.ndarray:
    """ORDER_COND_TOL for the rows of a; for row i of abar, (1 + sum_j b_j |a_ji| / b_i) times it."""
    return ORDER_COND_TOL * np.stack([np.ones_like(tab.b), 1 + tab.b @ np.abs(tab.a) / tab.b])


def ocp_order(tab: ButcherTableau) -> int:
    """The control order of the symplectic pair: the largest r <= MAX_OCP_ORDER whose conditions all hold.

    The pair (a, b; abar, b) is the direct discretization (Hager, Numer. Math.
    87, 2000); its order-r conditions are sum_i b_i Phi_i(t) = 1 / gamma(t)
    for the bi-coloured trees t of at most r vertices (Bonnans and
    Laurent-Varin, Numer. Math. 103, 2006), each within the largest
    ``_row_tol``, as abar_jk amplifies rounding by 1 / b_j.  Raises
    ``adjoint``'s AdjointUndefined unless every b_i > 0.
    """
    b, coeffs, tol = tab.b, (tab.a, adjoint(tab).a), _row_tol(tab).max()  # b > 0, or adjoint raised

    @cache
    def weight(tree):
        """Phi(tree) over the stages, the number of vertices, and gamma(tree)."""
        phi, size, gamma = np.ones_like(b), 1, 1
        for colour, sub in tree:
            sub_phi, sub_size, sub_gamma = weight(sub)
            phi = phi * (coeffs[colour] @ sub_phi)
            size, gamma = size + sub_size, gamma * sub_gamma
        return phi, size, gamma * size

    for p in range(1, MAX_OCP_ORDER + 1):
        if any(abs(b @ phi - 1 / gamma) > tol for phi, _, gamma in map(weight, _trees(p))):
            return p - 1
    return MAX_OCP_ORDER


def stage_orders(tab: ButcherTableau) -> list:
    """Predict the convergence order of every internal-stage control, stages 1..s.

    With r = ``ocp_order(tab)``, stage i is predicted min(q1, q2, r): q1 and q2 are the largest l <= max(2, r)
    (1 if none) for which its conditions of a and of abar hold for 2..l, each within its row's ``_row_tol``.
    """
    r = ocp_order(tab)
    c, coeffs, tol = tab.c, np.stack([tab.a, adjoint(tab).a]), _row_tol(tab)
    q = np.ones((2, tab.s), dtype=int)
    for ell in range(2, max(2, r) + 1):  # 0**0 == 1: l = 2 is the row-sum identity
        q += (q == ell - 1) & (np.abs(coeffs @ c ** (ell - 2) - c ** (ell - 1) / (ell - 1)) <= tol)
        if (q < ell).all():
            break
    return [StageOrderReport(i + 1, q1, q2, min(q1, q2, r)) for i, (q1, q2) in enumerate(q.T.tolist())]


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
