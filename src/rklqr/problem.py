"""Continuous-time quadratic optimal-control problem definitions.

Both problem classes expose the same dynamics surface so the discrete
solvers can treat a linear problem as a special case of the nonlinear one:
``f``, which returns f at a stack of P points X (P, n), U (P, m) as an array
(P, n), and ``stage_jacobians``, which returns the Jacobians of f there as
arrays (P, n, n) and (P, n, m).  Each is one call for all P points, and they
are the only ways the solvers read the dynamics but one: ``dlqr.rollout``'s
closed-form node control u = -R^{-1}(B'p + S'x) reads ``LQProblem.B``.  The
oracle reads the dynamics through the same two: its own step-by-step
``rollout`` calls both, and ``stage_jacobians`` gives its constraint Jacobian,
at zero for ``qp_solve`` and at that rollout for its gradient and metric.
Costs are

    integral of  1/2 x'Qx + x'Su + 1/2 u'Ru  dt  +  1/2 x(tf)'M x(tf)

and every problem carries the cross term S as a read-only (n, m) array: the
linear class takes it as an option and stores zeros without one, the nonlinear
class always holds zeros.  The solvers use S unconditionally; a zero S adds
exact zero products and leaves every finite result unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotFound
from .tableau import read_spec

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


class QuadraticCost:
    """The cost data both problem classes share, checked and frozen in one place.

    A subclass's ``__post_init__`` works out n and m from its own fields and
    calls ``_freeze``, which stores Q, R, M, S and x0 and the subclass's
    dynamics arrays as read-only float arrays and tf as a float.
    """

    @property
    def n(self) -> int:
        return self.x0.size

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def _freeze(self, n: int, m: int, **dynamics):
        """Reshape the cost data to n and m (a None S is zeros), check it all, and store it read-only."""
        if self.S is None:
            object.__setattr__(self, "S", np.zeros((n, m)))
        shapes = {"Q": (n, n), "R": (m, m), "M": (n, n), "S": (n, m), "x0": (n,)}
        arrays = {key: np.asarray(getattr(self, key), dtype=float).reshape(shape) for key, shape in shapes.items()}
        arrays.update(dynamics)
        self._check_inputs(**arrays)
        for key, val in arrays.items():
            val.setflags(write=False)
            object.__setattr__(self, key, val)
        object.__setattr__(self, "tf", float(self.tf))

    def _check_inputs(self, Q, R, M, **others):
        """Reject non-finite data, a horizon tf that is not positive, and bad cost matrices."""
        for label, val in dict(others, Q=Q, R=R, M=M, tf=self.tf).items():
            if not np.isfinite(val).all():
                raise ValueError(f"{label} must be finite")
        if self.tf <= 0:
            raise ValueError("tf must be positive")
        for label, mat in (("Q", Q), ("R", R), ("M", M)):
            if np.max(np.abs(mat - mat.T), initial=0.0) > _SYM_TOL * (1 + np.max(np.abs(mat), initial=0.0)):
                raise ValueError(f"{label} must be symmetric")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError:
            raise ValueError("R must be positive definite") from None
        for label, mat in (("Q", Q), ("M", M)):
            if mat.size and np.linalg.eigvalsh(mat).min() < -_PSD_TOL * (1 + np.max(np.abs(mat))):
                raise ValueError(f"{label} must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class LQProblem(QuadraticCost):
    """Linear dynamics xdot = Ax + Bu with quadratic cost; S defaults to zeros."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    M: np.ndarray
    x0: np.ndarray
    tf: float
    S: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        B = np.asarray(self.B, dtype=float).reshape(n, -1)
        self._freeze(n, B.shape[1], A=A.reshape(n, n), B=B)

    # dynamics surface shared with NonlinearProblem
    def f(self, X, U):
        """AX + BU at the P points of X (P, n) and U (P, m), stacked as (P, n)."""
        return X @ self.A.T + U @ self.B.T

    def input_matrix(self, x):
        return self.B

    def stage_jacobians(self, X, U):
        """A and B broadcast to the P points of X (P, n), without copying."""
        P, n, m = X.shape[0], self.n, self.m
        return np.broadcast_to(self.A, (P, n, n)), np.broadcast_to(self.B, (P, n, m))


@dataclass(frozen=True, eq=False)
class NonlinearProblem(QuadraticCost):
    """Nonlinear dynamics xdot = f(x, u) with plain quadratic cost.

    ``f_fn``, ``jac_x_fn`` and ``jac_u_fn`` map stacked points X (P, n) and
    U (P, m) to f (P, n) and its stacked Jacobians Jx (P, n, n) and
    Ju (P, n, m).  All callables must be pure.  ``S`` is not a constructor
    argument: it is always the read-only zero cross term of shape (n, m).
    """

    f_fn: Callable
    jac_x_fn: Callable
    jac_u_fn: Callable
    Q: np.ndarray
    R: np.ndarray
    M: np.ndarray
    x0: np.ndarray
    tf: float
    name: str = ""
    S: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for label in ("f_fn", "jac_x_fn", "jac_u_fn"):
            if not callable(getattr(self, label)):
                raise ValueError(f"{label} must be callable")
        self._freeze(np.size(self.x0), np.atleast_2d(self.R).shape[0])

    def f(self, X, U):
        """f at the P points of X (P, n) and U (P, m), stacked as (P, n)."""
        F = np.asarray(self.f_fn(X, U), dtype=float)
        if F.shape != X.shape:
            raise ValueError(f"f_fn must return shape {X.shape} for P = {X.shape[0]} points, not {F.shape}")
        return F

    def input_matrix(self, x):
        """Ju at the one point (x, 0): the B(x) of f(x, u) = f0(x) + B(x) u only when f is affine in u."""
        _, Ju = self.stage_jacobians(np.asarray(x, dtype=float).reshape(1, self.n), np.zeros((1, self.m)))
        return Ju[0]

    def stage_jacobians(self, X, U):
        """Jacobians (Jx (P, n, n), Ju (P, n, m)) of f at the P points of X (P, n) and U (P, m)."""
        P, n, m = X.shape[0], self.n, self.m
        Jx = np.asarray(self.jac_x_fn(X, U), dtype=float)
        Ju = np.asarray(self.jac_u_fn(X, U), dtype=float)
        for label, J, shape in (("jac_x_fn", Jx, (P, n, n)), ("jac_u_fn", Ju, (P, n, m))):
            if J.shape != shape:
                raise ValueError(f"{label} must return shape {shape} for P = {P} points, not {J.shape}")
        return Jx, Ju


# ---------------------------------------------------------------------------
# builtin problems
# ---------------------------------------------------------------------------

def example31():
    """Scalar tracking benchmark with known optimal control.

    minimize  integral_0^1  1/2 x^2 + 1/2 x u + 1/2 u^2  dt
    s.t.      xdot = u, x(0) = 1.

    The 1/2 x u integrand supplies the cross term S = 1/2.  Returns the
    problem together with its closed-form optimal control.
    """
    prob = LQProblem(
        A=[[0.0]], B=[[1.0]], Q=[[1.0]], S=[[0.5]], R=[[1.0]], M=[[0.0]],
        x0=[1.0], tf=1.0, name="example31",
    )
    denom = 0.5 + 1.5 * math.e**2

    def u_star(t):
        return (0.5 * np.exp(t) - 1.5 * np.exp(2.0 - t)) / denom

    return prob, u_star


def spring_oscillator() -> LQProblem:
    """Controlled linear oscillator on [0, 40].

    Running cost 1/2 x'x + 1.5 u^2 (so R = 3) and terminal cost 5 x(tf)'x(tf)
    (so M = 10 I), applied at tf = 40.
    """
    return LQProblem(
        A=[[0.0, 1.0], [-1.0, 0.0]],
        B=[[1.0], [0.0]],
        Q=np.eye(2),
        R=[[3.0]],
        M=10.0 * np.eye(2),
        x0=[1.0, 1.0],
        tf=40.0,
        name="spring",
    )


def _pendulum_f(X, U):
    return np.column_stack([X[:, 1], np.sin(X[:, 0]) + U[:, 0]])


_PENDULUM_JU = np.array([[0.0], [1.0]])


def _pendulum_jac_x(X, U):
    Jx = np.zeros((X.shape[0], 2, 2))
    Jx[:, 0, 1] = 1.0
    Jx[:, 1, 0] = np.cos(X[:, 0])
    return Jx


def _pendulum_jac_u(X, U):
    return np.broadcast_to(_PENDULUM_JU, (X.shape[0], 2, 1))


def pendulum() -> NonlinearProblem:
    """Inverted pendulum (theta, omega) steered to rest over [0, 4].

    thetadot = omega, omegadot = sin(theta) + u; cost 0.025 u^2 running
    (R = 0.05) plus 2.5 x(tf)'x(tf) terminal (M = 5 I); starts at theta = pi/3.
    """
    return NonlinearProblem(
        f_fn=_pendulum_f,
        jac_x_fn=_pendulum_jac_x,
        jac_u_fn=_pendulum_jac_u,
        Q=np.zeros((2, 2)),
        R=[[0.05]],
        M=5.0 * np.eye(2),
        x0=[math.pi / 3.0, 0.0],
        tf=4.0,
        name="pendulum",
    )


def _pendulum_tanh_f(X, U):
    return np.column_stack([X[:, 1], np.sin(X[:, 0]) + np.tanh(U[:, 0])])


def _pendulum_tanh_jac_u(X, U):
    Ju = np.zeros((X.shape[0], 2, 1))
    Ju[:, 1, 0] = 1.0 - np.tanh(U[:, 0]) ** 2
    return Ju


def pendulum_tanh() -> NonlinearProblem:
    """The pendulum with a saturating input, steered to rest over [0, 3].

    thetadot = omega, omegadot = sin(theta) + tanh(u), which is not affine in
    u; cost 1/2 x'x + 0.05 u^2 running (Q = I, R = 0.1) plus 2.5 x(tf)'x(tf)
    terminal (M = 5 I); starts at theta = pi/3.
    """
    return NonlinearProblem(
        f_fn=_pendulum_tanh_f,
        jac_x_fn=_pendulum_jac_x,
        jac_u_fn=_pendulum_tanh_jac_u,
        Q=np.eye(2),
        R=[[0.1]],
        M=5.0 * np.eye(2),
        x0=[math.pi / 3.0, 0.0],
        tf=3.0,
        name="pendulum_tanh",
    )


def builtin_problem(name: str):
    """Builtin problem by name; returns (problem, analytic reference or None)."""
    if name == "example31":
        return example31()
    if name == "spring":
        return spring_oscillator(), None
    if name == "pendulum":
        return pendulum(), None
    if name == "pendulum_tanh":
        return pendulum_tanh(), None
    raise NotFound(f"no builtin problem named {name!r}")


def load_problem(source):
    """Load a linear-quadratic problem spec from a JSON file path or parsed dict.

    Keys: ``kind`` "lq", counts ``n`` and ``m``, row-major matrices ``A``,
    ``B``, ``Q``, ``R``, ``M`` (optional ``S``), ``x0``, ``tf`` and an
    optional ``name``; ``tableau.read_spec`` checks them.  A builtin problem
    is named directly, by ``builtin_problem``.  Returns (problem, None): a
    spec has no analytic reference.
    """
    shapes = {"A": "nn", "B": "nm", "Q": "nn", "S": "nm", "R": "mm", "M": "nn", "x0": "n", "tf": ""}
    return LQProblem(**read_spec(source, "problem", shapes, kind="lq", optional=("S",))), None
