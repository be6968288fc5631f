"""Continuous-time quadratic optimal-control problem definitions.

Both problem classes expose the same dynamics surface (``f``, ``jac_x``,
``jac_u``) so the discrete solvers can treat a linear problem as a special
case of the nonlinear one.  Costs are

    integral of  1/2 x'Qx + x'Su + 1/2 u'Ru  dt  +  1/2 x(tf)'M x(tf)

with the cross term S only available on the linear class (S = 0 recovers the
plain quadratic form).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotFound

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


def _check_inputs(tf, Q, R, M, **others):
    """Reject non-finite data, a horizon that is not positive, and bad cost matrices."""
    for label, val in dict(others, Q=Q, R=R, M=M, tf=tf).items():
        if not np.isfinite(val).all():
            raise ValueError(f"{label} must be finite")
    if tf <= 0:
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


@dataclass(frozen=True)
class LQProblem:
    """Linear dynamics xdot = Ax + Bu with quadratic cost (optional cross S)."""

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
        m = B.shape[1]
        Q = np.asarray(self.Q, dtype=float).reshape(n, n)
        R = np.asarray(self.R, dtype=float).reshape(m, m)
        M = np.asarray(self.M, dtype=float).reshape(n, n)
        S = np.zeros((n, m)) if self.S is None else np.asarray(self.S, dtype=float).reshape(n, m)
        x0 = np.asarray(self.x0, dtype=float).reshape(n)
        _check_inputs(self.tf, Q, R, M, A=A, B=B, S=S, x0=x0)
        for key, val in (("A", A), ("B", B), ("Q", Q), ("R", R), ("M", M), ("S", S), ("x0", x0)):
            val.setflags(write=False)
            object.__setattr__(self, key, val)
        object.__setattr__(self, "tf", float(self.tf))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    # dynamics surface shared with NonlinearProblem
    def f(self, x, u):
        return self.A @ x + self.B @ u

    def jac_x(self, x, u):
        return self.A

    def jac_u(self, x, u):
        return self.B

    def input_matrix(self, x):
        return self.B


@dataclass(frozen=True)
class NonlinearProblem:
    """Nonlinear dynamics xdot = f(x, u) with plain quadratic cost (no cross term).

    ``f_fn`` maps (x, u) to an n-vector; ``jac_x_fn`` / ``jac_u_fn`` are its
    Jacobians.  ``input_matrix_fn``, when given, marks the dynamics as
    control-affine and returns B(x) with f(x, u) = f0(x) + B(x) u.
    All callables must be pure.
    """

    f_fn: Callable
    jac_x_fn: Callable
    jac_u_fn: Callable
    Q: np.ndarray
    R: np.ndarray
    M: np.ndarray
    x0: np.ndarray
    tf: float
    input_matrix_fn: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        for label in ("f_fn", "jac_x_fn", "jac_u_fn"):
            if not callable(getattr(self, label)):
                raise ValueError(f"{label} must be callable")
        if self.input_matrix_fn is not None and not callable(self.input_matrix_fn):
            raise ValueError("input_matrix_fn must be callable or None")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        n = x0.size
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        m = R.shape[0]
        Q = np.asarray(self.Q, dtype=float).reshape(n, n)
        M = np.asarray(self.M, dtype=float).reshape(n, n)
        _check_inputs(self.tf, Q, R, M, x0=x0)
        for key, val in (("Q", Q), ("R", R), ("M", M), ("x0", x0)):
            val.setflags(write=False)
            object.__setattr__(self, key, val)
        object.__setattr__(self, "tf", float(self.tf))

    @property
    def n(self) -> int:
        return self.x0.size

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def control_affine(self) -> bool:
        return self.input_matrix_fn is not None

    def f(self, x, u):
        return np.asarray(self.f_fn(x, u), dtype=float)

    def jac_x(self, x, u):
        return np.asarray(self.jac_x_fn(x, u), dtype=float)

    def jac_u(self, x, u):
        return np.asarray(self.jac_u_fn(x, u), dtype=float)

    def input_matrix(self, x):
        if self.input_matrix_fn is None:
            raise AttributeError("dynamics are not flagged control-affine")
        return np.asarray(self.input_matrix_fn(x), dtype=float)


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form optimal control u*(t), callable on [0, tf]."""

    u_star: Callable
    label: str = ""

    def __call__(self, t):
        return self.u_star(t)


def cross_term(prob) -> Optional[np.ndarray]:
    """State-control cross cost S of a problem, or None when absent/zero."""
    S = getattr(prob, "S", None)
    if S is None or not np.any(S):
        return None
    return S


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
        return (0.5 * math.exp(t) - 1.5 * math.exp(2.0 - t)) / denom

    return prob, AnalyticReference(u_star=u_star, label="example31 closed form")


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


def _pendulum_f(x, u):
    return np.array([x[1], math.sin(x[0]) + u[0]])


def _pendulum_jac_x(x, u):
    return np.array([[0.0, 1.0], [math.cos(x[0]), 0.0]])


_PENDULUM_JU = np.array([[0.0], [1.0]])


def _pendulum_jac_u(x, u):
    return _PENDULUM_JU


def _pendulum_input_matrix(x):
    return _PENDULUM_JU


def pendulum() -> NonlinearProblem:
    """Inverted pendulum (theta, omega) steered to rest over [0, 4].

    thetadot = omega, omegadot = sin(theta) + u; cost 0.025 u^2 running
    (R = 0.05) plus 2.5 x(tf)'x(tf) terminal (M = 5 I); starts at theta = pi/3.
    """
    return NonlinearProblem(
        f_fn=_pendulum_f,
        jac_x_fn=_pendulum_jac_x,
        jac_u_fn=_pendulum_jac_u,
        input_matrix_fn=_pendulum_input_matrix,
        Q=np.zeros((2, 2)),
        R=[[0.05]],
        M=5.0 * np.eye(2),
        x0=[math.pi / 3.0, 0.0],
        tf=4.0,
        name="pendulum",
    )


def builtin_problem(name: str):
    """Builtin problem by name; returns (problem, analytic reference or None)."""
    if name == "example31":
        return example31()
    if name == "spring":
        return spring_oscillator(), None
    if name == "pendulum":
        return pendulum(), None
    raise NotFound(f"no builtin problem named {name!r}")


def load_problem(source):
    """Load a problem spec from a JSON file path or parsed dict.

    Keys: ``kind`` ("lq" or "builtin").  For "builtin": ``name`` in
    {example31, spring, pendulum}.  For "lq": ``n``, ``m``, row-major
    matrices ``A``, ``B``, ``Q``, ``R``, ``M`` (optional ``S``), ``x0``,
    ``tf``.  Returns (problem, analytic reference or None).
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    kind = data.get("kind")
    if kind == "builtin":
        return builtin_problem(str(data.get("name", "")))
    if kind != "lq":
        raise ValueError(f"unknown problem kind {kind!r}")
    try:
        n = int(data["n"])
        m = int(data["m"])
        prob = LQProblem(
            A=np.asarray(data["A"], dtype=float).reshape(n, n),
            B=np.asarray(data["B"], dtype=float).reshape(n, m),
            Q=np.asarray(data["Q"], dtype=float).reshape(n, n),
            S=np.asarray(data["S"], dtype=float).reshape(n, m) if "S" in data else None,
            R=np.asarray(data["R"], dtype=float).reshape(m, m),
            M=np.asarray(data["M"], dtype=float).reshape(n, n),
            x0=np.asarray(data["x0"], dtype=float).reshape(n),
            tf=float(data["tf"]),
            name=str(data.get("name", "custom")),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed problem spec: {exc}") from exc
    return prob, None
