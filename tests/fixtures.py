"""Tableaus, LQ problems and references that several checks share, each defined once.

A test helper, not library code. The CI console step writes each of ``SPECS``
to the file its name gives, by ``write_spec``, so the command line runs on the
data the tests use.
"""

import dataclasses
import json

import numpy as np
from scipy.integrate import solve_ivp

from rklqr import dlqr
from rklqr.problem import LQProblem, NonlinearProblem, spring_oscillator
from rklqr.tableau import ButcherTableau

_R3, _R6, _R15 = np.sqrt(3.0), np.sqrt(6.0), np.sqrt(15.0)

# 2-stage Gauss-Legendre: both rows implicit, a full 2n x 2n coupling; classical and control order 4
GAUSS2 = ButcherTableau(a=[[1 / 4, 1 / 4 - _R3 / 6], [1 / 4 + _R3 / 6, 1 / 4]], b=[1 / 2, 1 / 2], name="gauss2")
# 3-stage Radau IIA: every row implicit, a full 3n x 3n coupling; control order 5
RADAU2A3 = ButcherTableau(a=[[(88 - 7 * _R6) / 360, (296 - 169 * _R6) / 1800, (-2 + 3 * _R6) / 225],
                             [(296 + 169 * _R6) / 1800, (88 + 7 * _R6) / 360, (-2 - 3 * _R6) / 225],
                             [(16 - _R6) / 36, (16 + _R6) / 36, 1 / 9]],
                          b=[(16 - _R6) / 36, (16 + _R6) / 36, 1 / 9], name="radau2a3")
# 3-stage Gauss-Legendre: control order 6
GAUSS3 = ButcherTableau(a=[[5 / 36, 2 / 9 - _R15 / 15, 5 / 36 - _R15 / 30],
                           [5 / 36 + _R15 / 24, 2 / 9, 5 / 36 - _R15 / 24],
                           [5 / 36 + _R15 / 30, 2 / 9 + _R15 / 15, 5 / 36]],
                        b=[5 / 18, 4 / 9, 5 / 18], name="gauss3")
# Ralston's third-order method: classical order 3, control order 2
RALSTON3 = ButcherTableau(a=[[0, 0, 0], [0.5, 0, 0], [0, 0.75, 0]], b=[2 / 9, 1 / 3, 4 / 9], name="ralston3")
# the explicit midpoint rule weights stage 1 by 0, so every stage Hessian is singular
MIDPOINT = ButcherTableau(a=[[0, 0], [0.5, 0]], b=[0, 1], name="midpoint")
# implicit Euler: one implicit stage, whose coupling I - h Jx is singular where h Jx = I
IMPLICIT_EULER = ButcherTableau(a=[[1.0]], b=[1.0], name="implicit_euler")
# Heun's nodes with the weights (1.5, -0.5): Rh is indefinite, so the stage Hessians fail and the adjoint is undefined
NEGATIVE_HEUN = ButcherTableau(a=[[0, 0], [1, 0]], b=[1.5, -0.5], name="negative_heun")


def kutta4(u, v):
    """Kutta's two-parameter 4-stage explicit family of classical order 4, c = (0, u, v, 1).

    Hairer, Nørsett and Wanner, Solving ODEs I, §II.1; needs u != v,
    u != 1/2 and D != 0.
    """
    D = 6 * u * v - 4 * (u + v) + 3
    b2 = (2 * v - 1) / (12 * u * (v - u) * (1 - u))
    b3 = (1 - 2 * u) / (12 * v * (v - u) * (1 - v))
    b4 = D / (12 * (1 - u) * (1 - v))
    a32 = v * (v - u) / (2 * u * (1 - 2 * u))
    a42 = (1 - u) * (u + v - 1 - (2 * v - 1) ** 2) / (2 * u * (v - u) * D)
    a43 = (1 - 2 * u) * (1 - u) * (1 - v) / (v * (v - u) * D)
    a = [[0, 0, 0, 0], [u, 0, 0, 0], [v - a32, a32, 0, 0], [1 - a42 - a43, a42, a43, 0]]
    return ButcherTableau(a=a, b=[1 - b2 - b3 - b4, b2, b3, b4])


# Kutta's member c = (0, 0.1408, 0.500001, 1): b_2 = 3.8e-6 amplifies abar's rounding by 1 / b_2
KUTTA_B2 = dataclasses.replace(kutta4(0.1408, 0.500001), name="kutta_b2")

# the (method, N) grid of the oracle's random probes
PROBE_GRID = tuple((name, N) for name in ("euler", "methodA", "methodB") for N in (2, 3, 4))

# the spring oscillator with Q = M = 0: its optimal gains and controls are exactly zero
ZERO_COST_SPRING = LQProblem(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[1.0], [0.0]], Q=np.zeros((2, 2)), R=[[3.0]],
                             M=np.zeros((2, 2)), x0=[1.0, 1.0], tf=4.0)
# Q - S R^-1 S' < 0 makes every Kc indefinite, so the Riccati scan cannot run
INDEFINITE = LQProblem(A=[[2.133]], B=[[2.076]], Q=[[2.878]], S=[[-2.897]], R=[[0.245]], M=[[1.0]],
                       x0=[0.956], tf=1.5, name="indefinite")
# A = 1e300 overflows the backward's stage products
OVERFLOW = LQProblem(A=[[1e300]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=1.0, name="overflow")
# A = 1e70: methodB's backward passes with every M rounded to 0, against a cost of 8e137; methodC's loop overflows
CLOSED_LOOP = dataclasses.replace(OVERFLOW, A=[[1e70]], name="closed_loop")
# A = 1e35: methodB's M rounds to 0 too, and its controls reach 7e50, all finite: a cost of 1.6e100 against a value of 0
ZERO_VALUE = dataclasses.replace(OVERFLOW, A=[[1e35]], name="zero_value")
# the spring from x0 = (1e160, 1e160): every state, control and costate is finite, and the cost overflows
HUGE_START = dataclasses.replace(spring_oscillator(), x0=[1e160, 1e160], name="huge_start")
# xdot = x^2 + u from x0 = 1: explicit Euler's iterates blow up from a far start, and implicit Euler at
# h = 1 asks for X = 1 + X^2, which has no real root
QUADRATIC_GROWTH = NonlinearProblem(f_fn=lambda X, U: X**2 + U, jac_x_fn=lambda X, U: 2.0 * X[:, :, None],
                                    jac_u_fn=lambda X, U: np.ones((len(X), 1, 1)), Q=[[1.0]], R=[[1.0]],
                                    M=[[1.0]], x0=[1.0], tf=0.5, name="quadratic_growth")


def _stiff_actuator_f(X, U):
    return np.column_stack([X[:, 1], np.sin(X[:, 0]) + X[:, 2], 1000.0 * (np.tanh(U[:, 0]) - X[:, 2])])


def _stiff_actuator_jac_x(X, U):
    Jx = np.zeros((len(X), 3, 3))
    Jx[:, 0, 1] = Jx[:, 1, 2] = 1.0
    Jx[:, 1, 0] = np.cos(X[:, 0])
    Jx[:, 2, 2] = -1000.0
    return Jx


def _stiff_actuator_jac_u(X, U):
    Ju = np.zeros((len(X), 3, 1))
    Ju[:, 2, 0] = 1000.0 * (1.0 - np.tanh(U[:, 0]) ** 2)
    return Ju


# the pendulum driven through a fast actuator z: thetadot = omega, omegadot = sin(theta) + z and
# zdot = lambda (tanh u - z), lambda = 1000; h lambda >= 3 lies past the explicit builtins' real-axis
# stability bounds (about 2.5-2.8) at every N <= 1000
STIFF_ACTUATOR = NonlinearProblem(f_fn=_stiff_actuator_f, jac_x_fn=_stiff_actuator_jac_x,
                                  jac_u_fn=_stiff_actuator_jac_u, Q=np.diag([1.0, 1.0, 0.0]), R=[[0.1]],
                                  M=5.0 * np.diag([1.0, 1.0, 0.0]), x0=[np.pi / 3, 0.0, 0.0], tf=3.0,
                                  name="stiff_actuator")


def random_explicit_tableau(rng, s, keep=1.0):
    """An explicit tableau of s stages with positive weights summing to 1, drawn from ``rng``.

    Each entry below the diagonal is uniform on (-1, 1); with ``keep`` < 1 it
    stays with that probability and is otherwise exactly zero.
    """
    a = rng.uniform(-1.0, 1.0, (s, s))
    if keep < 1:
        a *= rng.uniform(size=(s, s)) < keep
    w = rng.uniform(0.1, 1.0, s)
    return ButcherTableau(a=np.tril(a, -1), b=w / w.sum(), name="random")


def two_springs(S=None):
    """Two unit masses coupled by three unit springs, the first one driven: n = 4, m = 1.

    ``S`` adds a cross term to its cost.
    """
    A = np.zeros((4, 4))
    A[:2, 2:] = np.eye(2)
    A[2:, :2] = [[-2.0, 1.0], [1.0, -2.0]]
    return LQProblem(A=A, B=[[0.0], [0.0], [1.0], [0.0]], Q=np.eye(4), R=[[3.0]], M=10.0 * np.eye(4),
                     x0=[1.0, 0.0, 1.0, 0.0], tf=40.0, S=S, name="springs2")


SPECS = (GAUSS2, RADAU2A3, GAUSS3, RALSTON3, MIDPOINT, IMPLICIT_EULER, NEGATIVE_HEUN, KUTTA_B2, INDEFINITE,
         OVERFLOW, CLOSED_LOOP, ZERO_VALUE, HUGE_START, two_springs())


def continuous_riccati(prob, h):
    """P(k h), k = 0..tf/h, of -P' = A'P + PA - (PB + S)R^-1(B'P + S') + Q with P(tf) = M.

    Integrated backward by DOP853 at rtol 1e-13 and atol 1e-14.
    """
    A, B, S, Q, Rinv, n = prob.A, prob.B, prob.S, prob.Q, np.linalg.inv(prob.R), prob.n

    def rhs(t, y):
        P = y.reshape(n, n)
        K = P @ B + S
        return -(A.T @ P + P @ A - K @ Rinv @ K.T + Q).ravel()

    N = int(round(prob.tf / h))
    sol = solve_ivp(rhs, (prob.tf, 0.0), prob.M.ravel(), method="DOP853", rtol=1e-13, atol=1e-14,
                    t_eval=np.linspace(prob.tf, 0.0, N + 1))
    return sol.y.T[::-1].reshape(N + 1, n, n)


def recording(prob, field="f_fn"):
    """``prob`` with its callable ``field`` wrapped to record the number of points of every call, and that record."""
    calls, fn = [], getattr(prob, field)

    def counted(X, U):
        calls.append(len(X))
        return fn(X, U)

    return dataclasses.replace(prob, **{field: counted}), calls


def write_spec(obj, path):
    """Write a ButcherTableau or LQProblem to ``path`` as the JSON spec that ``tableau.read_spec`` reads.

    Arrays go flat and row-major, and ``json`` writes each float by ``repr``,
    so ``load_tableau`` or ``load_problem`` reads back the same doubles.
    """
    if isinstance(obj, ButcherTableau):
        fields = {"s": obj.s, "a": obj.a, "b": obj.b}
    else:
        fields = {"kind": "lq", "n": obj.n, "m": obj.m,
                  **{key: getattr(obj, key) for key in ("A", "B", "Q", "S", "R", "M", "x0")}, "tf": obj.tf}
    spec = {key: value.ravel().tolist() if isinstance(value, np.ndarray) else value for key, value in fields.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**spec, "name": obj.name}, fh)


def sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, h: float):
    """``dlqr.value_sweep`` as a loop of N steps, the reference for its scan.

    It takes and returns the same layouts.  Each K_k is checked by
    ``cholesky`` as the loop reaches it, and its factor kept for the
    caller; the loop's own solves stay LU, and its closed loop is
    G_k + H_k gains_k, so it stays independent of the scan.  It raises
    BackwardFailure at the first step in sweep order (largest k) whose K
    fails, before a NaN can spread.
    """
    Kc, Lc, Wc, G, H = (np.broadcast_to(a, a.shape[:2] + (N,))
                        for a in (*dlqr._stage_products(E, F, Qh, Rh, Sh), G, H))
    n, sm = G.shape[0], F.shape[1]
    M = np.empty((N + 1, n, n))
    M[N] = M_N
    gains, K, factor, A = np.empty((sm, n, N)), np.empty((sm, sm, N)), np.empty((sm, sm, N)), np.empty((n, n, N))
    for k in range(N - 1, -1, -1):
        Gk, Hk = G[..., k], H[..., k]
        HM = Hk.T @ M[k + 1]
        K[..., k] = Kc[..., k] + HM @ Hk
        Lk, bad = dlqr.cholesky(K[..., k:k + 1])
        if bad[0]:
            raise dlqr._hessian_failure(k, h, K, Lc, Wc, G, H)
        factor[..., k:k + 1] = Lk
        lin = Lc[..., k] + HM @ Gk
        sol = np.linalg.solve(K[..., k], lin)
        Mk = Wc[..., k] + Gk.T @ M[k + 1] @ Gk - lin.T @ sol
        M[k] = 0.5 * (Mk + Mk.T)
        gains[..., k] = -sol
        A[..., k] = Gk - Hk @ sol
    return M, gains, K, factor, A
