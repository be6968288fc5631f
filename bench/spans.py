"""Calibration clock and layer spans for the benchmark.

A ``Recorder`` times units.  While a unit runs, a wall-clock timer signal
interrupts it every ``CALIBRATION_PERIOD_S``; the handler runs the calibration
kernel with the unit's clock paused.  Each stretch of the unit between two
kernel runs is divided by the mean of those two kernel times, so a unit is
timed against the CPU rate of the moment, whatever the layers it calls.

Every layer function of ``LAYERS`` is rebound on its module for the length
of a run.  rklqr calls its own layers through module globals, so internal
calls reach the wrappers too.  While tracing, a wrapper records a span
(name, start, end, parent, unit) on the unit's clock.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

LAYERS = {
    "cli": ("solve_problem", "write_trajectory_csv", "run_order_study",
            "build_reference", "max_node_error"),
    "dlqr": ("assemble", "riccati_backward", "rollout", "discrete_cost"),
    "ilqr": ("solve", "rollout", "linearize", "gradient", "backward", "direction",
             "line_search", "costates", "node_controls"),
}

# Longest stretch of a unit between two kernel runs.  On the shared 2-core
# machine the bounds were fitted on, the CPU rate changes within a fraction
# of a second.  Stretches of 0.3 to 1 s, cut at layer boundaries, left
# calibrated ILQR and order-study units 4-6 % apart (coefficient of
# variation); stretches of 0.1 s cut by the timer left them 1-2 % apart.
CALIBRATION_PERIOD_S = 0.1


class Kernel:
    """Fixed calibration work in the solvers' mix of small dense linear algebra.

    One run does small LU and Cholesky solves with matrix products, and a
    2-state loop that builds arrays from Python floats as the pendulum
    callbacks do.  The parts drift differently against the solvers, so their
    sum follows them better than any one part.  Calling it returns its wall
    time in seconds, about 4 ms.
    """

    def __init__(self):
        rng = np.random.default_rng(20211231)
        self.mats = [rng.standard_normal((k, k)) + k * np.eye(k) for k in (2, 4, 8)]
        self.spd = [A @ A.T + np.eye(A.shape[0]) for A in self.mats]
        self.vecs = [rng.standard_normal(k) for k in (2, 4, 8)]

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(25):
            for A, v in zip(self.mats, self.vecs):
                y = np.linalg.solve(A, v)
                acc += float(y @ ((A @ A.T) @ v))
        for _ in range(10):
            for A, S, v in zip(self.mats, self.spd, self.vecs):
                y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), v)
                acc += float(y @ ((A.T @ S @ A) @ v))
        x = self.vecs[0]
        for i in range(250):
            z = np.array([x[1], math.sin(x[0]) + 0.1 * i])
            J = np.array([[0.0, 1.0], [math.cos(z[0]), 0.0]])
            x = 0.5 * (J @ z) / (1.0 + abs(z[0]))
            acc += float(x[0])
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise ArithmeticError("calibration kernel lost precision")
        return elapsed


class Recorder:
    """Unit clock, calibration segments and (optionally) spans of one run.

    Units are timed only inside ``with recorder:``, which owns the SIGALRM
    handler and the real-time interval timer of the process.
    """

    def __init__(self, kernel, period=CALIBRATION_PERIOD_S, observers=None):
        self.kernel = kernel
        self.period = period
        self.observers = observers or {}
        self.kernel_times = []
        self.spans = []  # [name, start, end, parent index, unit, observed value]
        self.tracing = False
        self.unit = -1
        self._stack = []
        self._paused = 0.0
        self._in_unit = False
        self._busy = False
        self._mark = 0.0
        self._last = None
        self._segments = []
        self._previous_handler = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        self._in_unit = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None

    def clock(self) -> float:
        """Wall time with every kernel run taken out."""
        return time.perf_counter() - self._paused

    def _calibrate(self):
        self._busy = True
        now = time.perf_counter()
        c = self.kernel()
        self.kernel_times.append(c)
        if self._in_unit:
            self._segments.append((now - self._mark, self._last, c))
        self._last = c
        self._mark = time.perf_counter()
        self._paused += self._mark - now
        self._busy = False

    def _tick(self, signum, frame):
        # A signal that was pending when the timer was disarmed, or that
        # lands in a kernel run, cuts no segment.
        if self._in_unit and not self._busy:
            self._calibrate()
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def begin_unit(self, unit: int, tracing: bool):
        if self._previous_handler is None:
            raise RuntimeError("units are timed only inside 'with recorder:'")
        self._calibrate()
        self._segments = []
        self._in_unit = True
        self.unit = unit
        self.tracing = tracing
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def end_unit(self):
        """Close the unit; returns (wall seconds, calibrated time, segment count)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._calibrate()
        self._in_unit = False
        self.tracing = False
        wall = sum(seg for seg, _, _ in self._segments)
        cal = sum(seg / (0.5 * (before + after)) for seg, before, after in self._segments)
        return wall, cal, len(self._segments)

    def wrap(self, name, fn):
        observe = self.observers.get(name)

        def layer(*args, **kwargs):
            if not self.tracing:
                return fn(*args, **kwargs)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, self.unit, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    span[5] = observe(out)
                return out
            finally:
                self._stack.pop()
                span[2] = self.clock()

        layer.__wrapped__ = fn
        layer.__name__ = getattr(fn, "__name__", name)
        layer.__doc__ = getattr(fn, "__doc__", None)
        return layer


@contextmanager
def wrapped_layers(modules, recorder):
    """Rebind every present layer function to a recorder wrapper.

    Yields the names of layers the package does not have (renamed or
    removed); every wrapped function is restored on exit.
    """
    originals = []
    absent = []
    try:
        for modname, names in LAYERS.items():
            mod = modules.get(modname)
            for fname in names:
                fn = getattr(mod, fname, None) if mod is not None else None
                if not callable(fn):
                    absent.append(f"{modname}.{fname}")
                    continue
                originals.append((mod, fname, fn))
                setattr(mod, fname, recorder.wrap(f"{modname}.{fname}", fn))
        yield absent
    finally:
        for mod, fname, fn in reversed(originals):
            setattr(mod, fname, fn)


class CallCounter:
    """Counts calls of the problem callables it wraps."""

    def __init__(self):
        self.counts = {"f": 0, "jac_x": 0, "jac_u": 0}

    def wrap(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted
