"""Classical Runge-Kutta machinery: tableaus, stepping, integration, order checks.

This module is the mathematical oracle for the network step blocks.  All
coefficients are stored at float64 regardless of the network dtype.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model_spec import ConfigError, as_integer, as_number, read_fields


class StageSolveError(RuntimeError):
    """Implicit stage system failed to converge within the iteration cap."""

    def __init__(self, iterations, residual):
        super().__init__(
            f"implicit stage solve did not converge in {iterations} iterations "
            f"(last stage change {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (s, a, b, c) defining one Runge-Kutta method."""

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        s = self.s
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ValueError(f"tableau {self.name}: inconsistent sizes "
                             f"a{self.a.shape}, b{self.b.shape}, c{self.c.shape}")
        if abs(self.b.sum() - 1.0) > 1e-12:
            raise ValueError(f"tableau {self.name}: weights must sum to 1, got {self.b.sum()!r}")
        if np.max(np.abs(self.c - self.a.sum(axis=1))) > 1e-12:
            raise ValueError(f"tableau {self.name}: nodes must equal row sums of a")

    @property
    def s(self):
        return len(self.b)

    @property
    def explicit(self):
        # explicit iff a_ij = 0 whenever j >= i (strictly lower triangular a)
        return bool(np.all(np.triu(self.a) == 0))


_SQRT3_6 = math.sqrt(3.0) / 6.0

_TABLEAUS = {
    "euler": ButcherTableau("euler", [[0.0]], [1.0], [0.0]),
    "heun": ButcherTableau("heun", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0]),
    "rk4": ButcherTableau(
        "rk4",
        [[0.0, 0.0, 0.0, 0.0],
         [0.5, 0.0, 0.0, 0.0],
         [0.0, 0.5, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0]],
        [1 / 6, 1 / 3, 1 / 3, 1 / 6],
        [0.0, 0.5, 0.5, 1.0]),
    "implicit_midpoint": ButcherTableau("implicit_midpoint", [[0.5]], [1.0], [0.5]),
    # 2-stage Gauss-Legendre collocation, order 4
    "gauss2": ButcherTableau(
        "gauss2",
        [[0.25, 0.25 - _SQRT3_6], [0.25 + _SQRT3_6, 0.25]],
        [0.5, 0.5],
        [0.5 - _SQRT3_6, 0.5 + _SQRT3_6]),
}


def tableau_library(name):
    """Return one of the built-in tableaus by name."""
    try:
        return _TABLEAUS[name]
    except KeyError:
        raise KeyError(f"unknown tableau {name!r}; known: {sorted(_TABLEAUS)}") from None


def tableau_names():
    return sorted(_TABLEAUS)


@dataclass
class OdeProblem:
    """Initial value problem y' = f(t, y), y(t0) = y0, with optional exact solution."""

    f: Callable
    y0: np.ndarray
    t0: float = 0.0
    exact: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=np.float64))


# named nonstiff test problems with known exact solutions
_PROBLEMS = {
    "decay": OdeProblem(lambda t, y: -y, [1.0], 0.0,
                        exact=lambda t: np.array([math.exp(-t)]), name="decay"),
    "logistic": OdeProblem(lambda t, y: y * (1.0 - y), [0.2], 0.0,
                           exact=lambda t: np.array([1.0 / (1.0 + (1.0 / 0.2 - 1.0) * math.exp(-t))]),
                           name="logistic"),
}


def problem_library(name):
    """Return one of the built-in test problems by name."""
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(_PROBLEMS)}") from None


def problem_names():
    return sorted(_PROBLEMS)


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)

    @property
    def final_state(self):
        return self.states[-1]


# fixed-point iteration of the implicit stages: converged once no stage slope
# moves by STAGE_TOL, failed after STAGE_MAX_ITER sweeps
STAGE_TOL = 1e-12
STAGE_MAX_ITER = 100


def solve_implicit_stages(tab, f, t_n, y_n, h):
    s = tab.s
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.stack([np.asarray(f(t_n + tab.c[i] * h, y_n), dtype=np.float64)
                      for i in range(s)])
        for it in range(STAGE_MAX_ITER):
            znew = np.empty_like(z)
            for i in range(s):
                yi = y_n + h * (tab.a[i] @ z)
                znew[i] = f(t_n + tab.c[i] * h, yi)
            delta = np.max(np.abs(znew - z))
            z = znew
            if delta < STAGE_TOL:
                return z
            if not np.isfinite(delta):
                raise StageSolveError(it + 1, delta)
    raise StageSolveError(STAGE_MAX_ITER, delta)


def rk_step(tab, f, t_n, y_n, h):
    """Advance one time-step: y_{n+1} = y_n + h * sum_i b_i z_i."""
    if h == 0:
        raise ValueError("rk_step: h must be nonzero")
    y_n = np.asarray(y_n, dtype=np.float64)
    if tab.explicit:
        z = np.empty((tab.s, y_n.size))
        for i in range(tab.s):
            yi = y_n + h * (tab.a[i, :i] @ z[:i]) if i else y_n.copy()
            z[i] = f(t_n + tab.c[i] * h, yi)
    else:
        z = solve_implicit_stages(tab, f, t_n, y_n, h)
    return y_n + h * (tab.b @ z)


def stage_residual(tab, f, t_n, y_n, h, z):
    """Max-norm defect of stage slopes against their defining equations."""
    res = 0.0
    for i in range(tab.s):
        yi = y_n + h * (tab.a[i] @ z)
        res = max(res, np.max(np.abs(z[i] - f(t_n + tab.c[i] * h, yi))))
    return res


def integrate(tab, problem, h, n_steps):
    """Apply rk_step n_steps times with constant step size h."""
    if n_steps < 1:
        raise ValueError(f"integrate: n_steps must be >= 1, got {n_steps}")
    y = problem.y0.copy()
    traj = Trajectory([problem.t0], [y.copy()])
    for n in range(n_steps):
        t_n = problem.t0 + n * h
        y = rk_step(tab, problem.f, t_n, y, h)
        traj.times.append(problem.t0 + (n + 1) * h)
        traj.states.append(y.copy())
    return traj


def global_error(tab, problem, h, t_end):
    """Max-norm error against the exact solution at t_end (t_end - t0 = n * h)."""
    span = t_end - problem.t0
    n_steps = round(span / h)
    if abs(n_steps * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"global_error: ({t_end} - {problem.t0}) is not a multiple of h={h}")
    traj = integrate(tab, problem, h, n_steps)
    return float(np.max(np.abs(traj.final_state - problem.exact(t_end))))


MAX_STUDY_STEPS = 1 << 16   # integrator steps of one order study, summed over its levels


@dataclass
class OrderStudy:
    """Step sizes h0, h0/2, ... over ``levels`` levels on [t0, t0 + 1].

    ``__post_init__`` checks each field by its type's reader, and bounds the
    step count before anything runs: it doubles with each level.  A
    rejected value raises a ``ConfigError`` whose ``key`` is its field."""

    h0: float = 0.1
    levels: int = 4

    def __post_init__(self):
        read_fields(self, {int: as_integer, float: as_number})
        most = MAX_STUDY_STEPS.bit_length() - 1   # levels of h0 = 1 that fit the bound
        if not 3 <= self.levels <= most:
            raise ConfigError(f"need at least 3 levels and at most {most}, got {self.levels}",
                              "levels")
        if not 0 < self.h0 <= 1:
            raise ConfigError(f"must be in (0, 1], got {self.h0}", "h0")
        steps = (2 ** self.levels - 1) / self.h0
        if steps > MAX_STUDY_STEPS:
            raise ConfigError(f"{self.h0} over {self.levels} levels takes {steps:.3g} steps, "
                              f"more than {MAX_STUDY_STEPS}", "h0")
        if abs(round(1 / self.h0) * self.h0 - 1) > 1e-9:
            raise ConfigError(f"must divide [t0, t0 + 1] into whole steps, got {self.h0}", "h0")


def order_study(tab, problem, h0, levels):
    """Errors at t0 + 1 for h0, h0/2, ... plus the mean observed convergence order."""
    OrderStudy(h0, levels)  # raises ConfigError before any step of a bad or too long study
    if problem.exact is None:
        raise ValueError("order_study: problem has no exact solution")
    t_end = problem.t0 + 1.0
    hs = [h0 / 2 ** lv for lv in range(levels)]
    errors = [global_error(tab, problem, h, t_end) for h in hs]
    if any(e == 0.0 for e in errors):
        raise ValueError("order_study: zero global error encountered; "
                         "pick a harder problem or larger h0")
    ratios = [math.log2(errors[i] / errors[i + 1]) for i in range(levels - 1)]
    return hs, errors, sum(ratios) / len(ratios)


def estimate_order(tab, problem, h0, levels):
    """Empirical convergence order: mean of log2(err(h)/err(h/2)) over halvings."""
    return order_study(tab, problem, h0, levels)[2]

