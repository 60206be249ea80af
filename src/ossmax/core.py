"""Shared types, configuration, and run accounting for the greedy solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

# epsilon floor used when deriving the default outer-round safety cap
EPSILON_FLOOR = 1e-6
# resolution of the step-size search: the shortest step a solver takes
STEP_TOL = 1e-6
# relative slack of value comparisons: gain tests, cutoffs, property checks
VALUE_TOL = 1e-9


class ConfigError(ValueError):
    """A solver configuration violates its domain constraints."""


class SolverError(RuntimeError):
    """A solver cannot continue (bad oracle output, dimension mismatch, ...)."""


class RoundLimitError(SolverError):
    """The outer threshold loop hit the configured safety cap."""


class GridBudgetError(ValueError):
    """A grid enumeration would exceed the point budget."""


def contraction_factor(alpha: float, sigma: float) -> float:
    """Return ``(alpha / (alpha + 1)) ** (2 * sigma)``.

    This is the contraction constant that scales both the selection
    threshold and the achievable ratio ``1 - exp(-factor)``.  It lies in
    (0, 1] and equals 1 exactly when ``sigma == 0``.

    Raises
    ------
    ConfigError
        If ``alpha`` is outside (0, 1], ``sigma`` is negative, or the factor
        underflows to 0 (``sigma`` above about 122.4 at ``alpha = 0.05``,
        or infinite), where the solvers' step bound ``1/factor`` is undefined.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    if not sigma >= 0.0:
        raise ConfigError(f"sigma must be nonnegative, got {sigma}")
    factor = (alpha / (alpha + 1.0)) ** (2.0 * sigma)
    if factor == 0.0:
        raise ConfigError(f"sigma = {sigma} makes the contraction factor underflow to 0 at alpha = {alpha}")
    return factor


def default_outer_round_cap(epsilon: float) -> int:
    """Safety cap on outer threshold rounds: ceil(10 * ln(1/eps_floor) / epsilon)."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(10.0 * math.log(1.0 / EPSILON_FLOOR) / epsilon)


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by all solvers.

    ``alpha`` scales the jump-start point, ``epsilon`` the threshold decay,
    ``eta`` the locality parameter entering the step cap, and ``sigma`` the
    smoothness parameter entering the contraction factor.  ``lipschitz_L``,
    ``diameter_D`` and ``noise_theta`` only matter for the stochastic solver.
    The numeric tolerances are fixed: ``STEP_TOL`` and ``VALUE_TOL`` here,
    ``MEMBERSHIP_TOL`` in :mod:`ossmax.polytopes`.
    """

    alpha: float = 0.05
    epsilon: float = 0.1
    eta: float = 0.0
    sigma: float = 0.0
    max_outer_rounds: Optional[int] = None
    spg_batch: int = 64
    lipschitz_L: float = 0.0
    diameter_D: float = 0.0
    noise_theta: float = 0.0

    def __post_init__(self) -> None:
        contraction_factor(self.alpha, self.sigma)  # validates alpha, sigma
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.eta < math.inf:
            raise ConfigError(f"eta must be finite and nonnegative, got {self.eta}")
        if not self.spg_batch >= 1:
            raise ConfigError(f"spg_batch must be a positive integer, got {self.spg_batch}")
        for name in ("lipschitz_L", "diameter_D", "noise_theta"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.max_outer_rounds is None:
            object.__setattr__(self, "max_outer_rounds", default_outer_round_cap(self.epsilon))
        elif not self.max_outer_rounds >= 1:
            raise ConfigError(f"max_outer_rounds must be positive, got {self.max_outer_rounds}")

    @property
    def mu(self) -> float:
        """Contraction factor derived from ``alpha`` and ``sigma``."""
        return contraction_factor(self.alpha, self.sigma)


def guaranteed_ratio(config: SolverConfig) -> float:
    """Acceptance threshold ``(1 - epsilon) * (1 - exp(-mu))`` for the deterministic solver."""
    return (1.0 - config.epsilon) * (1.0 - math.exp(-config.mu))


@dataclass(frozen=True)
class TraceSnapshot:
    """One accepted step: fill level, threshold, step size, set size, objective value."""

    t: float
    lam: float
    delta: float
    set_size: int
    value: float


@dataclass
class SolverTrace:
    """Run accounting.

    ``adaptive_rounds`` counts oracle phases with no internal sequential
    dependency: one direction-selection scan (which skips the threshold
    levels where nothing qualifies within its one round), one step-size
    search (whose probes are batchable), or one estimator refresh.
    ``outer_rounds`` counts the threshold levels the sweep visited, skipped
    ones included, and ``inner_rounds`` the accepted steps.
    ``value_queries`` and ``gradient_queries`` mirror the oracle's own
    invocation counters; for the stochastic solver a value query is one
    empirical batch and a gradient query is one sample.
    """

    outer_rounds: int = 0
    inner_rounds: int = 0
    adaptive_rounds: int = 0
    value_queries: int = 0
    gradient_queries: int = 0
    history: List[TraceSnapshot] = field(default_factory=list)

    def record(self, t: float, lam: float, delta: float, set_size: int, value: float) -> None:
        self.history.append(TraceSnapshot(float(t), float(lam), float(delta), int(set_size), float(value)))


@dataclass(frozen=True)
class Solution:
    """Feasible point returned by a solver, with its value and trace."""

    x: Vector
    value: float
    trace: SolverTrace
    lambda_final: float
    t_final: float


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Raise SolverError if ``arr`` contains NaN or infinities."""
    if not np.isfinite(arr).all():
        raise SolverError(f"{what} returned non-finite values")
    return arr
