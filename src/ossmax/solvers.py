"""Threshold-greedy ascent solvers and the exhaustive grid oracle.

Both parallel solvers run one threshold sweep down from an upper bound on
the optimum.  Each scan selects every movable coordinate whose gradient
entry clears the threshold, decaying the threshold past the levels where
none does, and the sweep advances all selected coordinates together by the
largest step that keeps a per-step gain test satisfied and stays inside the
region; it decays the threshold when no admissible step remains.  The
deterministic solver feeds the sweep exact gradients and values; the
stochastic solver feeds it a momentum-averaged gradient estimate built from
noisy samples, empirical values, and a gain test widened by a variance
envelope.

Accounting: a value query is one objective evaluation (one empirical batch
for the stochastic solver), a gradient query is one gradient evaluation (one
sample for the stochastic solver), and an adaptive round is one batch of
oracle work with no internal sequential dependency (a selection scan, empty
levels skipped included, a step-size search whose probes are batchable, or
an estimator refresh).  ``outer_rounds`` counts threshold levels, skipped
ones included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (
    STEP_TOL,
    VALUE_TOL,
    ConfigError,
    Solution,
    SolverConfig,
    SolverError,
    SolverTrace,
    GridBudgetError,
    Vector,
    check_finite,
)
from .objectives import OssObjective, StochasticObjective
from .polytopes import Polytope, opt_bounds

GRID_POINT_BUDGET = 10_000_000

# lambda floor guard: treat thresholds below this fraction of the initial
# upper bound as numerically irrelevant even when the lower bound is zero
_LAMBDA_FLOOR_SCALE = 1e-12


def _lambda_floor(mu: float, lower: float, upper: float, polytope: Polytope) -> float:
    """Threshold level below which the outer loop stops.

    Selection compares gradient entries (per-unit-l1-mass quantities)
    against the threshold, while the optimum bounds live at
    total mass up to the max-l1 norm of the region, so the lower bound is
    rescaled by that mass before the ``exp(-mu)`` stopping margin is
    applied.  Rescaling only lowers the floor, i.e. only lengthens the run.
    """
    mass = max(1.0, float(polytope.max_l1_point.sum()))
    return math.exp(-mu) * max(lower / mass, _LAMBDA_FLOOR_SCALE * upper)


@dataclass(frozen=True)
class DirectionSet:
    """Coordinates selected at one threshold level."""

    members: np.ndarray


def momentum_weight(t: float) -> float:
    """Averaging weight ``(4 / (t + 8)) ** (2/3)``; lies in (0, 1] for t >= 0."""
    return (4.0 / (t + 8.0)) ** (2.0 / 3.0)


def update_gradient_estimate(d: Vector, sample, t: float) -> Vector:
    """One momentum update of the estimate ``d``: ``(1 - rho_t) d + rho_t * sample``."""
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    rho = momentum_weight(t)
    sample = np.asarray(sample, dtype=float)
    return (1.0 - rho) * d + rho * sample


def kappa_envelope(
    t: float, theta: float, lipschitz: float, diameter: float, grad_gap_sq: float = 0.0
) -> float:
    """Variance-decay envelope for the estimate's mean squared error.

    ``max(5 * grad_gap_sq, 16 theta^2 + 2 L^2 D^2) / (t + 9)^(2/3)`` where
    ``grad_gap_sq`` is the squared initial gap ``||grad F(x0) - d0||^2`` when
    known.  Solvers use the configured-constants branch only; tests with
    ground-truth access may supply the gap.  A NaN in either term makes
    the envelope NaN.
    """
    gap_term = 5.0 * grad_gap_sq
    constants_term = 16.0 * theta**2 + 2.0 * (lipschitz**2) * (diameter**2)
    # max() would drop a NaN second argument: its comparison fails
    numerator = gap_term if gap_term > constants_term or math.isnan(gap_term) else constants_term
    return numerator / (t + 9.0) ** (2.0 / 3.0)


def _cutoff(lam: float, cfg: SolverConfig) -> float:
    """The selection cutoff ``(1-eps) * mu * lam``, less the value tolerance."""
    return (1.0 - cfg.epsilon) * cfg.mu * lam - VALUE_TOL


def select_directions(
    gradient,
    lam: float,
    cfg: SolverConfig,
    trace: Optional[SolverTrace] = None,
    candidates: Optional[np.ndarray] = None,
) -> DirectionSet:
    """All coordinates whose gradient entry clears ``(1-eps) * mu * lam``.

    The comparisons form one batched scan with no cross-dependency, so a
    call counts exactly one adaptive round on the trace.  ``candidates``
    optionally restricts selection to coordinates that can still move.
    The sweep skips the levels where nothing would clear the cutoff before
    it calls this, within the same round (see :func:`_threshold_sweep`).
    """
    scores = np.asarray(gradient, dtype=float)
    mask = scores >= _cutoff(lam, cfg)
    if candidates is not None:
        mask &= candidates
    if trace is not None:
        trace.adaptive_rounds += 1
    return DirectionSet(members=np.flatnonzero(mask))


def _moved(x: Vector, members: np.ndarray, delta: float) -> Vector:
    """``x + delta * 1_S`` for ``S = members``."""
    y = x.copy()
    y[members] += delta
    return y


def _step_bound(cfg: SolverConfig, dimension: int, power: float) -> float:
    """An oracle's constant step bound: ``min(1/(n*eta) if eta > 0, 1/(mu^power (1-eps)))``.

    Raises ConfigError when ``mu^power (1-eps)`` underflows to 0 although
    ``mu`` is positive: the stochastic solver's ``mu^2`` does once ``sigma``
    exceeds about 61.2 at ``alpha = 0.05``.
    """
    scale = cfg.mu**power * (1.0 - cfg.epsilon)
    if scale == 0.0:
        term = "the stochastic solver's mu^2" if power == 2.0 else "mu"
        raise ConfigError(f"sigma = {cfg.sigma} at alpha = {cfg.alpha} makes {term} (1 - epsilon) underflow to 0")
    bound = 1.0 / scale
    return min(bound, 1.0 / (dimension * cfg.eta)) if cfg.eta > 0.0 else bound


def _line_search(
    evaluate: Callable[[np.ndarray], float],
    fx: float,
    x: Vector,
    members: np.ndarray,
    rate: float,
    bound: float,
    polytope: Polytope,
    trace: Optional[SolverTrace],
) -> Tuple[float, Optional[float]]:
    """Largest step in [STEP_TOL, cap] for ``x[members]`` whose gain beats ``rate * delta``.

    The cap is the oracle's constant step ``bound`` or the region's
    headroom for the group, whichever is smaller; the headroom keeps every
    step inside the box.  Probes the cap first (so flat gain tests return
    the cap exactly), then doubles from STEP_TOL and bisects to STEP_TOL
    resolution.  Returns (step, value there), or (0, None) when the group is
    empty, the cap is below STEP_TOL, or even STEP_TOL fails, signalling a
    stale set.  All probes of one search are batchable, so a search that
    probes counts one adaptive round.
    """
    if members.size == 0:
        return 0.0, None
    cap = min(bound, polytope.headroom(x, members))
    if cap < STEP_TOL:
        return 0.0, None
    if trace is not None:
        trace.adaptive_rounds += 1

    slack = VALUE_TOL * (1.0 + abs(fx))

    def probe(delta: float) -> float:
        return evaluate(_moved(x, members, delta))

    def passes(delta: float, f_at: float) -> bool:
        return f_at - fx >= rate * delta - slack

    f_cap = probe(cap)
    if passes(cap, f_cap):
        return cap, f_cap
    f_lo = probe(STEP_TOL)
    if not passes(STEP_TOL, f_lo):
        return 0.0, None
    lo, f_best = STEP_TOL, f_lo
    hi = cap
    d = STEP_TOL
    while 2.0 * d < hi:
        d = 2.0 * d
        f_d = probe(d)
        if passes(d, f_d):
            lo, f_best = d, f_d
        else:
            hi = d
            break
    while hi - lo > STEP_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = probe(mid)
        if passes(mid, f_mid):
            lo, f_best = mid, f_mid
        else:
            hi = mid
    return lo, f_best


class _Exact:
    """Exact oracle access, for the deterministic solver and the serial baseline.

    A direction is the exact gradient at ``x`` (the clock is unused) and
    counts one gradient query; the gain test is ``mu (1-eps)^2 lam`` on
    exact values, and the search's value at the accepted step becomes the
    current value.  Steps are bounded by ``min(1/(n*eta), 1/(mu (1-eps)))``.
    """

    def __init__(self, obj: OssObjective, cfg: SolverConfig, trace: SolverTrace):
        self.obj, self.cfg, self.trace = obj, cfg, trace
        self.step_bound = _step_bound(cfg, obj.dimension, 1.0)

    def value(self, point) -> float:
        self.trace.value_queries += 1
        return self.obj.value(point)

    def direction(self, x: Vector, clock: float) -> Vector:
        self.trace.gradient_queries += 1
        return self.obj.gradient(x)

    def test(self, x: Vector, fx: float, lam: float, t: float) -> Tuple[float, float]:
        """(rate, base value) of a step search from ``x``."""
        return self.cfg.mu * (1.0 - self.cfg.epsilon) ** 2 * lam, fx

    def settle(self, x: Vector, f_step: float) -> float:
        return f_step


class _Sampled:
    """Sample access, for the stochastic solver.

    Each direction asked for folds one noisy sample at ``x`` into the
    momentum-averaged estimate, weighted by ``clock``, and counts one
    gradient query and one adaptive round.  The gain test is widened by
    ``sqrt(kappa) * n / mu``, with ``kappa`` the variance envelope from the
    configured constants, and each search starts from a fresh empirical
    mean of ``spg_batch`` samples at ``x``.  Reported values read the
    wrapped ground truth for monitoring; the solver's decisions never touch
    it.  Steps are bounded by ``min(1/(n*eta), 1/(mu^2 (1-eps)))``.
    """

    def __init__(self, sobj: StochasticObjective, cfg: SolverConfig, trace: SolverTrace):
        self.sobj, self.cfg, self.trace = sobj, cfg, trace
        self.step_bound = _step_bound(cfg, sobj.dimension, 2.0)
        if not math.isfinite(kappa_envelope(0.0, cfg.noise_theta, cfg.lipschitz_L, cfg.diameter_D)):
            raise SolverError("variance envelope is non-finite; check L, D, theta")
        self.d = np.zeros(sobj.dimension)  # the momentum-averaged gradient estimate

    def value(self, point) -> float:
        self.trace.value_queries += 1
        v = self.sobj.empirical_value(point, self.cfg.spg_batch)
        if not math.isfinite(v):
            raise SolverError("empirical value is non-finite")
        return v

    def direction(self, x: Vector, clock: float) -> Vector:
        self.trace.gradient_queries += 1
        self.trace.adaptive_rounds += 1
        sample = check_finite(self.sobj.sample_gradient(x), "stochastic gradient sample")
        self.d = update_gradient_estimate(self.d, sample, clock)
        return self.d

    def test(self, x: Vector, fx: float, lam: float, t: float) -> Tuple[float, float]:
        cfg = self.cfg
        mu, n = cfg.mu, len(x)
        kappa = kappa_envelope(t, cfg.noise_theta, cfg.lipschitz_L, cfg.diameter_D)
        rate = mu * (1.0 - cfg.epsilon) ** 2 * (lam + math.sqrt(kappa) * n / mu)
        return rate, self.value(x)

    def settle(self, x: Vector, f_step: float) -> float:
        return self.sobj.ground_truth.value(x)


def _check_dimensions(obj_dimension: int, polytope: Polytope) -> None:
    if obj_dimension != polytope.dimension:
        raise SolverError(f"objective dimension {obj_dimension} != polytope dimension {polytope.dimension}")


def _threshold_sweep(
    polytope: Polytope,
    cfg: SolverConfig,
    trace: SolverTrace,
    oracle,
    x: Vector,
    t: float,
    fx: float,
    bounds: Tuple[float, float],
) -> Solution:
    """The threshold sweep shared by both parallel solvers.

    Starts the threshold at the optimum's upper bound.  At each level it
    selects every movable coordinate whose ``oracle`` direction clears the
    cutoff, moves the selected coordinates together by the largest step that
    passes the oracle's gain test, and selects again at the same level; it
    decays the threshold by ``1 - eps`` when no step remains.  A scan where nothing
    would clear the cutoff first decays the threshold past those empty
    levels, within its one adaptive round: no oracle is called and nothing
    changes between them.  It stops when no coordinate can move or the
    threshold falls below ``exp(-mu)`` times the lower bound.
    ``outer_rounds`` counts the threshold levels visited, skipped ones
    included.

    Termination: every level visited holds ``lam >= floor``, and the floor
    (``_lambda_floor``) is at least ``exp(-mu) * 1e-12 * upper``.  The
    threshold starts at ``upper`` and each level multiplies it by the float
    ``decay = 1 - eps``, which is below 1 (``SolverConfig`` refuses an
    ``eps`` with ``1 - eps == 1``).  So a sweep visits at most
    ``1 + (mu + ln 1e12) / (-ln decay)`` levels, fewer than
    ``1 + 28.7 / eps`` as ``mu <= 1`` and ``-ln(1 - eps) >= eps``; the
    sweep accounting tests check this bound on random runs.

    The ``oracle`` is asked for a direction at the start point and after
    every accepted step, with the clock from before the step, but only when
    some coordinate can move.
    """
    lower, upper = bounds
    lam = upper
    trace.record(t, lam, 0.0, 0, fx)
    if upper <= VALUE_TOL:
        # objective is flat at the top of the box; nothing to gain
        return Solution(x=x, value=fx, trace=trace, lambda_final=lam, t_final=t)

    def scan(direction: Vector) -> np.ndarray:
        nonlocal lam
        # skip the levels where no movable entry clears the cutoff; if they
        # run down to the floor, the scan comes up empty at the last level
        # above it and the sweep ends.  The test is _cutoff(lam, cfg) written
        # out with its factor taken once, as a desk scan skips about 8 levels.
        best = direction[movable].max()
        while best < scale * lam - VALUE_TOL and lam * decay >= floor:
            lam *= decay
            trace.outer_rounds += 1
        return select_directions(direction, lam, cfg, trace=trace, candidates=movable).members

    decay = 1.0 - cfg.epsilon
    scale = decay * cfg.mu  # (1 - eps) * mu, multiplied as _cutoff does
    floor = _lambda_floor(cfg.mu, lower, upper, polytope)
    movable = polytope.room(x) >= STEP_TOL
    if movable.any():
        direction = oracle.direction(x, t)

    while lam >= floor and movable.any():
        trace.outer_rounds += 1
        members = scan(direction)
        while members.size:
            rate, f_base = oracle.test(x, fx, lam, t)
            delta, f_step = _line_search(
                oracle.value, f_base, x, members, rate, oracle.step_bound, polytope, trace
            )
            if delta <= 0.0:
                break  # stale set at this threshold
            x = _moved(x, members, delta)
            clock, t = t, float(x.max())
            fx = oracle.settle(x, f_step)
            trace.inner_rounds += 1
            trace.record(t, lam, delta, members.size, fx)
            movable = polytope.room(x) >= STEP_TOL
            if not movable.any():
                break
            direction = oracle.direction(x, clock)
            members = scan(direction)
        lam *= decay

    return Solution(x=x, value=fx, trace=trace, lambda_final=lam, t_final=t)


def parallel_greedy(obj: OssObjective, polytope: Polytope, cfg: SolverConfig) -> Solution:
    """Deterministic jump-started threshold greedy.

    Starts from ``alpha`` times the region's max-l1 point and runs the
    threshold sweep on exact gradients and values.  Raises SolverError on a
    dimension mismatch or non-finite oracle output.
    """
    _check_dimensions(obj.dimension, polytope)
    trace = SolverTrace()
    oracle = _Exact(obj, cfg, trace)
    x = cfg.alpha * polytope.max_l1_point
    bounds = opt_bounds(oracle, polytope)
    # at alpha = 1 the start is the max-l1 point, whose value is the lower bound
    fx = bounds[0] if cfg.alpha == 1.0 else oracle.value(x)
    return _threshold_sweep(polytope, cfg, trace, oracle, x, cfg.alpha, fx, bounds)


def stochastic_parallel_greedy(
    sobj: StochasticObjective, polytope: Polytope, cfg: SolverConfig
) -> Solution:
    """Threshold greedy under sample access to values and gradients.

    Starts from zero with a zero gradient estimate and runs the threshold
    sweep on the momentum estimate, which folds in one sample before the
    first selection (a zero estimate selects nothing) and after every
    accepted step that leaves some coordinate movable.  The per-step gain
    requirement is widened by ``sqrt(kappa) * n / mu``, where ``kappa`` is
    the variance envelope from the configured constants, and objective
    values in the gain test and the optimum bracket are empirical means of
    ``spg_batch`` fresh samples.

    Reported values and history snapshots read the wrapped ground truth for
    monitoring; the solver's decisions never touch it.
    """
    _check_dimensions(sobj.dimension, polytope)
    trace = SolverTrace()
    oracle = _Sampled(sobj, cfg, trace)
    x = np.zeros(polytope.dimension)
    bounds = opt_bounds(oracle, polytope)
    return _threshold_sweep(polytope, cfg, trace, oracle, x, 0.0, sobj.ground_truth.value(x), bounds)


def serial_greedy(obj: OssObjective, polytope: Polytope, cfg: SolverConfig) -> Solution:
    """Single-coordinate ascent with the fixed conservative step ``eps / n``.

    Picks the movable coordinate with the largest gradient entry each step.
    Every step is its own oracle phase, so the adaptive-round count grows
    with the step count; this is the baseline the parallel solver's
    adaptivity is measured against, not a solver with guarantees.
    """
    _check_dimensions(obj.dimension, polytope)
    n = polytope.dimension
    trace = SolverTrace()
    oracle = _Exact(obj, cfg, trace)

    x = cfg.alpha * polytope.max_l1_point
    mass_scale = float(polytope.max_l1_point.sum())
    if mass_scale <= 0.0:
        raise SolverError("max-l1 point has zero mass")
    step = cfg.epsilon / n

    fx = oracle.value(x)
    t = float(x.sum()) / mass_scale
    trace.record(t, 0.0, 0.0, 0, fx)

    step_limit = 4 * math.ceil(n * mass_scale / step) + 16 * n
    for _ in range(step_limit):
        room = polytope.room(x)
        movable = room >= STEP_TOL
        if not movable.any():
            break
        trace.adaptive_rounds += 1
        g = oracle.direction(x, t)
        scores = np.where(movable, g, -np.inf)
        best = int(np.argmax(scores))
        if scores[best] <= VALUE_TOL:
            break  # no ascent direction left
        delta = min(step, float(room[best]))
        if delta < STEP_TOL:
            break
        x = _moved(x, best, delta)
        fx = oracle.value(x)
        t = float(x.sum()) / mass_scale
        trace.inner_rounds += 1
        trace.record(t, 0.0, delta, 1, fx)
    else:
        raise SolverError("serial baseline failed to terminate within its step limit")

    return Solution(x=x, value=fx, trace=trace, lambda_final=0.0, t_final=t)


def grid_maximum(obj: OssObjective, polytope: Polytope, resolution: int) -> float:
    """Exhaustive maximum of the objective over the feasible grid.

    Evaluates every feasible point of the lattice with spacing
    ``1/resolution`` inside the unit box and returns the best objective
    value.  The value is a certified lower bound on the optimum; for smooth
    objectives with bounded gradients the gap is at most
    ``n * max|grad| / resolution``.

    The lattice is grown one coordinate at a time: the region gives each
    index prefix the interval of digits its next coordinate may take, and
    the walk writes the prefix once per digit of it.  On the last
    coordinate the interval is exact (:meth:`Polytope._lattice_interval`;
    a region without a rule of its own has its complete rows tested), so
    the rows kept are the feasible points, each evaluated once and tested
    for membership by nothing else, and the cost follows the
    feasible count rather than ``(resolution + 1) ** n``.  The points are
    those of full enumeration, in its order; the maximum can differ from it
    in the last ulp or two, because a batched evaluation's rounding may
    depend on a row's position in its batch.

    Raises GridBudgetError when the lattice would exceed the point budget
    or the dimension exceeds 8.
    """
    n = polytope.dimension
    if obj.dimension != n:
        raise ValueError(f"objective dimension {obj.dimension} != polytope dimension {n}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if n > 8:
        raise GridBudgetError(f"grid oracle supports n <= 8, got {n}")
    per_axis = resolution + 1
    total = per_axis**n
    if total > GRID_POINT_BUDGET:
        raise GridBudgetError(f"grid of {total} points exceeds the budget of {GRID_POINT_BUDGET}")

    levels = np.linspace(0.0, 1.0, per_axis)
    best = -math.inf
    for feasible in _lattice_candidates(polytope, levels):
        if len(feasible):
            best = max(best, float(obj.value_many(levels[feasible]).max()))
    if not math.isfinite(best):
        raise SolverError("no feasible grid points")
    return best


def _lattice_candidates(polytope: Polytope, levels: np.ndarray):
    """Blocks of the index rows of the feasible lattice points.

    Rows come in lexicographic order; a block has at most
    ``len(levels) ** (n - 1)`` rows (``len(levels)`` when ``n == 1``).
    """
    n, per_axis = polytope.dimension, len(levels)
    dtype = np.min_scalar_type(per_axis - 1)
    tested = not polytope._lattice_rule_covers_rows()

    def grow(prefixes):
        # each prefix once per digit of its range; the digits are the running sum, in
        # their dtype (so modulo its range), of 1s that jump from a range's hi to the next's lo
        lo, hi = polytope._lattice_interval(prefixes, levels)
        live = lo <= hi
        if not live.all():
            prefixes, lo, hi = prefixes[live], lo[live], hi[live]
        counts = hi - lo + 1
        widened = np.empty((len(prefixes), prefixes.shape[1] + 1), dtype=dtype)
        widened[:, :-1] = prefixes
        grown = np.repeat(widened, counts, axis=0)
        steps = np.ones(len(grown), dtype=dtype)
        lo[1:] -= hi[:-1]
        steps[np.cumsum(counts) - counts] = lo
        np.cumsum(steps, dtype=dtype, out=grown[:, -1])
        return grown[polytope._satisfies_many(levels[grown])] if tested and grown.shape[1] == n else grown

    prefixes = np.empty((1, 0), dtype=dtype)
    for _ in range(n - 1):
        prefixes = grow(prefixes)
    step = per_axis ** max(n - 2, 0)
    for start in range(0, len(prefixes), step):
        yield grow(prefixes[start : start + step])
