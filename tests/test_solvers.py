import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ossmax.solvers

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    ConfigError,
    CoverageMultilinearObjective,
    GridBudgetError,
    MonotoneLinearPolytope,
    OssObjective,
    Polytope,
    SolverConfig,
    SolverError,
    SolverTrace,
    StochasticObjective,
    grid_maximum,
    kappa_envelope,
    make_coverage_instance,
    make_semimetric_instance,
    momentum_weight,
    opt_bounds,
    parallel_greedy,
    random_semimetric_instance,
    select_directions,
    serial_greedy,
    stochastic_parallel_greedy,
    update_gradient_estimate,
)

from ossmax.core import STEP_TOL, VALUE_TOL
from ossmax.polytopes import MEMBERSHIP_TOL
from ossmax.solvers import _LAMBDA_FLOOR_SCALE, _Exact, _lambda_floor, _lattice_candidates, _line_search

from helpers import grid_max_brute, iter_grid


def level_bound(cfg):
    """The most threshold levels a sweep can visit: from the upper bound,
    the threshold falls by the float decay ``1 - eps`` per level and stays
    at or above the floor, at least ``exp(-mu) * 1e-12`` of that bound."""
    return 1.0 + (cfg.mu - math.log(_LAMBDA_FLOOR_SCALE)) / -math.log(1.0 - cfg.epsilon)


def linear_objective(n, coeffs=None):
    coeffs = np.ones(n) if coeffs is None else np.asarray(coeffs, float)
    if n == 1:
        return CoverageMultilinearObjective(coeffs, [[0]])
    return make_semimetric_instance(np.zeros((n, 1)), coeffs)


@contextlib.contextmanager
def selection_log():
    """Log ``(lam, gradient, candidates, members)`` for every scan of the
    sweep that selects something, by wrapping ``select_directions``."""
    log = []
    select = ossmax.solvers.select_directions

    def logged(gradient, lam, cfg, trace=None, candidates=None):
        chosen = select(gradient, lam, cfg, trace=trace, candidates=candidates)
        if chosen.members.size:
            log.append((lam, np.array(gradient), np.array(candidates), chosen.members.copy()))
        return chosen

    with mock.patch.object(ossmax.solvers, "select_directions", logged):
        yield log


class TestSelectDirections:
    def test_zero_gradient_selects_nothing(self):
        cfg = SolverConfig(epsilon=0.1)
        out = select_directions(np.zeros(4), lam=1.0, cfg=cfg)
        assert out.members.size == 0

    def test_all_qualify_at_matching_threshold(self):
        cfg = SolverConfig(epsilon=0.1, alpha=1.0, sigma=1.0)  # mu = 0.25
        lam = 1.0 / cfg.mu
        out = select_directions(np.ones(5), lam=lam, cfg=cfg)
        assert np.array_equal(out.members, np.arange(5))

    def test_partial_selection(self):
        cfg = SolverConfig(epsilon=0.1)  # mu = 1
        out = select_directions(np.array([1.0, 0.5]), lam=1.0, cfg=cfg)
        assert np.array_equal(out.members, np.array([0]))

    def test_counts_one_adaptive_round(self):
        cfg = SolverConfig()
        trace = SolverTrace()
        for k in range(3):
            select_directions(np.ones(3), lam=1.0, cfg=cfg, trace=trace)
            assert trace.adaptive_rounds == k + 1

    def test_candidate_filter(self):
        cfg = SolverConfig(epsilon=0.1)
        candidates = np.array([True, False, True])
        out = select_directions(np.ones(3), lam=1.0, cfg=cfg, candidates=candidates)
        assert np.array_equal(out.members, np.array([0, 2]))


def step_size(obj, x, members, lam, cfg, polytope, trace=None):
    """The step the deterministic sweep accepts for ``members`` at threshold ``lam``.

    Evaluates ``x`` once, then runs the sweep's step search, whose cap is
    the oracle's step bound clipped by the region's headroom.
    """
    x = np.asarray(x, dtype=float)
    gain = _Exact(obj, cfg, SolverTrace() if trace is None else trace)
    rate, fx = gain.test(x, gain.value(x), lam, 0.0)
    members = np.asarray(members, dtype=int)
    delta, _ = _line_search(gain.value, fx, x, members, rate, gain.step_bound, polytope, trace)
    return delta


class TestChooseStepSize:
    """The sweep's step-size choice: cap, region clipping, gain-test search."""

    def test_linear_returns_cap_exactly(self):
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1)
        p = BoxPolytope(2, 1.0)
        x = np.full(2, 0.1)
        cap = 1.0 - 0.1  # the headroom term binds (1/(mu(1-eps)) is larger)
        delta = step_size(obj, x, [0, 1], lam=1.0, cfg=cfg, polytope=p)
        assert delta == cap

    def test_cap_arithmetic_near_the_end(self):
        # candidates 1/(n*eta) = 0.5 and 1/(mu(1-eps)) ~ 1.11; headroom wins
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1, eta=1.0)
        p = BoxPolytope(2, 1.0)
        x = np.full(2, 0.95)
        delta = step_size(obj, x, [0, 1], lam=0.5, cfg=cfg, polytope=p)
        assert delta == pytest.approx(0.05, abs=1e-12)

    def test_eta_cap_binds(self):
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1, eta=1.0)  # 1/(n*eta) = 0.5
        p = BoxPolytope(2, 1.0)
        delta = step_size(obj, np.zeros(2), [0, 1], lam=0.5, cfg=cfg, polytope=p)
        assert delta == pytest.approx(0.5, abs=1e-12)

    def test_membership_clipping(self):
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1)
        p = CardinalityPolytope(2, 1)
        # moving both coordinates together hits sum(x) <= 1 at delta = 0.4
        delta = step_size(obj, np.full(2, 0.1), [0, 1], lam=0.5, cfg=cfg, polytope=p)
        assert delta == pytest.approx(0.4, abs=2e-6)

    def test_concave_gain_bisects_to_the_boundary(self):
        # F = 1 - exp(-3 x) along one coordinate; the gain test fails at the
        # cap and holds near zero, so the search must land on the boundary
        obj = OssObjective(
            1,
            lambda x: 1.0 - math.exp(-3.0 * x[0]),
            lambda x: np.array([3.0 * math.exp(-3.0 * x[0])]),
            lambda x, u: -9.0 * math.exp(-3.0 * x[0]) * u[0] ** 2,
        )
        cfg = SolverConfig(epsilon=0.1)
        p = BoxPolytope(1, 1.0)
        lam = 2.0
        rate = cfg.mu * (1.0 - cfg.epsilon) ** 2 * lam

        def residual(d):
            return (1.0 - math.exp(-3.0 * d)) - rate * d

        # independent scalar root finder on the residual
        lo, hi = 0.3, 1.0
        assert residual(lo) > 0 and residual(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if residual(mid) > 0 else (lo, mid)
        boundary = 0.5 * (lo + hi)

        delta = step_size(obj, np.zeros(1), [0], lam=lam, cfg=cfg, polytope=p)
        assert STEP_TOL < delta < 1.0
        assert delta == pytest.approx(boundary, abs=4 * STEP_TOL)
        assert residual(delta / 2.0) > 0.0
        assert residual(2.0 * delta) < 0.0

    def test_stale_set_returns_zero(self):
        # gain test unsatisfiable even at STEP_TOL when lambda is huge
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1)
        p = BoxPolytope(2, 1.0)
        delta = step_size(obj, np.zeros(2), [0, 1], lam=1e9, cfg=cfg, polytope=p)
        assert delta == 0.0

    def test_empty_members(self):
        obj = linear_objective(2)
        cfg = SolverConfig()
        assert step_size(obj, np.zeros(2), [], lam=1.0, cfg=cfg, polytope=BoxPolytope(2, 1.0)) == 0.0

    def test_counts_probes_and_one_round(self):
        obj = linear_objective(2)
        cfg = SolverConfig(epsilon=0.1)
        p = BoxPolytope(2, 1.0)
        trace = SolverTrace()
        obj.reset_counters()
        step_size(obj, np.zeros(2), [0, 1], lam=0.5, cfg=cfg, polytope=p, trace=trace)
        assert trace.adaptive_rounds == 1
        assert trace.value_queries == obj.value_calls


class TestGradientEstimate:
    def test_momentum_weight_at_zero(self):
        assert momentum_weight(0.0) == pytest.approx(2.0 ** (-2.0 / 3.0))
        assert momentum_weight(0.0) == pytest.approx(0.629961, abs=1e-6)

    def test_weight_in_unit_interval(self):
        for t in np.linspace(0.0, 500.0, 100):
            assert 0.0 < momentum_weight(float(t)) <= 1.0

    def test_first_update_from_zero(self):
        g = np.array([2.0, -1.0, 0.5])
        d = update_gradient_estimate(np.zeros(3), g, t=0.0)
        assert np.allclose(d, 2.0 ** (-2.0 / 3.0) * g)

    def test_constant_samples_telescope(self):
        g = np.array([1.0, 3.0])
        d = np.zeros(2)
        expected_gap = np.linalg.norm(g)
        gaps = []
        for t in range(10):
            d = update_gradient_estimate(d, g, float(t))
            expected_gap *= 1.0 - momentum_weight(float(t))
            gap = float(np.linalg.norm(d - g))
            assert gap == pytest.approx(expected_gap, rel=1e-10)
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            update_gradient_estimate(np.zeros(2), np.zeros(2), -0.5)

    def test_kappa_envelope_example(self):
        # numerator max(0, 18) at t = 0 gives 18 / 9^(2/3)
        value = kappa_envelope(0.0, theta=1.0, lipschitz=1.0, diameter=1.0)
        assert value == pytest.approx(18.0 / 9.0 ** (2.0 / 3.0))
        assert value == pytest.approx(4.1602, abs=1e-4)

    def test_kappa_gap_branch(self):
        assert kappa_envelope(0.0, 0.0, 0.0, 0.0, grad_gap_sq=10.0) == pytest.approx(
            50.0 / 9.0 ** (2.0 / 3.0)
        )

    def test_kappa_keeps_a_nan_numerator(self):
        # L = inf with D = 0 makes L^2 D^2 = inf * 0 = nan; max(0.0, nan) would drop it
        assert math.isnan(kappa_envelope(0.0, 0.0, math.inf, 0.0))
        assert math.isnan(kappa_envelope(0.0, 1.0, 1.0, 1.0, grad_gap_sq=math.nan))


class TestParallelGreedy:
    def test_linear_box_reaches_top(self):
        obj = linear_objective(4)
        p = BoxPolytope(4, 1.0)
        sol = parallel_greedy(obj, p, SolverConfig(epsilon=0.1))
        assert sol.value >= (1.0 - 1.0 / math.e - 0.1) * 4.0
        assert sol.value >= 3.8  # every direction qualifies, so the box fills
        assert p.contains(sol.x)

    def test_coverage_cardinality_ratio(self):
        obj = make_coverage_instance(3, 4, density=0.5, seed=9)
        p = CardinalityPolytope(3, 2)
        cfg = SolverConfig(epsilon=0.1)
        sol = parallel_greedy(obj, p, cfg)
        grid = grid_maximum(obj, p, 10)
        assert sol.value >= 0.9 * (1.0 - 1.0 / math.e) * grid

    def test_quadratic_semimetric_alpha_one(self):
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])
        p = BoxPolytope(3, 1.0)
        cfg = SolverConfig(alpha=1.0, sigma=1.0, epsilon=0.1)
        sol = parallel_greedy(obj, p, cfg)
        grid = grid_maximum(obj, p, 10)
        assert sol.value >= (1.0 - cfg.epsilon) * (1.0 - math.exp(-0.25)) * grid
        # the jump start lands on the box corner, which is optimal here
        assert sol.value == pytest.approx(grid)

    def test_non_downward_closed_polytope(self):
        obj = make_semimetric_instance([[0.0], [0.0]], [2.0, 1.0])
        p = MonotoneLinearPolytope(2, [(0, 1)])
        cfg = SolverConfig(epsilon=0.1)
        sol = parallel_greedy(obj, p, cfg)
        grid = grid_max_brute(
            lambda x: obj.value(x), lambda x: x[0] <= x[1] + 1e-9, 2, 10
        )
        assert p.contains(sol.x)
        assert sol.value >= (1.0 - 0.1) * (1.0 - 1.0 / math.e) * grid

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solution_invariants(self, seed):
        obj = make_coverage_instance(5, 7, density=0.4, seed=seed)
        p = CardinalityPolytope(5, 3)
        sol = parallel_greedy(obj, p, SolverConfig(epsilon=0.1))
        assert p.contains(sol.x)
        assert np.all(sol.x >= 0.0) and np.all(sol.x <= 1.0)
        fresh = obj.value(sol.x)
        assert abs(fresh - sol.value) <= 1e-9 * (1.0 + abs(fresh))
        values = [snap.value for snap in sol.trace.history]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert 0.0 <= sol.t_final <= 1.0 + 1e-9

    def test_lambda_decay_factor_exact(self):
        obj = make_coverage_instance(4, 6, density=0.5, seed=4)
        p = BoxPolytope(4, 1.0)
        cfg = SolverConfig(epsilon=0.1)
        sol = parallel_greedy(obj, p, cfg)
        lam0 = sol.trace.history[0].lam
        reachable = {lam0}
        lam = lam0
        for _ in range(math.ceil(level_bound(cfg))):
            lam *= 1.0 - cfg.epsilon
            reachable.add(lam)
        seen = {snap.lam for snap in sol.trace.history}
        assert seen <= reachable

    def test_selection_replay_soundness(self):
        obj = make_coverage_instance(5, 7, density=0.5, seed=12)
        p = BoxPolytope(5, 1.0)
        cfg = SolverConfig(epsilon=0.1)
        with selection_log() as log:
            parallel_greedy(obj, p, cfg)
        assert log
        cutoff_slack = VALUE_TOL
        for lam, g, candidates, members in log:
            cutoff = (1.0 - cfg.epsilon) * cfg.mu * lam
            chosen = set(members.tolist())
            for i in range(5):
                if not candidates[i]:
                    assert i not in chosen
                elif g[i] >= cutoff + cutoff_slack:
                    assert i in chosen
                elif g[i] < cutoff - cutoff_slack:
                    assert i not in chosen

    @pytest.mark.parametrize(
        "region, values",
        [
            (BoxPolytope(5, 0.6), 1),
            (CardinalityPolytope(5, 2.5), 2),  # and the all-ones upper bound
            (MonotoneLinearPolytope(5, [(0, 1), (1, 2)]), 1),
        ],
    )
    def test_alpha_one_start_is_valued_once(self, region, values):
        # the start is the max-l1 point, which opt_bounds values as its lower bound
        obj = random_semimetric_instance(5, seed=3)
        valued, impl = [], obj._value_impl
        obj._value_impl = lambda x: valued.append(x.tobytes()) or impl(x)
        sol = parallel_greedy(obj, region, SolverConfig(epsilon=0.1, sigma=1.0, alpha=1.0))
        assert valued.count(region.max_l1_point.tobytes()) == 1
        assert sol.trace.value_queries == obj.value_calls == values
        assert sol.value == opt_bounds(obj, region)[0]

    def test_counter_reconciliation(self):
        obj = make_coverage_instance(4, 6, density=0.5, seed=13)
        p = CardinalityPolytope(4, 2)
        v0, g0 = obj.value_calls, obj.gradient_calls
        sol = parallel_greedy(obj, p, SolverConfig(epsilon=0.1))
        assert sol.trace.value_queries == obj.value_calls - v0
        assert sol.trace.gradient_queries == obj.gradient_calls - g0

    def test_non_finite_gradient_error(self):
        obj = OssObjective(
            2, lambda x: float(x.sum()), lambda x: np.array([np.nan, 1.0])
        )
        with pytest.raises(SolverError):
            parallel_greedy(obj, BoxPolytope(2, 1.0), SolverConfig())

    def test_dimension_mismatch_error(self):
        obj = linear_objective(3)
        with pytest.raises(SolverError):
            parallel_greedy(obj, BoxPolytope(2, 1.0), SolverConfig())

    @pytest.mark.parametrize("seed", range(5))
    def test_sweep_ends_when_the_budget_fills(self, seed):
        # the step that fills the budget lands on it, so no coordinate can
        # move afterwards and the sweep ends before the threshold floor
        obj = random_semimetric_instance(64, seed=seed)
        p = CardinalityPolytope(64, 8)
        cfg = SolverConfig(alpha=0.05, sigma=1.0, epsilon=0.1)
        sol = parallel_greedy(obj, p, cfg)
        lower, upper = opt_bounds(obj, p)
        assert abs(sol.x.sum() - p.budget) <= 1e-9
        assert sol.lambda_final > _lambda_floor(cfg.mu, lower, upper, p)

    def test_full_jump_start_asks_for_no_gradient(self):
        # alpha = 1 starts at the box's corner, where no coordinate can move
        obj = make_coverage_instance(4, 6, density=0.5, seed=13)
        p = BoxPolytope(4, [0.3, 0.5, 0.7, 1.0])
        g0 = obj.gradient_calls
        sol = parallel_greedy(obj, p, SolverConfig(alpha=1.0, epsilon=0.1))
        assert np.array_equal(sol.x, p.max_l1_point)
        assert sol.trace.gradient_queries == obj.gradient_calls - g0 == 0
        assert sol.trace.outer_rounds == sol.trace.adaptive_rounds == 0

    @pytest.mark.parametrize(
        "p",
        [BoxPolytope(3, 1.0), CardinalityPolytope(3, 1), MonotoneLinearPolytope(3, [(0, 1), (1, 2)])],
        ids=["box", "cardinality", "chain"],
    )
    def test_start_with_room_just_below_a_step_takes_no_round(self, p):
        # each coordinate's room at the start is below STEP_TOL, though within
        # the membership tolerance of it: no step search could take a step,
        # so no coordinate counts as movable and the sweep never starts
        obj = linear_objective(3, [1.0, 2.0, 3.0])
        cfg = SolverConfig(alpha=1.0 - (STEP_TOL - 0.5 * MEMBERSHIP_TOL), epsilon=0.1)
        start = cfg.alpha * p.max_l1_point
        sol = parallel_greedy(obj, p, cfg)
        assert sol.trace.adaptive_rounds == sol.trace.gradient_queries == 0
        assert np.array_equal(sol.x, start)
        assert sol.value == obj.value(start)

    def test_flat_objective_returns_start(self):
        obj = CoverageMultilinearObjective([0.0, 0.0], [[0], [1]])
        p = BoxPolytope(2, 1.0)
        sol = parallel_greedy(obj, p, SolverConfig(epsilon=0.1))
        assert sol.value == 0.0
        assert np.allclose(sol.x, 0.05 * np.ones(2))


@st.composite
def sweep_cases(draw):
    """A small coverage or quadratic instance on a box, cardinality or chain
    region, with a solver: deterministic, or stochastic at theta = 0.25."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["box", "cardinality", "chain"]))
    if kind == "box":
        polytope = BoxPolytope(n, draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    elif kind == "cardinality":
        polytope = CardinalityPolytope(n, draw(st.floats(0.1, float(n))))
    else:
        order = draw(st.permutations(range(n)))
        polytope = MonotoneLinearPolytope(n, zip(order[:-1], order[1:]))
    epsilon = draw(st.sampled_from([0.1, 0.2, 0.3]))
    if draw(st.booleans()):
        obj = make_coverage_instance(n, n + 2, density=0.4, seed=seed)
        cfg = SolverConfig(epsilon=epsilon)
    else:
        obj = random_semimetric_instance(n, seed=seed)
        cfg = SolverConfig(epsilon=epsilon, sigma=1.0, alpha=draw(st.sampled_from([0.05, 0.5, 1.0])))
    if draw(st.booleans()):
        return obj, polytope, cfg, None
    cfg = dataclasses.replace(cfg, noise_theta=0.25, spg_batch=4)
    return obj, polytope, cfg, StochasticObjective(obj, 0.25, seed=seed)


def traced_sweep(obj, polytope, cfg, sobj):
    """Run the sweep with a selection log and a record of its step searches:
    one (probed the objective, accepted a step) pair per search."""
    searches = []
    line_search = ossmax.solvers._line_search

    def recorded(evaluate, *args, **kwargs):
        probes = []

        def counted(point):
            probes.append(point)
            return evaluate(point)

        delta, f_step = line_search(counted, *args, **kwargs)
        searches.append((bool(probes), delta > 0.0))
        return delta, f_step

    with mock.patch.object(ossmax.solvers, "_line_search", recorded), selection_log() as log:
        if sobj is None:
            sol = parallel_greedy(obj, polytope, cfg)
        else:
            sol = stochastic_parallel_greedy(sobj, polytope, cfg)
    return sol, log, searches


class TestSweepAccounting:
    """What the sweep's counters and selection log mean, on random small runs."""

    @staticmethod
    def levels(sol, cfg):
        """The threshold grid: the upper bound decayed by ``1 - eps`` per level."""
        lams = [sol.trace.history[0].lam]
        for _ in range(math.ceil(level_bound(cfg))):
            lams.append(lams[-1] * (1.0 - cfg.epsilon))
        return {lam: k for k, lam in enumerate(lams)}, lams

    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases())
    def test_each_scan_selects_at_the_first_level_that_qualifies(self, case):
        obj, polytope, cfg, sobj = case
        sol, log, _ = traced_sweep(obj, polytope, cfg, sobj)
        index, lams = self.levels(sol, cfg)

        def clears(direction, candidates, lam):
            cutoff = (1.0 - cfg.epsilon) * cfg.mu * lam - VALUE_TOL
            return bool(np.any(direction[candidates] >= cutoff))

        previous = None
        for lam, direction, candidates, members in log:
            assert members.size
            k = index[lam]
            assert clears(direction, candidates, lam)
            start = 0 if previous is None else index[previous[0]] + 1
            assert not any(clears(direction, candidates, lams[j]) for j in range(start, k))
            if previous is not None and k > index[previous[0]]:
                # a scan only leaves a level that still qualifies when the
                # step search there found no step, so nothing moved
                stale = np.array_equal(direction, previous[1]) and np.array_equal(candidates, previous[2])
                assert stale or not clears(direction, candidates, previous[0])
            previous = (lam, direction, candidates)

    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases())
    def test_rounds_are_scans_searches_and_refreshes(self, case):
        obj, polytope, cfg, sobj = case
        sol, log, searches = traced_sweep(obj, polytope, cfg, sobj)
        t = sol.trace
        assert len(searches) == len(log)  # one step search per selection
        refreshes = 0 if sobj is None else t.gradient_queries
        # the sweep ends in an empty scan at the last level above the floor
        # unless it never started (a flat bracket), no coordinate can move, or
        # its last step search found no step
        started = t.history[0].lam > VALUE_TOL
        movable = (polytope.room(sol.x) >= STEP_TOL).any()
        ended_at_floor = started and movable and (not searches or searches[-1][1])
        probed = sum(p for p, _ in searches)
        assert t.adaptive_rounds == len(log) + probed + refreshes + ended_at_floor
        assert t.inner_rounds == sum(accepted for _, accepted in searches)
        if sobj is not None and started:
            # one sample at the start and one after each step, unless the
            # step left nothing movable
            assert t.gradient_queries == t.inner_rounds + movable
        if sobj is None and ended_at_floor:
            lower, upper = opt_bounds(obj, polytope)
            assert sol.lambda_final < _lambda_floor(cfg.mu, lower, upper, polytope)

    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases())
    def test_outer_rounds_count_every_level_visited(self, case):
        # skipped levels included: the final threshold is the level after the
        # last one visited
        obj, polytope, cfg, sobj = case
        sol, _, _ = traced_sweep(obj, polytope, cfg, sobj)
        index, _ = self.levels(sol, cfg)
        assert sol.trace.outer_rounds == index[sol.lambda_final]

    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases())
    def test_levels_visited_stay_within_the_floor_bound(self, case):
        # the sweep's termination argument: no level counter check backs it
        obj, polytope, cfg, sobj = case
        sol, _, _ = traced_sweep(obj, polytope, cfg, sobj)
        assert sol.trace.outer_rounds <= level_bound(cfg)


class TestSerialGreedy:
    def test_one_dimension_matches_parallel(self):
        obj = linear_objective(1)
        p = BoxPolytope(1, 1.0)
        cfg = SolverConfig(epsilon=0.1)
        a = parallel_greedy(obj, p, cfg)
        b = serial_greedy(obj, p, cfg)
        assert abs(a.value - b.value) <= 1e-6
        values = [snap.value for snap in b.trace.history]
        assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))

    def test_box_value_matches_with_many_more_rounds(self):
        obj = make_coverage_instance(8, 10, density=0.4, seed=11)
        p = BoxPolytope(8, 1.0)
        cfg = SolverConfig(epsilon=0.1)
        fast = parallel_greedy(obj, p, cfg)
        slow = serial_greedy(obj, p, cfg)
        assert abs(fast.value - slow.value) <= 0.02 * max(fast.value, slow.value)
        assert slow.trace.adaptive_rounds >= (8 / math.log(8)) * fast.trace.adaptive_rounds

    def test_monotone_history(self):
        obj = make_coverage_instance(5, 6, density=0.5, seed=14)
        p = CardinalityPolytope(5, 2)
        sol = serial_greedy(obj, p, SolverConfig(epsilon=0.1))
        values = [snap.value for snap in sol.trace.history]
        assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))
        assert p.contains(sol.x)

    def test_counter_reconciliation(self):
        obj = make_coverage_instance(4, 5, density=0.5, seed=15)
        p = BoxPolytope(4, 1.0)
        v0, g0 = obj.value_calls, obj.gradient_calls
        sol = serial_greedy(obj, p, SolverConfig(epsilon=0.1))
        assert sol.trace.value_queries == obj.value_calls - v0
        assert sol.trace.gradient_queries == obj.gradient_calls - g0


class TestStochasticParallelGreedy:
    def test_zero_noise_matches_deterministic_on_linear(self):
        obj = linear_objective(4)
        p = BoxPolytope(4, 1.0)
        det = parallel_greedy(obj, p, SolverConfig(epsilon=0.1))
        sobj = StochasticObjective(obj, theta=0.0, seed=5)
        sto = stochastic_parallel_greedy(sobj, p, SolverConfig(epsilon=0.1, spg_batch=4))
        assert abs(det.value - sto.value) <= 0.02 * det.value

    def test_degenerate_steps_satisfy_gain_inequality(self):
        # theta = 0, L = D = 0 and batch 1: every accepted step must clear the
        # deterministic per-step gain test read off the trace
        obj = make_coverage_instance(5, 7, density=0.4, seed=16)
        p = BoxPolytope(5, 1.0)
        cfg = SolverConfig(epsilon=0.1, spg_batch=1)
        sobj = StochasticObjective(obj, theta=0.0, seed=6)
        sol = stochastic_parallel_greedy(sobj, p, cfg)
        hist = sol.trace.history
        assert len(hist) > 1
        for prev, cur in zip(hist, hist[1:]):
            required = cfg.mu * (1.0 - cfg.epsilon) ** 2 * cur.delta * cur.lam
            assert cur.value - prev.value >= required - 1e-6 * (1.0 + abs(prev.value))

    def test_monotone_history_under_noise(self):
        obj = make_coverage_instance(4, 6, density=0.5, seed=17)
        p = BoxPolytope(4, 1.0)
        cfg = SolverConfig(epsilon=0.1, spg_batch=32, noise_theta=0.25)
        sobj = StochasticObjective(obj, theta=0.25, seed=7)
        sol = stochastic_parallel_greedy(sobj, p, cfg)
        values = [snap.value for snap in sol.trace.history]
        assert all(y >= x - 1e-9 for x, y in zip(values, values[1:]))
        assert p.contains(sol.x)
        assert abs(obj.value(sol.x) - sol.value) <= 1e-9 * (1.0 + abs(sol.value))

    def test_counter_reconciliation(self):
        obj = make_coverage_instance(4, 6, density=0.5, seed=18)
        p = CardinalityPolytope(4, 2)
        sobj = StochasticObjective(obj, theta=0.1, seed=8)
        cfg = SolverConfig(epsilon=0.1, spg_batch=8, noise_theta=0.1)
        sol = stochastic_parallel_greedy(sobj, p, cfg)
        assert sol.trace.value_queries == sobj.value_batch_calls
        assert sol.trace.gradient_queries == sobj.gradient_sample_calls

    def test_no_sample_once_nothing_can_move(self):
        # the last step fills the budget: one sample at the start and one
        # after each step but the last
        obj = make_coverage_instance(6, 8, density=0.4, seed=4)
        p = CardinalityPolytope(6, 2)
        sobj = StochasticObjective(obj, 0.25, seed=4)
        cfg = SolverConfig(epsilon=0.1, spg_batch=8, noise_theta=0.25)
        sol = stochastic_parallel_greedy(sobj, p, cfg)
        t = sol.trace
        assert not (p.room(sol.x) >= STEP_TOL).any()
        assert t.inner_rounds > 1
        assert t.gradient_queries == sobj.gradient_sample_calls == t.inner_rounds

    def test_seeded_runs_reproduce(self):
        obj = make_coverage_instance(4, 6, density=0.5, seed=19)
        p = BoxPolytope(4, 1.0)
        cfg = SolverConfig(epsilon=0.1, spg_batch=16, noise_theta=0.3)
        a = stochastic_parallel_greedy(StochasticObjective(obj, 0.3, seed=42), p, cfg)
        b = stochastic_parallel_greedy(StochasticObjective(obj, 0.3, seed=42), p, cfg)
        assert np.array_equal(a.x, b.x)
        assert a.value == b.value

    def test_non_finite_envelope_error(self):
        obj = make_coverage_instance(3, 4, density=0.5, seed=20)
        p = BoxPolytope(3, 1.0)
        cfg = SolverConfig(epsilon=0.1, lipschitz_L=math.inf, diameter_D=1.0)
        with pytest.raises(SolverError):
            stochastic_parallel_greedy(StochasticObjective(obj, 0.0, seed=1), p, cfg)

    def test_mu_squared_underflow_is_a_config_error(self):
        # at alpha = 0.05, mu^2 underflows to 0 past sigma of about 61.2 while
        # mu stays positive: the step bound 1/(mu^2 (1-eps)) is undefined for
        # the stochastic solver alone
        obj = make_coverage_instance(5, 7, density=0.4, seed=3)
        p = CardinalityPolytope(5, 2)
        cfg = SolverConfig(sigma=62.0)
        assert cfg.mu > 0.0 and cfg.mu**2 == 0.0
        with pytest.raises(ConfigError, match=r"sigma = 62\.0 at alpha = 0\.05 .*stochastic solver"):
            stochastic_parallel_greedy(StochasticObjective(obj, 0.0, seed=1), p, cfg)
        assert p.contains(parallel_greedy(obj, p, cfg).x)
        stochastic_parallel_greedy(StochasticObjective(obj, 0.0, seed=1), p, dataclasses.replace(cfg, sigma=61.0))

    def test_deterministic_step_bound_underflow_is_a_config_error(self):
        # mu itself is positive at sigma = 122, but mu (1 - eps) underflows at eps = 0.9
        obj = make_coverage_instance(5, 7, density=0.4, seed=3)
        p = CardinalityPolytope(5, 2)
        cfg = SolverConfig(sigma=122.0, epsilon=0.9)
        assert cfg.mu > 0.0
        for solver in (parallel_greedy, serial_greedy):
            with pytest.raises(ConfigError, match=r"sigma = 122\.0 at alpha = 0\.05"):
                solver(obj, p, cfg)

    def test_nan_envelope_error(self):
        obj = make_coverage_instance(3, 4, density=0.5, seed=20)
        p = BoxPolytope(3, 1.0)
        cfg = SolverConfig(epsilon=0.1, lipschitz_L=math.inf, diameter_D=0.0)
        with pytest.raises(SolverError, match="variance envelope is non-finite"):
            stochastic_parallel_greedy(StochasticObjective(obj, 0.0, seed=1), p, cfg)


class TestGridMaximum:
    def test_linear_box(self):
        obj = linear_objective(2)
        assert grid_maximum(obj, BoxPolytope(2, 1.0), 10) == pytest.approx(2.0)

    def test_linear_cardinality(self):
        obj = linear_objective(2)
        assert grid_maximum(obj, CardinalityPolytope(2, 1), 10) == pytest.approx(1.0)

    def test_coverage_shared_element(self):
        obj = CoverageMultilinearObjective([1.0], [[0], [0]])
        assert grid_maximum(obj, BoxPolytope(2, 1.0), 10) == pytest.approx(1.0)

    def test_matches_plain_python_enumeration(self):
        obj = make_coverage_instance(3, 4, density=0.5, seed=20)
        p = CardinalityPolytope(3, 2)
        fast = grid_maximum(obj, p, 8)
        slow = grid_max_brute(lambda x: obj.value(x), lambda x: p.contains(x), 3, 8)
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("region", [BoxPolytope(2, [0.7, 1.0]), CardinalityPolytope(2, 1.3)])
    def test_custom_objective_matches_plain_python_enumeration(self, region):
        # the base value_many, which evaluates each row through value
        def value(x):
            return float(np.sqrt(x[0] + 2.0 * x[1] + x[0] * x[1]))

        obj = OssObjective(2, value, lambda x: np.ones(2))
        fast = grid_maximum(obj, region, 7)
        slow = grid_max_brute(value, region.contains, 2, 7)
        assert fast == slow
        assert obj.value_calls == sum(region.contains(x) for x in iter_grid(2, 7))

    def test_nan_value_at_one_lattice_point_fails(self):
        nan_at = np.array([0.5, 0.25])

        def value(x):
            return math.nan if np.array_equal(x, nan_at) else float(x.sum())

        obj = OssObjective(2, value, lambda x: np.ones(2))
        with pytest.raises(SolverError, match="value oracle returned nan"):
            grid_maximum(obj, BoxPolytope(2), 4)

    @pytest.mark.parametrize("resolution", [0, -2])
    def test_resolution_domain(self, resolution):
        with pytest.raises(ValueError):
            grid_maximum(linear_objective(2), BoxPolytope(2), resolution)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grid_maximum(linear_objective(3), BoxPolytope(2), 4)

    def test_dimension_budget(self):
        obj = linear_objective(9)
        with pytest.raises(GridBudgetError):
            grid_maximum(obj, BoxPolytope(9, 1.0), 10)

    def test_point_budget(self):
        obj = linear_objective(8)
        with pytest.raises(GridBudgetError):
            grid_maximum(obj, BoxPolytope(8, 1.0), 10)


class _HalfSpace(Polytope):
    """``{x in [0,1]^n : a'x <= 1}``: a region without a lattice pruning rule."""

    def __init__(self, a):
        super().__init__(len(a))
        self.a = np.asarray(a, dtype=float)

    def _satisfies_many(self, X):
        return X @ self.a <= 1.0 + MEMBERSHIP_TOL


# offsets of a bound from a lattice value, in lattice steps: on it, inside
# and outside the membership tolerance, and a fraction of a step away
_NEAR_LATTICE = [0.0, 1e-10, -1e-10, 1e-7, -1e-7, 0.37, -0.37]

# relative offsets of budget + MEMBERSHIP_TOL from a lattice sum inside the cardinality
# rule's (1 +- 1e-12) tie window: on it up to rounding, just below, just above
_TIES = [0.0, -5e-13, 5e-13]


@st.composite
def grid_cases(draw):
    """(region, resolution): boxes and budgets on, just off and away from the
    lattice, budgets tied with a lattice sum, chains, 2-cycles, random DAGs
    and a bare Polytope subclass."""
    kind = draw(st.sampled_from(["box", "cardinality", "chain", "cycle", "dag", "bare"]))
    n = draw(st.integers(1 if kind in ("box", "cardinality", "bare") else 2, 4))
    resolution = draw(st.integers(1, 6))

    def near_lattice(top):
        j = draw(st.integers(1, top))
        offset = draw(st.sampled_from(_NEAR_LATTICE)) / resolution
        return min(j / resolution + offset, top / resolution) if offset > 0 else j / resolution + offset

    if kind == "box":
        return BoxPolytope(n, [near_lattice(resolution) for _ in range(n)]), resolution
    if kind == "cardinality":
        budget = draw(st.sampled_from(["full", "near", "tie"]))
        if budget == "full":
            return CardinalityPolytope(n, float(n)), resolution
        if budget == "near":
            return CardinalityPolytope(n, near_lattice(n * resolution)), resolution
        j = draw(st.integers(1, n * resolution))
        tied = j / resolution * (1.0 + draw(st.sampled_from(_TIES))) - MEMBERSHIP_TOL
        return CardinalityPolytope(n, tied), resolution
    if kind == "bare":
        return _HalfSpace(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))), resolution
    order = draw(st.permutations(range(n)))
    if kind == "chain":
        pairs = list(zip(order[:-1], order[1:]))
    elif kind == "cycle":
        pairs = [(order[0], order[1]), (order[1], order[0])]
    else:
        ranked = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        pairs = draw(st.lists(st.sampled_from(ranked), min_size=1, max_size=len(ranked)))
    return MonotoneLinearPolytope(n, pairs), resolution


def _grid_objective(data, n):
    seed = data.draw(st.integers(0, 2**16))
    if n == 1 or data.draw(st.booleans()):  # the quadratic family needs n >= 2
        return make_coverage_instance(n, n + 2, density=0.5, seed=seed)
    return random_semimetric_instance(n, seed=seed)


def _candidates(p, resolution):
    """Index rows of the blocks the lattice walk yields, checking the row bound."""
    n, per_axis = p.dimension, resolution + 1
    blocks = list(_lattice_candidates(p, np.linspace(0.0, 1.0, per_axis)))
    assert all(len(b) <= per_axis ** max(n - 1, 1) for b in blocks)
    return {tuple(row) for b in blocks for row in b.tolist()}


def _accepted(p, resolution):
    """Index rows of every lattice point that contains_many accepts."""
    n, per_axis = p.dimension, resolution + 1
    levels = np.linspace(0.0, 1.0, per_axis)
    lattice = np.array(np.meshgrid(*[np.arange(per_axis)] * n, indexing="ij")).reshape(n, -1).T
    return {tuple(row) for row in lattice[p.contains_many(levels[lattice])].tolist()}


class TestGridExactness:
    """The pruned lattice walk against plain enumeration of every lattice point."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_plain_python_enumeration(self, data):
        p, resolution = data.draw(grid_cases())
        obj = _grid_objective(data, p.dimension)
        slow = grid_max_brute(obj.value, p.contains, p.dimension, resolution)
        assert math.isclose(grid_maximum(obj, p, resolution), slow, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases())
    def test_candidates_hold_every_feasible_point(self, case):
        # blocks within the row bound, holding every feasible point and no
        # other: grid_maximum evaluates them without a membership test
        p, resolution = case
        assert _candidates(p, resolution) == _accepted(p, resolution)

    def test_budget_tie_is_decided_as_membership_does(self):
        # budget + MEMBERSHIP_TOL = 0.5 (1 - 5e-13): the index sum 5 lies inside the tie
        # window, and 0.5 + 0.0 lies above the bound
        p = CardinalityPolytope(2, 0.5 * (1 - 5e-13) - MEMBERSHIP_TOL)
        assert not p.contains([0.5, 0.0])
        candidates = _candidates(p, 10)
        assert (5, 0) not in candidates
        assert candidates == _accepted(p, 10)
        obj = make_coverage_instance(2, 4, 0.5, seed=1)
        slow = grid_max_brute(obj.value, p.contains, 2, 10)
        obj.reset_counters()
        fast = grid_maximum(obj, p, 10)
        assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12)
        assert obj.value_calls == 15
        assert fast == pytest.approx(1.349, abs=5e-4)

    def test_every_budget_on_a_lattice_sum_keeps_exactly_the_feasible_points(self):
        # budget + MEMBERSHIP_TOL equals j / resolution up to rounding: a float tie, where
        # the index total and the row sum can disagree
        for n in (2, 3):
            for resolution in range(1, 11):
                for j in range(1, n * resolution + 1):
                    p = CardinalityPolytope(n, j / resolution - MEMBERSHIP_TOL)
                    assert _candidates(p, resolution) == _accepted(p, resolution), (n, resolution, j)

    @pytest.mark.parametrize(
        "p, tested_rows",
        [
            (BoxPolytope(3, [0.5, 1.0, 0.72]), 0),
            (CardinalityPolytope(3, 1.5), 0),
            (MonotoneLinearPolytope(3, [(0, 1), (1, 2)]), 0),
            (_HalfSpace([0.9, 0.3, 1.7]), 9**3),  # no lattice rule: complete rows tested once
        ],
        ids=["box", "cardinality", "chain", "half-space"],
    )
    def test_no_membership_pass(self, p, tested_rows):
        obj = make_coverage_instance(3, 5, 0.5, seed=3)
        slow = grid_max_brute(obj.value, p.contains, 3, 8)
        with mock.patch.object(p, "contains_many", wraps=p.contains_many) as membership, \
                mock.patch.object(p, "_satisfies_many", wraps=p._satisfies_many) as rows:
            obj.reset_counters()
            fast = grid_maximum(obj, p, 8)
        assert membership.call_count == 0
        assert sum(len(call.args[0]) for call in rows.call_args_list) == tested_rows
        assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12)
        assert obj.value_calls == len(_accepted(p, 8))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_value_calls_count_the_feasible_points(self, data):
        p, resolution = data.draw(grid_cases())
        obj = _grid_objective(data, p.dimension)
        feasible = sum(p.contains(x) for x in iter_grid(p.dimension, resolution))
        obj.reset_counters()
        grid_maximum(obj, p, resolution)
        assert obj.value_calls == feasible
