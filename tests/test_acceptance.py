"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  The budget constants below were calibrated once on the n=4, eps=0.2
sweep point (median over five seeds) with a 2x safety margin and are frozen;
they are not tuned per run.
"""

import math

import numpy as np
import pytest

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    MonotoneLinearPolytope,
    OssObjective,
    SolverConfig,
    StochasticObjective,
    grid_maximum,
    guaranteed_ratio,
    kappa_envelope,
    make_coverage_instance,
    make_semimetric_instance,
    parallel_greedy,
    random_semimetric_instance,
    serial_greedy,
    stochastic_parallel_greedy,
    update_gradient_estimate,
    verify_oss,
    verify_semimetric,
)

from helpers import coverage_expectation_brute

EPS = 0.1
GRID_RESOLUTION = 10

# frozen budget constants (calibrated at n=4, eps=0.2, 2x margin)
ROUNDS_C = 0.87  # adaptive rounds  <= ROUNDS_C * ln(n) / eps^2
VALUE_C = 0.23   # value queries    <= VALUE_C  * ln(n) / eps^2
GRAD_C = 0.044   # gradient queries <= GRAD_C * n * ln(n) / eps^2

SWEEP_NS = (4, 8, 16, 32)
SWEEP_EPS = (0.1, 0.2)
SWEEP_SEEDS = (300, 301, 302, 303, 304)


def _report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}{detail}")
    assert ok, f"criterion {num:02d} failed: {description}{detail}"


def coverage_lipschitz_bound(obj):
    """Valid gradient-Lipschitz constant: Frobenius norm of the entrywise
    Hessian bound (each mixed partial is at most the shared covered weight)."""
    n = obj.dimension
    covers = [set(c) for c in obj.covers]
    bound = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                bound[i, j] = float(obj.weights[sorted(covers[i] & covers[j])].sum())
    return float(np.linalg.norm(bound))


@pytest.fixture(scope="module")
def coverage_suite():
    suite = []
    for i, seed in enumerate(range(101, 111)):
        n = (3, 4, 5, 6)[i % 4]
        obj = make_coverage_instance(n, n + 2, density=0.4, seed=seed)
        polytope = BoxPolytope(n, 1.0) if i % 2 == 0 else CardinalityPolytope(n, math.ceil(n / 2))
        suite.append((f"cov-{seed}", obj, polytope))
    return suite


@pytest.fixture(scope="module")
def quadratic_suite():
    suite = []
    for i, seed in enumerate(range(201, 211)):
        n = (3, 4, 5, 6)[i % 4]
        obj = random_semimetric_instance(n, seed=seed)
        polytope = CardinalityPolytope(n, math.ceil(n / 2)) if i in (3, 7) else BoxPolytope(n, 1.0)
        suite.append((f"quad-{seed}", obj, polytope))
    return suite


@pytest.fixture(scope="module")
def coverage_grids(coverage_suite):
    return {label: grid_maximum(obj, p, GRID_RESOLUTION) for label, obj, p in coverage_suite}


@pytest.fixture(scope="module")
def quadratic_grids(quadratic_suite):
    return {label: grid_maximum(obj, p, GRID_RESOLUTION) for label, obj, p in quadratic_suite}


@pytest.fixture(scope="module")
def sweep_runs():
    runs = {}
    for n in SWEEP_NS:
        for eps in SWEEP_EPS:
            rounds, value_q, grad_q = [], [], []
            for seed in SWEEP_SEEDS:
                obj = make_coverage_instance(n, n + 2, density=0.4, seed=seed)
                sol = parallel_greedy(obj, BoxPolytope(n, 1.0), SolverConfig(epsilon=eps))
                rounds.append(sol.trace.adaptive_rounds)
                value_q.append(sol.trace.value_queries)
                grad_q.append(sol.trace.gradient_queries)
            runs[(n, eps)] = (
                float(np.median(rounds)),
                float(np.median(value_q)),
                float(np.median(grad_q)),
            )
    return runs


def test_criterion_01_approximation_ratio(coverage_suite, quadratic_suite, coverage_grids, quadratic_grids):
    worst = math.inf
    for label, obj, polytope in coverage_suite:
        cfg = SolverConfig(epsilon=EPS, sigma=0.0)
        sol = parallel_greedy(obj, polytope, cfg)
        grid = coverage_grids[label]
        margin = sol.value - (guaranteed_ratio(cfg) * grid - 0.01 * grid)
        worst = min(worst, margin / grid)
        assert margin >= 0.0, f"{label}: value {sol.value:.4f} below threshold"
    for label, obj, polytope in quadratic_suite:
        cfg = SolverConfig(epsilon=EPS, sigma=1.0, alpha=1.0)
        sol = parallel_greedy(obj, polytope, cfg)
        grid = quadratic_grids[label]
        margin = sol.value - (guaranteed_ratio(cfg) * grid - 0.01 * grid)
        worst = min(worst, margin / grid)
        assert margin >= 0.0, f"{label}: value {sol.value:.4f} below threshold"
    _report(
        1,
        "ratio >= (1-eps)(1-exp(-mu)) * grid - 1% on all 20 frozen instances",
        True,
        f" (worst margin {worst:+.3f} of grid)",
    )


def test_criterion_02_sigma_zero_specialization(coverage_suite, coverage_grids):
    threshold = 1.0 - 1.0 / math.e - EPS
    worst = math.inf
    for label, obj, polytope in coverage_suite:
        sol = parallel_greedy(obj, polytope, SolverConfig(epsilon=EPS, sigma=0.0))
        ratio = sol.value / coverage_grids[label]
        worst = min(worst, ratio)
        assert ratio >= threshold, f"{label}: ratio {ratio:.4f} < {threshold:.4f}"
    _report(
        2,
        f"every sigma=0 instance reaches >= (1 - 1/e - {EPS}) of grid optimum",
        True,
        f" (worst ratio {worst:.3f} vs threshold {threshold:.3f})",
    )


def test_criterion_03_round_budget(sweep_runs):
    ok = True
    detail = []
    for (n, eps), (rounds, _, _) in sweep_runs.items():
        budget = ROUNDS_C * math.log(n) / eps**2
        ok &= rounds <= budget
        detail.append(f"n={n},eps={eps}: {rounds:.0f}<={budget:.0f}")
    slopes = []
    for eps in SWEEP_EPS:
        medians = [sweep_runs[(n, eps)][0] for n in SWEEP_NS]
        ok &= all(b >= a for a, b in zip(medians, medians[1:]))  # monotone growth
        slopes.append(float(np.polyfit(np.log(SWEEP_NS), np.log(medians), 1)[0]))
    ok &= all(slope < 0.5 for slope in slopes)
    _report(
        3,
        "median adaptive rounds within C*log(n)/eps^2, monotone in n, log-log slope < 0.5",
        ok,
        f" (slopes {', '.join(f'{s:.2f}' for s in slopes)})",
    )


def test_criterion_04_query_budget(sweep_runs):
    ok = True
    for (n, eps), (_, value_q, grad_q) in sweep_runs.items():
        ok &= grad_q <= GRAD_C * n * math.log(n) / eps**2
        ok &= value_q <= VALUE_C * math.log(n) / eps**2
    _report(
        4,
        "gradient queries within C'*n*log(n)/eps^2 and value queries within C''*log(n)/eps^2",
        ok,
    )


def test_criterion_05_variance_decay():
    theta = 0.5
    checkpoints = (10, 50, 200)
    obj = make_coverage_instance(6, 8, density=0.4, seed=3)
    x = np.full(6, 0.3)
    target = obj.gradient(x)
    squared_errors = {c: [] for c in checkpoints}
    for seed in range(50):
        sobj = StochasticObjective(obj, theta=theta, seed=seed)
        estimate = np.zeros(6)
        for t in range(200):
            estimate = update_gradient_estimate(estimate, sobj.sample_gradient(x), float(t))
            if (t + 1) in squared_errors:
                squared_errors[t + 1].append(float(np.sum((estimate - target) ** 2)))
    lipschitz = coverage_lipschitz_bound(obj)
    diameter = math.sqrt(6)
    gap_sq = float(np.sum(target**2))  # estimate starts at zero
    ok = True
    means = []
    for c in checkpoints:
        mean = float(np.mean(squared_errors[c]))
        means.append(mean)
        envelope = kappa_envelope(float(c), theta, lipschitz, diameter, grad_gap_sq=gap_sq)
        ok &= mean <= 2.0 * envelope
    slope = float(np.polyfit(np.log(checkpoints), np.log(means), 1)[0])
    ok &= -1.0 <= slope <= -0.4
    _report(
        5,
        "estimator mean squared error fits the (t+9)^(-2/3) envelope over 50 seeds",
        ok,
        f" (slope {slope:.2f}, checkpoint means {', '.join(f'{m:.3g}' for m in means)})",
    )


def test_criterion_06_spg_guarantee_shape(coverage_suite, coverage_grids):
    threshold = 1.0 - 1.0 / math.e - EPS
    ok = True
    worst_gap = 0.0
    for label, obj, polytope in coverage_suite:
        grid = coverage_grids[label]
        deterministic = parallel_greedy(obj, polytope, SolverConfig(epsilon=EPS))
        # theta = 0 with the envelope switched off must track the deterministic run
        zero_noise = stochastic_parallel_greedy(
            StochasticObjective(obj, 0.0, seed=1),
            polytope,
            SolverConfig(epsilon=EPS, spg_batch=4),
        )
        gap = abs(zero_noise.value - deterministic.value) / max(deterministic.value, 1e-12)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 0.02
        # theta = 0.25 with honest constants must beat the envelope-discounted bound
        lipschitz = coverage_lipschitz_bound(obj)
        diameter = math.sqrt(obj.dimension)
        cfg = SolverConfig(
            epsilon=EPS,
            spg_batch=64,
            noise_theta=0.25,
            lipschitz_L=lipschitz,
            diameter_D=diameter,
        )
        noisy = stochastic_parallel_greedy(StochasticObjective(obj, 0.25, seed=2), polytope, cfg)
        kappa_final = kappa_envelope(noisy.t_final, 0.25, lipschitz, diameter)
        slack_scale = cfg.mu * polytope.dimension + 1.0
        bound = threshold * grid - slack_scale * math.sqrt(kappa_final)
        ok &= noisy.value >= bound
    _report(
        6,
        "SPG matches JSPG within 2% at theta=0 and clears the envelope-discounted bound at theta=0.25",
        ok,
        f" (worst zero-noise gap {100 * worst_gap:.2f}%)",
    )


def test_criterion_07_oss_verification(coverage_suite, quadratic_suite):
    ok = True
    for label, obj, _ in coverage_suite:
        ok &= verify_oss(obj, 0.0, trials=1000, seed=71).passed
    for label, obj, _ in quadratic_suite:
        ok &= verify_semimetric(obj.M, 1.0).passed
        ok &= verify_oss(obj, 1.0, trials=1000, seed=72).passed

    # constructed violation: one corrupted distance breaks the triple bound
    corrupted = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 2.0], [10.0, 2.0, 0.0]])
    triple_report = verify_semimetric(corrupted, 1.0)
    ok &= not triple_report.passed
    witness_line = f"witness triple {triple_report.witness}"

    # and a smoothness violation: a convex quartic is not one-sided 0-smooth
    quartic = OssObjective(
        3,
        lambda x: (x.sum() / 3.0) ** 4,
        lambda x: np.full(3, 4.0 * x.sum() ** 3 / 81.0),
        lambda x, u: 12.0 * x.sum() ** 2 * u.sum() ** 2 / 81.0,
        sigma_claimed=0.0,
    )
    smooth_report = verify_oss(quartic, 0.0, trials=100, seed=73)
    ok &= not smooth_report.passed
    _report(
        7,
        "smoothness verification passes on all shipped instances and rejects the violators",
        ok,
        f" ({witness_line})",
    )


def test_criterion_08_multilinear_ground_truth(coverage_suite):
    rng = np.random.default_rng(81)
    worst = 0.0
    for label, obj, _ in coverage_suite:
        for _ in range(5):
            x = rng.uniform(size=obj.dimension)
            brute = coverage_expectation_brute(obj.weights, obj.covers, x)
            worst = max(worst, abs(obj.value(x) - brute))
    ok = worst <= 1e-9
    _report(
        8,
        "closed-form coverage values equal exhaustive subset expectations",
        ok,
        f" (worst gap {worst:.2e})",
    )


def test_criterion_09_non_downward_closed():
    objective = make_semimetric_instance([[0.0], [0.0]], [2.0, 1.0])
    polytope = MonotoneLinearPolytope(2, [(0, 1)])
    cfg = SolverConfig(epsilon=EPS)
    sol = parallel_greedy(objective, polytope, cfg)
    grid = grid_maximum(objective, polytope, GRID_RESOLUTION)
    ok = polytope.contains(sol.x) and sol.value >= guaranteed_ratio(cfg) * grid
    _report(
        9,
        "ordered-coordinate polytope is solved end to end with the guaranteed ratio",
        ok,
        f" (ratio {sol.value / grid:.3f})",
    )


def test_criterion_10_adaptivity_gap():
    ok = True
    factors = []
    for seed in (401, 402, 403):
        obj = make_coverage_instance(16, 18, density=0.4, seed=seed)
        polytope = BoxPolytope(16, 1.0)
        cfg = SolverConfig(epsilon=EPS)
        fast = parallel_greedy(obj, polytope, cfg)
        slow = serial_greedy(obj, polytope, cfg)
        factor = slow.trace.adaptive_rounds / fast.trace.adaptive_rounds
        factors.append(factor)
        ok &= factor >= 4.0
        ok &= abs(fast.value - slow.value) <= 0.05 * max(fast.value, slow.value)
    _report(
        10,
        "parallel solver needs at least 4x fewer adaptive rounds than the serial baseline at n=16",
        ok,
        f" (factors {', '.join(f'{f:.1f}' for f in factors)})",
    )
