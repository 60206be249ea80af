"""Solutions pinned to their first computed figures: the results of the
threshold sweep and of the serial baseline must not drift.

Each case records the solution ``x`` (its most common entry, and the other
entries by value), the value, the final threshold and fill, the thresholds
of the trace history, the level and step counts, the query counts, and the
adaptive rounds.  The counts must be reproduced exactly.  The floating-point
figures are compared to a relative 1e-12, not bit for bit: the oracles' sums
go through BLAS (a matrix-vector product for the quadratics, a dot product
for coverage), whose accumulation order depends on the CPU.  The rounds are
an upper bound: they were recorded when every empty threshold level cost a
scan of its own, and skipping empty levels within one scan may only lower
them.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    MonotoneLinearPolytope,
    SolverConfig,
    StochasticObjective,
    make_coverage_instance,
    parallel_greedy,
    random_semimetric_instance,
    serial_greedy,
    stochastic_parallel_greedy,
)


RTOL = 1e-12


@dataclass(frozen=True)
class Pin:
    x: Tuple[float, Dict[float, List[int]]]
    value: float
    lambda_final: float
    t_final: float
    outer: int
    inner: int
    value_q: int
    grad_q: int
    parent_rounds: int
    lams: List[float]


def region(kind, n):
    if kind == "box":
        return BoxPolytope(n, 1.0)
    if kind == "cardinality":
        return CardinalityPolytope(n, n / 4)
    return MonotoneLinearPolytope(n, [(i, i + 1) for i in range(n - 1)])


def solve(family, kind):
    if family == "coverage":
        obj = make_coverage_instance(12, 16, density=0.3, seed=41)
        return parallel_greedy(obj, region(kind, 12), SolverConfig(epsilon=0.1))
    if family == "quadratic":
        obj = random_semimetric_instance(24, seed=42)
        return parallel_greedy(obj, region(kind, 24), SolverConfig(alpha=0.5, sigma=1.0, epsilon=0.1))
    if family == "quadratic-wide":
        obj = random_semimetric_instance(256, seed=45)
        return parallel_greedy(obj, CardinalityPolytope(256, 32), SolverConfig(alpha=0.05, sigma=1.0, epsilon=0.1))
    sobj = StochasticObjective(make_coverage_instance(12, 16, density=0.3, seed=43), 0.25, seed=44)
    cfg = SolverConfig(epsilon=0.1, spg_batch=16, noise_theta=0.25)
    return stochastic_parallel_greedy(sobj, region(kind, 12), cfg)


PINS = {
    ("coverage", "box"): Pin(
        x=(0.05, {1.0: [2, 3, 5, 7, 9, 11]}),
        value=13.740575639132244, lambda_final=0.3821644172541103, t_final=1.0,
        outer=34, inner=4, value_q=6, grad_q=5, parent_rounds=42,
        lams=[
            13.740575639132244, 5.914867259171226, 3.4926699678680175, 1.8561480203937473,
            0.7191097737173276
        ],
    ),
    ("quadratic", "box"): Pin(
        x=(1.0, {}),
        value=156.5750126174502, lambda_final=67.4004088371486, t_final=1.0,
        outer=8, inner=4, value_q=6, grad_q=4, parent_rounds=15,
        lams=[156.5750126174502, 83.21038128043037, 74.88934315238734, 74.88934315238734, 74.88934315238734],
    ),
    ("stochastic", "box"): Pin(
        x=(0.0, {0.09988999999999998: [8], 0.5170645: [1], 0.5829084999999998: [2, 3], 1.0: [5, 7]}),
        value=14.102820899520795, lambda_final=0.42983820213316526, t_final=1.0,
        outer=34, inner=27, value_q=411, grad_q=28, parent_rounds=136,
        lams=[
            15.454668363517948, 4.36485482237595, 2.3196628116582976, 1.8789268774432213,
            1.6910341896988992, 1.5219307707290093, 1.5219307707290093, 1.5219307707290093,
            1.5219307707290093, 1.3697376936561083, 1.3697376936561083, 1.1094875318614479,
            0.9985387786753032, 0.9985387786753032, 0.9985387786753032, 0.9985387786753032,
            0.9985387786753032, 0.9985387786753032, 0.9985387786753032, 0.8986849008077729,
            0.727934769654296, 0.5896271634199798, 0.5896271634199798, 0.5896271634199798,
            0.4775980023701836, 0.4775980023701836, 0.4775980023701836, 0.4775980023701836
        ],
    ),
    ("coverage", "cardinality"): Pin(
        x=(0.0, {0.05: [0, 1], 0.42500000000000004: [7], 0.47500000000000003: [2], 1.0: [5, 11]}),
        value=11.594651993338962, lambda_final=1.6705332183543726, t_final=1.0,
        outer=20, inner=3, value_q=6, grad_q=3, parent_rounds=25,
        lams=[13.740575639132244, 6.572074732412473, 3.880744408742242, 1.8561480203937473],
    ),
    ("quadratic", "cardinality"): Pin(
        x=(0.0, {0.5: [0, 1, 2, 3, 4, 5], 0.75: [7, 8, 12, 13]}),
        value=12.741508638574832, lambda_final=23.501069415439233, t_final=0.75,
        outer=18, inner=1, value_q=4, grad_q=1, parent_rounds=19,
        lams=[156.5750126174502, 26.112299350488037],
    ),
    ("stochastic", "cardinality"): Pin(
        x=(0.0, {0.74999975: [1, 5, 9], 0.75000075: [7]}),
        value=11.538882132886583, lambda_final=4.352391637943166, t_final=0.75000075,
        outer=12, inner=2, value_q=11, grad_q=2, parent_rounds=19,
        lams=[15.410539889605227, 4.835990708825739, 4.835990708825739],
    ),
    ("coverage", "chain"): Pin(
        x=(0.05, {1.0: [9, 10, 11]}),
        value=9.825063521349637, lambda_final=0.3821644172541103, t_final=1.0,
        outer=34, inner=3, value_q=5, grad_q=4, parent_rounds=40,
        lams=[13.740575639132244, 5.914867259171226, 2.062386689326386, 0.7191097737173276],
    ),
    ("quadratic", "chain"): Pin(
        x=(1.0, {}),
        value=156.5750126174502, lambda_final=49.134898042281336, t_final=1.0,
        outer=11, inner=24, value_q=26, grad_q=24, parent_rounds=58,
        lams=[
            156.5750126174502, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037, 54.59433115809037, 54.59433115809037, 54.59433115809037,
            54.59433115809037
        ],
    ),
    ("stochastic", "chain"): Pin(
        x=(0.0, {0.0652405: [5], 0.06533699999999995: [6], 1.0: [7, 8, 9, 10, 11]}),
        value=13.334481216101874, lambda_final=0.42983820213316526, t_final=1.0,
        outer=34, inner=16, value_q=200, grad_q=17, parent_rounds=99,
        lams=[
            15.454668363517948, 1.3697376936561083, 1.3697376936561083, 0.9985387786753032,
            0.9985387786753032, 0.9985387786753032, 0.9985387786753032, 0.8088164107269956,
            0.8088164107269956, 0.8088164107269956, 0.727934769654296, 0.727934769654296,
            0.6551412926888665, 0.6551412926888665, 0.5896271634199798, 0.5896271634199798,
            0.5306644470779818
        ],
    ),
    ("quadratic-wide", "cardinality"): Pin(
        x=(
            0.1056,
            {
                0.0: [52, 125],
                0.15560000000000002: list(range(32)),
                1.0: [136, 197, 205, 206],
            },
        ),
        value=298.38018983795615, lambda_final=882.8715175971716, t_final=1.0,
        outer=28, inner=2, value_q=5, grad_q=2, parent_rounds=31,
        lams=[16869.695435328635, 980.9683528857463, 980.9683528857463],
    ),
}


def expand(n, spec):
    """The pinned ``x``: the common entry everywhere, the others at their indices."""
    common, others = spec
    x = np.full(n, common)
    for entry, indices in others.items():
        x[indices] = entry
    return x


@pytest.mark.parametrize("family, kind", list(PINS))
def test_solution_is_pinned(family, kind):
    pin = PINS[(family, kind)]
    sol = solve(family, kind)
    t = sol.trace
    np.testing.assert_allclose(sol.x, expand(sol.x.size, pin.x), rtol=RTOL, atol=0.0)
    figures = (sol.value, sol.lambda_final, sol.t_final)
    assert figures == pytest.approx((pin.value, pin.lambda_final, pin.t_final), rel=RTOL)
    assert [snap.lam for snap in t.history] == pytest.approx(pin.lams, rel=RTOL)
    assert (t.outer_rounds, t.inner_rounds) == (pin.outer, pin.inner)
    assert (t.value_queries, t.gradient_queries) == (pin.value_q, pin.grad_q)
    assert t.adaptive_rounds <= pin.parent_rounds


@dataclass(frozen=True)
class SerialPin:
    x: Tuple[float, Dict[float, List[int]]]
    value: float
    t_final: float
    steps: int
    value_q: int
    grad_q: int
    rounds: int


# the serial baseline on the coverage instance of the parallel pins; its
# adaptive rounds are one per gradient query and are pinned exactly
SERIAL_PINS = {
    "box": SerialPin(
        x=(0.05, {0.9999999999999989: [2, 3, 5, 7, 11]}),
        value=13.740575639132237, t_final=0.44583333333333286,
        steps=570, value_q=571, grad_q=571, rounds=571,
    ),
    "cardinality": SerialPin(
        x=(0.0, {0.05: [0, 1, 2], 0.8499999999999994: [7], 0.9999999999999989: [5, 11]}),
        value=11.739065726392845, t_final=0.9999999999999991,
        steps=342, value_q=343, grad_q=342, rounds=342,
    ),
    "chain": SerialPin(
        x=(0.05, {0.9999999999999989: [9, 10, 11]}),
        value=9.82506352134963, t_final=0.2874999999999997,
        steps=342, value_q=343, grad_q=343, rounds=343,
    ),
}


@pytest.mark.parametrize("kind", list(SERIAL_PINS))
def test_serial_baseline_is_pinned(kind):
    pin = SERIAL_PINS[kind]
    obj = make_coverage_instance(12, 16, density=0.3, seed=41)
    sol = serial_greedy(obj, region(kind, 12), SolverConfig(epsilon=0.1))
    t = sol.trace
    np.testing.assert_allclose(sol.x, expand(sol.x.size, pin.x), rtol=RTOL, atol=0.0)
    assert (sol.value, sol.t_final) == pytest.approx((pin.value, pin.t_final), rel=RTOL)
    assert (t.outer_rounds, t.inner_rounds, len(t.history)) == (0, pin.steps, pin.steps + 1)
    assert (t.value_queries, t.gradient_queries, t.adaptive_rounds) == (pin.value_q, pin.grad_q, pin.rounds)
