import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    MonotoneLinearPolytope,
    Polytope,
    grid_maximum,
    make_coverage_instance,
    make_semimetric_instance,
    opt_bounds,
)
from ossmax.polytopes import MEMBERSHIP_TOL

from helpers import grid_max_brute


def linear_objective(n, coeffs=None):
    coeffs = np.ones(n) if coeffs is None else np.asarray(coeffs, float)
    points = np.zeros((n, 1))
    return make_semimetric_instance(points, coeffs)


class TestMembership:
    def test_cardinality_boundary(self):
        p = CardinalityPolytope(3, 1)
        assert p.contains([0.5, 0.5, 0.0])
        assert not p.contains([0.6, 0.6, 0.0])

    def test_box_boundary(self):
        p = BoxPolytope(2, [0.5, 1.0])
        assert p.contains([0.5, 1.0])
        assert not p.contains([0.6, 1.0])

    def test_monotone_linear(self):
        p = MonotoneLinearPolytope(2, [(0, 1)])
        assert p.contains([0.3, 0.7])
        assert not p.contains([0.7, 0.3])

    @pytest.mark.parametrize(
        "p",
        [BoxPolytope(4, 0.8), CardinalityPolytope(4, 2), MonotoneLinearPolytope(3, [(0, 1), (1, 2)])],
    )
    def test_zero_and_max_l1_feasible(self, p):
        assert p.contains(np.zeros(p.dimension))
        assert p.contains(p.max_l1_point)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BoxPolytope(3).contains([0.1, 0.2])

    @pytest.mark.parametrize(
        "p",
        [BoxPolytope(3, 0.6), CardinalityPolytope(3, 1.5), MonotoneLinearPolytope(3, [(0, 2)])],
    )
    def test_max_l1_dominates_samples(self, p):
        rng = np.random.default_rng(5)
        cap = p.max_l1_point.sum()
        hits = 0
        for _ in range(2000):
            x = rng.uniform(size=3)
            if p.contains(x):
                hits += 1
                assert x.sum() <= cap + 1e-9
        assert hits > 0

    def test_contains_many_matches_scalar(self):
        p = CardinalityPolytope(4, 2)
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(200, 4)) * 1.1
        many = p.contains_many(X)
        for row, ok in zip(X, many):
            assert p.contains(row) == bool(ok)


class TestMembershipTolerance:
    """Every membership comparison allows the same fixed slack, MEMBERSHIP_TOL."""

    def test_value(self):
        assert MEMBERSHIP_TOL == 1e-9

    @pytest.mark.parametrize(
        "p, inside, outward",
        [
            (BoxPolytope(2, [0.5, 1.0]), [0.5, 0.25], [1.0, 0.0]),
            (BoxPolytope(2, [0.5, 1.0]), [0.0, 0.25], [-1.0, 0.0]),
            (CardinalityPolytope(3, 1), [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]),
            (MonotoneLinearPolytope(2, [(0, 1)]), [0.5, 0.5], [1.0, 0.0]),
        ],
        ids=["box-upper", "box-lower", "cardinality", "chain"],
    )
    @pytest.mark.parametrize("past, accepted", [(0.5, True), (2.0, False)])
    def test_point_past_one_row(self, p, inside, outward, past, accepted):
        # ``inside`` lies on the row; ``x`` is ``past`` tolerances beyond it
        x = np.asarray(inside) + past * MEMBERSHIP_TOL * np.asarray(outward)
        assert p.contains(x) == accepted
        assert p.contains_many(np.array([inside, x])).tolist() == [True, accepted]


@st.composite
def regions(draw):
    """A box, cardinality, chain or cycle region of dimension at most 6."""
    kind = draw(st.sampled_from(["box", "cardinality", "chain", "cycle"]))
    n = draw(st.integers(1 if kind in ("box", "cardinality") else 2, 6))
    if kind == "box":
        return BoxPolytope(n, draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    if kind == "cardinality":
        return CardinalityPolytope(n, draw(st.floats(0.05, float(n))))
    order = draw(st.permutations(range(n)))
    pairs = list(zip(order[:-1], order[1:]))
    if kind == "cycle":
        pairs.append((order[-1], order[0]))
    return MonotoneLinearPolytope(n, pairs)


# grid values make ties and exact boundary hits likely; free floats cover the rest
coordinates = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(-0.1, 1.1))


def feasible_point(p, raw):
    """Map a point of the unit cube into region ``p``."""
    x = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
    if isinstance(p, BoxPolytope):
        return np.minimum(x, p.upper)
    if isinstance(p, CardinalityPolytope):
        return x * (p.budget / x.sum()) if x.sum() > p.budget else x
    for _ in range(p.dimension):  # raise each dominating coordinate to its dominated one
        np.maximum.at(x, p._hi, x[p._lo])
    return x


class TestClosedForms:
    """Closed-form room and headroom against each other and the membership test."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_room_is_the_headroom_of_each_coordinate(self, data):
        p = data.draw(regions())
        n = p.dimension
        x = feasible_point(p, data.draw(st.lists(coordinates, min_size=n, max_size=n)))
        room = p.room(x)
        assert room.shape == (n,)
        for i in range(n):
            assert room[i] == p.headroom(x, [i])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_headroom_is_the_largest_feasible_step(self, data):
        p = data.draw(regions())
        n = p.dimension
        x = feasible_point(p, data.draw(st.lists(coordinates, min_size=n, max_size=n)))
        members = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        room = p.headroom(x, members)
        group = np.zeros(n)
        group[members] = 1.0
        assert p.contains(x)
        assert p.contains(x + room * group)
        assert not p.contains(x + (room + 1e-7) * group)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_steps_within_headroom_stay_in_the_unit_box(self, data):
        # the solvers move x[S] by min(bound, headroom) and scale the max-l1
        # point by alpha with no clip to 1: rounding must never leave the box
        p = data.draw(regions())
        n = p.dimension
        x = feasible_point(p, data.draw(st.lists(coordinates, min_size=n, max_size=n)))
        members = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        bound = data.draw(st.one_of(st.sampled_from([1e-6, 1.0, 1.0 / 0.9]), st.floats(1e-9, 10.0)))
        y = x.copy()
        y[members] += min(bound, p.headroom(x, members))
        assert y.max() <= 1.0
        alpha = data.draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
        assert (alpha * p.max_l1_point).max() <= 1.0

    def test_a_full_budget_leaves_no_room(self):
        # a probe x + 1e-6 * e_i within tol = 1e-6 would sit on a summation
        # tie here (1.000001 against 1.0000010000000001); the room makes none
        p = CardinalityPolytope(2, 1.0)
        x = np.array([0.25, 0.75])
        assert np.array_equal(p.room(x), [0.0, 0.0])


class TestOptBounds:
    def test_linear_box(self):
        obj = linear_objective(3)
        lower, upper = opt_bounds(obj, BoxPolytope(3, 1.0))
        assert lower == pytest.approx(3.0)
        assert upper == pytest.approx(3.0)

    def test_linear_cardinality(self):
        obj = linear_objective(4)
        p = CardinalityPolytope(4, 2)
        lower, upper = opt_bounds(obj, p)
        assert lower == pytest.approx(2.0)
        assert upper == pytest.approx(4.0)
        # independent grid oracle at resolution 1/8 confirms the bracket
        opt = grid_max_brute(lambda x: x.sum(), lambda x: x.sum() <= 2 + 1e-9, 4, 8)
        assert lower - 1e-9 <= opt <= upper + 1e-9
        assert opt == pytest.approx(2.0)

    def test_coverage_bracket(self):
        obj = make_coverage_instance(3, 4, density=0.5, seed=9)
        p = CardinalityPolytope(3, 2)
        lower, upper = opt_bounds(obj, p)
        opt = grid_max_brute(
            lambda x: obj.value(x), lambda x: x.sum() <= 2 + 1e-9, 3, 10
        )
        assert lower <= opt + 1e-9
        assert opt <= upper + 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_brackets_grid_maximum(self, seed):
        obj = make_coverage_instance(4, 6, density=0.45, seed=seed)
        for p in (BoxPolytope(4, 1.0), CardinalityPolytope(4, 2)):
            lower, upper = opt_bounds(obj, p)
            grid = grid_maximum(obj, p, 10)
            assert lower <= grid + 1e-9
            assert grid <= upper + 1e-9
            assert lower <= upper + 1e-9

    @pytest.mark.parametrize(
        "p, calls",
        [
            (BoxPolytope(3, 0.5), 1),
            (BoxPolytope(3, 1.0), 1),
            (CardinalityPolytope(3, 2), 2),
            (MonotoneLinearPolytope(3, [(0, 1), (1, 2)]), 1),
        ],
    )
    def test_value_calls(self, p, calls):
        # one call per distinct point among the max-l1 point and ``upper``
        obj = make_coverage_instance(3, 4, density=0.5, seed=9)
        obj.reset_counters()
        lower, upper = opt_bounds(obj, p)
        assert obj.value_calls == calls
        assert lower == obj.value(p.max_l1_point)
        assert upper == obj.value(p.upper)


class TestValidation:
    def test_box_bounds_domain(self):
        with pytest.raises(ValueError):
            BoxPolytope(2, [0.0, 1.0])
        with pytest.raises(ValueError):
            BoxPolytope(2, 1.5)

    def test_dimension_domain(self):
        with pytest.raises(ValueError):
            Polytope(0)

    @pytest.mark.parametrize("X", [np.ones((4, 3)), np.ones(2), np.ones((2, 2, 2))])
    def test_contains_many_needs_rows_of_the_dimension(self, X):
        with pytest.raises(ValueError):
            BoxPolytope(2).contains_many(X)

    @pytest.mark.parametrize("upper", [float("nan"), [float("nan"), 1.0], [0.5, float("nan")]])
    def test_box_bounds_reject_nan(self, upper):
        with pytest.raises(ValueError):
            BoxPolytope(2, upper)

    def test_cardinality_budget_domain(self):
        with pytest.raises(ValueError):
            CardinalityPolytope(3, 0)
        with pytest.raises(ValueError):
            CardinalityPolytope(3, 4)

    def test_monotone_linear_pairs(self):
        with pytest.raises(ValueError):
            MonotoneLinearPolytope(2, [])
        with pytest.raises(ValueError):
            MonotoneLinearPolytope(2, [(0, 2)])
        with pytest.raises(ValueError):
            MonotoneLinearPolytope(2, [(1, 1)])
