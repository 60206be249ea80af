"""Feasible regions: box, cardinality, and ordered-coordinate polytopes.

Every region is the box ``[0, upper]`` of :class:`Polytope` cut by rows of
its own.  The solvers move coordinates up, singly or in groups, and ask
the region how far they can go, in closed form: each coordinate on its own
(:meth:`Polytope.room`) and a group together (:meth:`Polytope.headroom`),
the two answers agreeing exactly on single coordinates.  The grid oracle
asks, for each lattice index prefix, the interval of digits the next
coordinate may take (:meth:`Polytope._lattice_interval`), answered exactly
on the last coordinate, so the oracle builds and evaluates the feasible
points alone and tests none of them again; where rounding could put the
budget's closed form on the other side of membership's comparison (a
tie), that rule answers with :meth:`Polytope._satisfies_many` on the rows
themselves, as membership does.  Known gap: on a non-downward-closed
region a coordinate tied with the coordinate that dominates it cannot move
alone, so a tied chain whose dominating coordinate never clears the
threshold stalls at the jump start.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from .core import Vector

# absolute slack of every membership comparison: box bounds, budget, chain pairs
MEMBERSHIP_TOL = 1e-9


class Polytope:
    """Base feasible region: the box ``{x : 0 <= x <= upper}``, ``upper`` in (0, 1]^n.

    The base answers the box part of every query.  A subclass overrides
    ``_satisfies_many(X)`` with its own rows (slack ``MEMBERSHIP_TOL``, as for
    the box), narrows :meth:`room`, :meth:`headroom` and
    :meth:`_lattice_interval` through ``super()`` with the same rows in closed
    form, and sets ``max_l1_point`` (a feasible point of maximal l1 norm; by
    default ``upper``) when its rows cut ``upper`` off.  A subclass that adds
    rows without a lattice rule of its own still gets exact answers: the
    grid walk tests its complete lattice rows with :meth:`_satisfies_many`.
    """

    def __init__(self, dimension: int, upper=1.0):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.dimension = int(dimension)
        self.upper = np.empty(self.dimension)
        self.upper[:] = upper
        # NaN fails both comparisons
        if not (0.0 < self.upper.min() and self.upper.max() <= 1.0):
            raise ValueError("box upper bounds must lie in (0, 1]")
        self.max_l1_point: Vector = self.upper

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected a vector of length {self.dimension}, got shape {x.shape}")
        return bool(self.contains_many(x[None])[0])

    def contains_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(f"expected an array of shape (*, {self.dimension})")
        ok = np.all((X >= -MEMBERSHIP_TOL) & (X <= self.upper + MEMBERSHIP_TOL), axis=1)
        if ok.any():
            ok[ok] = self._satisfies_many(X[ok])
        return ok

    def room(self, x) -> np.ndarray:
        """``headroom(x, [i])`` for every coordinate ``i``: how far each can move alone."""
        return self.upper - np.asarray(x, dtype=float)

    def headroom(self, x, members) -> float:
        """Largest ``delta`` with ``x + delta * 1_S`` in the region, ``S = members`` (nonempty).

        Never above ``upper - x`` on ``S``, so from a feasible ``x`` a step of
        at most the headroom keeps every coordinate in [0, 1], rounding
        included: the solvers do not clip.
        """
        return float(np.min(self.upper[members] - np.asarray(x, dtype=float)[members]))

    def _lattice_interval(self, idx: np.ndarray, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inclusive range ``[lo, hi]`` of the digits coordinate ``k`` may take after each prefix.

        ``idx`` holds one prefix a row: indices into ``levels`` (increasing,
        with gaps wider than ``MEMBERSHIP_TOL``) of coordinates ``0..k-1``.
        The range holds each digit that extends the prefix toward a point
        :meth:`contains_many` accepts, and on the last coordinate no other,
        so the grid oracle evaluates its points without a membership test;
        ``lo > hi`` drops the prefix.  The box allows the levels up to its
        bound, the comparison membership makes.
        """
        top = np.count_nonzero(levels <= self.upper[idx.shape[1]] + MEMBERSHIP_TOL) - 1
        return np.zeros(len(idx), dtype=np.intp), np.full(len(idx), top, dtype=np.intp)

    @classmethod
    def _lattice_rule_covers_rows(cls) -> bool:
        """Whether :meth:`_lattice_interval` was written for the region's rows.

        True when the class that defines it is the class that defines
        :meth:`_satisfies_many`, or a subclass of that class.
        """
        def owner(name):
            return next(c for c in cls.__mro__ if name in vars(c))

        return issubclass(owner("_lattice_interval"), owner("_satisfies_many"))

    def _satisfies_many(self, X: np.ndarray) -> np.ndarray:
        """Rows of ``X`` (each inside the box) that satisfy the region's own rows."""
        return np.ones(len(X), dtype=bool)

    def describe(self) -> dict:
        raise NotImplementedError


class BoxPolytope(Polytope):
    """``{x : 0 <= x <= upper}`` with ``upper`` in (0, 1]^n: the base box alone."""

    def describe(self):
        return {"kind": "box", "upper": self.upper.tolist()}


class CardinalityPolytope(Polytope):
    """``{x in [0,1]^n : sum(x) <= budget}``."""

    def __init__(self, dimension: int, budget: float):
        super().__init__(dimension)
        if not 0 < budget <= dimension:
            raise ValueError(f"budget must lie in (0, {dimension}], got {budget}")
        self.budget = float(budget)
        point = np.zeros(dimension)
        whole = int(self.budget)
        point[:whole] = 1.0
        if whole < dimension:
            point[whole] = self.budget - whole
        self.max_l1_point = point

    def _satisfies_many(self, X):
        return X.sum(axis=1) <= self.budget + MEMBERSHIP_TOL

    def room(self, x):
        return np.minimum(super().room(x), self.budget - float(np.sum(x)))

    def headroom(self, x, members):
        fill = (self.budget - float(np.sum(x))) / len(members)
        return min(super().headroom(x, members), fill)

    def _lattice_interval(self, idx, levels):
        # levels[i] is i / resolution to a few ulp, so the index total decides a
        # row's sum except within a relative 1e-12 of the bound (a tie), where
        # complete rows are summed as contains_many sums them; below a bound of
        # 5e11, far above any grid's, that window holds at most the total `cap`
        bound = (self.budget + MEMBERSHIP_TOL) * (len(levels) - 1)
        cap = math.floor(bound * (1.0 + 1e-12))
        total = np.zeros(len(idx), dtype=np.intp)
        for column in idx.T:
            total += column
        lo, hi = super()._lattice_interval(idx, levels)
        np.minimum(hi, cap - total, out=hi)
        if idx.shape[1] == self.dimension - 1 and math.ceil(bound * (1.0 - 1e-12)) <= cap:
            tie = (hi == cap - total) & (hi >= lo)  # a tied row that membership refuses leaves the range
            hi[tie] -= ~self._satisfies_many(levels[np.column_stack((idx[tie], hi[tie]))])
        return lo, hi

    def describe(self):
        return {"kind": "cardinality", "budget": self.budget}


class MonotoneLinearPolytope(Polytope):
    """``{x in [0,1]^n : x_i <= x_j for each ordered pair (i, j)}``.

    Not downward-closed: lowering a dominated coordinate below a dominating
    one leaves the region.  The all-ones point is always feasible, so it is
    the max-l1 point.
    """

    def __init__(self, dimension: int, pairs: Iterable[Tuple[int, int]]):
        super().__init__(dimension)
        cleaned = []
        for i, j in pairs:
            i, j = int(i), int(j)
            if not (0 <= i < dimension and 0 <= j < dimension) or i == j:
                raise ValueError(f"invalid ordering pair ({i}, {j}) for dimension {dimension}")
            cleaned.append((i, j))
        if not cleaned:
            raise ValueError("at least one ordering pair is required")
        self.pairs = tuple(cleaned)
        self._lo = np.array([p[0] for p in self.pairs])
        self._hi = np.array([p[1] for p in self.pairs])

    def _satisfies_many(self, X):
        return np.all(X[:, self._lo] <= X[:, self._hi] + MEMBERSHIP_TOL, axis=1)

    def room(self, x):
        # alone, a coordinate leaves every pair it is the low end of
        x = np.asarray(x, dtype=float)
        room = super().room(x)
        np.minimum.at(room, self._lo, x[self._hi] - x[self._lo])
        return room

    def headroom(self, x, members):
        x = np.asarray(x, dtype=float)
        inside = np.zeros(self.dimension, dtype=bool)
        inside[members] = True
        leaving = inside[self._lo] & ~inside[self._hi]
        room = super().headroom(x, members)
        if leaving.any():
            room = min(room, float(np.min(x[self._hi[leaving]] - x[self._lo[leaving]])))
        return room

    def _lattice_interval(self, idx, levels):
        # levels more than the slack apart: x_lo <= x_hi + MEMBERSHIP_TOL iff idx_lo <= idx_hi
        k = idx.shape[1]
        lo, hi = super()._lattice_interval(idx, levels)
        for a, b in self.pairs:
            if b == k and a < k:
                np.maximum(lo, idx[:, a], out=lo)
            elif a == k and b < k:
                np.minimum(hi, idx[:, b], out=hi)
        return lo, hi

    def describe(self):
        return {"kind": "monotone-linear", "pairs": [list(p) for p in self.pairs]}


def opt_bounds(objective, polytope: Polytope) -> Tuple[float, float]:
    """Bracket the optimum of a monotone normalized objective over the region.

    The lower bound evaluates the objective at the feasible max-l1 point,
    the upper bound at ``upper``, which dominates every feasible point, so
    monotonicity makes it valid.  The all-ones point is never needed: it
    dominates ``upper`` in turn, so its value is never the smaller bound.
    The points are evaluated in that order, once when they are equal;
    ``objective`` needs only a ``value`` method.
    """
    lower = objective.value(polytope.max_l1_point)
    if np.array_equal(polytope.max_l1_point, polytope.upper):
        return lower, lower
    return lower, objective.value(polytope.upper)
