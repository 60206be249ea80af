"""Feasible regions: box, cardinality, and ordered-coordinate polytopes.

Every polytope here is implicitly intersected with the unit box.  The solvers
move coordinates up, singly or in groups, and ask the region two closed-form
questions: which coordinates can take a small step on their own
(:meth:`Polytope.movable`) and how far a group can move together
(:meth:`Polytope.headroom`).  The grid oracle asks a third: which lattice
index prefixes no feasible point can complete
(:meth:`Polytope._lattice_prefixes`).  Known gap: on a non-downward-closed
region a coordinate tied with the coordinate that dominates it cannot move
alone, so a tied chain whose dominating coordinate never clears the
threshold stalls at the jump start.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .core import Vector

DEFAULT_MEMBERSHIP_TOL = 1e-9


class Polytope:
    """Base feasible region ``P ∩ [0,1]^n``.

    Subclasses override :meth:`_satisfies` / :meth:`_satisfies_many` with
    their defining inequalities, :meth:`movable` / :meth:`headroom` with the
    same inequalities in closed form, and set ``max_l1_point`` (a feasible
    point of maximal l1 norm) plus ``bounding_point`` (a componentwise upper
    bound of the region, used for the optimal-value upper bound).
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.dimension = int(dimension)
        self.max_l1_point: Vector = np.ones(self.dimension)
        self.bounding_point: Vector = np.ones(self.dimension)

    def contains(self, x, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected a vector of length {self.dimension}, got shape {x.shape}")
        if np.any(x < -tol) or np.any(x > 1.0 + tol):
            return False
        return self._satisfies(x, tol)

    def contains_many(self, X, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(f"expected an array of shape (*, {self.dimension})")
        ok = np.all((X >= -tol) & (X <= 1.0 + tol), axis=1)
        if ok.any():
            ok[ok] = self._satisfies_many(X[ok], tol)
        return ok

    def movable(self, x, step: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> np.ndarray:
        """Mask of the coordinates ``i`` with ``x + step * e_i`` in the region within ``tol``.

        Row for row the answer of :meth:`contains_many` on the probe matrix
        ``x + step * I``, without building it.
        """
        x = np.asarray(x, dtype=float)
        failing = ~self._coordinates_ok(x, tol)
        # row i: coordinate i passes once moved and no other coordinate fails
        return self._coordinates_ok(x + step, tol) & (np.count_nonzero(failing) == failing)

    def headroom(self, x, members) -> float:
        """Largest ``delta`` with ``x + delta * 1_S`` in the region, ``S = members`` (nonempty)."""
        return float(np.min(1.0 - np.asarray(x, dtype=float)[members]))

    def _coordinates_ok(self, x: np.ndarray, tol: float) -> np.ndarray:
        return (x >= -tol) & (x <= 1.0 + tol)

    def _lattice_prefixes(self, idx: np.ndarray, levels: np.ndarray, tol: float) -> np.ndarray:
        """Mask of the index prefixes that a feasible lattice point may still complete.

        ``idx`` holds one prefix a row: lattice indices into ``levels`` for
        coordinates ``0..k``, where ``k`` was just assigned and every shorter
        prefix already passed.  ``levels`` is increasing, with gaps wider than
        ``tol``.  The mask may keep infeasible prefixes (the grid oracle tests
        every candidate with :meth:`contains_many`) but must keep each prefix
        of a point that :meth:`contains_many` accepts.  The base region prunes
        nothing.
        """
        return np.ones(len(idx), dtype=bool)

    def _satisfies(self, x: np.ndarray, tol: float) -> bool:
        return True

    def _satisfies_many(self, X: np.ndarray, tol: float) -> np.ndarray:
        return np.ones(len(X), dtype=bool)

    def describe(self) -> dict:
        raise NotImplementedError


class BoxPolytope(Polytope):
    """``{x : 0 <= x <= upper}`` with ``upper`` in (0, 1]^n."""

    def __init__(self, dimension: int, upper=1.0):
        super().__init__(dimension)
        upper = np.broadcast_to(np.asarray(upper, dtype=float), (dimension,)).copy()
        if np.any(upper <= 0.0) or np.any(upper > 1.0):
            raise ValueError("box upper bounds must lie in (0, 1]")
        self.upper = upper
        self.max_l1_point = upper.copy()
        self.bounding_point = upper.copy()

    def _satisfies(self, x, tol):
        return bool(np.all(x <= self.upper + tol))

    def _satisfies_many(self, X, tol):
        return np.all(X <= self.upper + tol, axis=1)

    def _coordinates_ok(self, x, tol):
        return super()._coordinates_ok(x, tol) & (x <= self.upper + tol)

    def headroom(self, x, members):
        return float(np.min(self.upper[members] - np.asarray(x, dtype=float)[members]))

    def _lattice_prefixes(self, idx, levels, tol):
        k = idx.shape[1] - 1
        return (levels <= self.upper[k] + tol)[idx[:, k]]

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
        self.bounding_point = np.ones(dimension)

    def _satisfies(self, x, tol):
        return bool(x.sum() <= self.budget + tol)

    def _satisfies_many(self, X, tol):
        return X.sum(axis=1) <= self.budget + tol

    def movable(self, x, step, tol=DEFAULT_MEMBERSHIP_TOL):
        return super().movable(x, step, tol) & (float(np.sum(x)) + step <= self.budget + tol)

    def headroom(self, x, members):
        fill = (self.budget - float(np.sum(x))) / len(members)
        return min(super().headroom(x, members), fill)

    def _lattice_prefixes(self, idx, levels, tol):
        # levels[i] is i / resolution to a few ulp, so a feasible point's index
        # sum exceeds (budget + tol) * resolution by a relative 1e-15 at most
        resolution = len(levels) - 1
        total = idx[:, 0].astype(np.uint32)
        for column in idx.T[1:]:
            total += column
        return total <= (self.budget + tol) * resolution * (1.0 + 1e-12)

    def describe(self):
        return {"kind": "cardinality", "budget": self.budget}


class MonotoneLinearPolytope(Polytope):
    """``{x in [0,1]^n : x_i <= x_j for each ordered pair (i, j)}``.

    Not downward-closed: lowering a dominated coordinate below a dominating
    one leaves the region.  The all-ones point is always feasible, so it is
    both the max-l1 point and the bounding point.
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

    def _satisfies(self, x, tol):
        return bool(np.all(x[self._lo] <= x[self._hi] + tol))

    def _satisfies_many(self, X, tol):
        return np.all(X[:, self._lo] <= X[:, self._hi] + tol, axis=1)

    def movable(self, x, step, tol=DEFAULT_MEMBERSHIP_TOL):
        # a probe moves one end of a pair at most (i != j), so pair p fails in
        # row i as it fails at x unless i is its low end or its high end
        x = np.asarray(x, dtype=float)
        lo, hi, n = self._lo, self._hi, self.dimension
        fails = ~(x[lo] <= x[hi] + tol)
        lo_moved = ~(x[lo] + step <= x[hi] + tol)
        hi_moved = ~(x[lo] <= (x[hi] + step) + tol)
        failing = (
            np.count_nonzero(fails)
            - np.bincount(lo, fails, n) - np.bincount(hi, fails, n)
            + np.bincount(lo, lo_moved, n) + np.bincount(hi, hi_moved, n)
        )
        return super().movable(x, step, tol) & (failing == 0)

    def headroom(self, x, members):
        x = np.asarray(x, dtype=float)
        inside = np.zeros(self.dimension, dtype=bool)
        inside[members] = True
        leaving = inside[self._lo] & ~inside[self._hi]
        room = super().headroom(x, members)
        if leaving.any():
            room = min(room, float(np.min(x[self._hi[leaving]] - x[self._lo[leaving]])))
        return room

    def _lattice_prefixes(self, idx, levels, tol):
        # levels more than tol apart: x_lo <= x_hi + tol holds iff idx_lo <= idx_hi
        k = idx.shape[1] - 1
        keep = np.ones(len(idx), dtype=bool)
        for lo, hi in self.pairs:
            if max(lo, hi) == k:
                keep &= idx[:, lo] <= idx[:, hi]
        return keep

    def describe(self):
        return {"kind": "monotone-linear", "pairs": [list(p) for p in self.pairs]}


def opt_bounds(objective, polytope: Polytope) -> Tuple[float, float]:
    """Bracket the optimum of a monotone normalized objective over the region.

    The lower bound evaluates the objective at the feasible max-l1 point.
    The upper bound evaluates it at the all-ones point and at the region's
    componentwise bounding point and takes the smaller; monotonicity makes
    both valid upper bounds.  Points are evaluated once each, in that order;
    ``objective`` needs only a ``value`` method.
    """
    points = [polytope.max_l1_point, np.ones(polytope.dimension), polytope.bounding_point]
    values = {}
    for p in points:
        key = p.tobytes()
        if key not in values:
            values[key] = objective.value(p)
    lower = values[points[0].tobytes()]
    upper = min(values[points[1].tobytes()], values[points[2].tobytes()])
    return lower, upper
