"""Independent oracles shared by the tests.

These deliberately avoid the library's vectorized evaluation paths: grids are
enumerated with itertools, expectations by exhaustive subset enumeration, and
derivatives by finite differences or, for multilinear functions, by exact
differences between opposite faces of the cube, so they can certify the
library against values computed another way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def iter_grid(n, resolution):
    """All lattice points of [0,1]^n with spacing 1/resolution.

    The levels are ``np.linspace``'s, as in ``grid_maximum``: ``i / resolution``
    rounded once can differ from them by an ulp (5/6 does), and on a region's
    boundary that ulp decides membership.
    """
    levels = np.linspace(0.0, 1.0, resolution + 1).tolist()
    for combo in itertools.product(levels, repeat=n):
        yield np.array(combo)


def grid_max_brute(value_fn, feasible_fn, n, resolution):
    """Plain-python exhaustive grid maximum."""
    best = -math.inf
    for x in iter_grid(n, resolution):
        if feasible_fn(x):
            best = max(best, value_fn(x))
    return best


def coverage_expectation_brute(weights, covers, x):
    """Expected covered weight by exhaustive subset enumeration.

    Coordinate i joins the set independently with probability x[i]; the set
    covers element e iff it contains a coordinate whose cover list holds e.
    """
    n = len(covers)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for subset in itertools.product([0, 1], repeat=n):
        prob = 1.0
        for i, bit in enumerate(subset):
            prob *= x[i] if bit else 1.0 - x[i]
        if prob == 0.0:
            continue
        covered = set()
        for i, bit in enumerate(subset):
            if bit:
                covered.update(covers[i])
        total += prob * sum(weights[e] for e in covered)
    return total


def multilinear_partial(value_fn, x, i):
    """Exact dF/dx_i of a multilinear F: F(x | x_i = 1) - F(x | x_i = 0)."""
    hi = np.array(x, dtype=float)
    lo = hi.copy()
    hi[i] = 1.0
    lo[i] = 0.0
    return value_fn(hi) - value_fn(lo)


def multilinear_mixed_partial(value_fn, x, i, j):
    """Exact d2F/dx_i dx_j (i != j) of a multilinear F:
    F(1, 1) - F(1, 0) - F(0, 1) + F(0, 0) in coordinates (i, j)."""
    hi = np.array(x, dtype=float)
    lo = hi.copy()
    hi[j] = 1.0
    lo[j] = 0.0
    return multilinear_partial(value_fn, hi, i) - multilinear_partial(value_fn, lo, i)


def fd_gradient(value_fn, x, h=1e-6):
    """Central-difference gradient."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
    return grad


def fd_mixed_partial(value_fn, x, i, j, h=1e-4):
    """Central-difference mixed second partial d2F/dxi dxj."""
    x = np.asarray(x, dtype=float)
    ei = np.zeros_like(x)
    ej = np.zeros_like(x)
    ei[i] = h
    ej[j] = h
    return (
        value_fn(x + ei + ej) - value_fn(x + ei - ej) - value_fn(x - ei + ej) + value_fn(x - ei - ej)
    ) / (4.0 * h * h)
