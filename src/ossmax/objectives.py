"""Objective oracles, instance generators, and property verifiers.

Two concrete families are shipped:

* ``QuadraticSemiMetricObjective`` -- ``F(x) = x'Mx/2 + b'x`` with a
  nonnegative symmetric semi-metric matrix ``M``; one-sided smooth with the
  matrix's semi-metric parameter.
* ``CoverageMultilinearObjective`` -- the multilinear extension of a weighted
  coverage set function, evaluated in closed form; all mixed second partials
  are nonpositive, so it is one-sided 0-smooth.  Its incidence is stored as
  (element, coordinate) index pairs: value, gradient and Hessian form cost
  O(nnz), ``value_many`` O(B * nnz), and coordinates at exactly 1 are exact.

``StochasticObjective`` wraps a deterministic oracle and serves noisy value
and gradient samples for the stochastic solver.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import VALUE_TOL, SolverError, Vector, check_finite

FD_STEP = 1e-4  # central-difference step for the Hessian fallback
DRAW_BLOCK = 1 << 16  # uniform draws (512 KB) per block of rows in make_coverage_instance
VALUE_MANY_CHUNK = 100_000  # entries of the temporaries per batch of value_many rows
# The quadratic's product Mx runs over the rows of x's support when
# SUPPORT_SHARE * |supp x| <= n and n >= SUPPORT_MIN_DIMENSION, in blocks of
# at most PRODUCT_BLOCK matrix entries (512 KB), so below that crossover a
# product costs O(n * |supp x|); past it the product is the dense M @ x,
# O(n^2), except at the all-ones point, whose product is M's row sums (taken
# at construction and, like M, read as fixed after it), O(n).  A block of
# consecutive rows is read in place as a slice of M; any other is gathered
# into one buffer per call with np.take(..., mode="clip"), because the
# default mode="raise" buffers `out` a second time.  Measured with one BLAS
# thread on a 2-vCPU Xeon VM (2 MB L2):
# - gathering a 32 x 2048 block takes 19 us with mode="clip", 50 us with
#   mode="raise" and 18 us as a fresh M[block];
# - a fresh M[block] per block made the product's cost follow malloc's mmap
#   threshold: at n = 2048 over n/8 consecutive rows, 2.3 ms against 0.26 ms
#   for the slice under MALLOC_MMAP_THRESHOLD_=131072 (0.36 against 0.23 ms
#   without it);
# - at |supp x| = n/4 the blocked support product takes 0.64 / 0.55 / 0.30 /
#   0.47 of the dense product's time at n = 512 / 1024 / 2048 / 4096;
# - at n <= 256, where M fits in L2, its fixed cost eats the saving: 0.89x
#   at one nonzero of n = 256, 1.05x at n/16, and 1.9-3.6x at n <= 128.
# The distance build that makes M takes its rows in blocks of PRODUCT_BLOCK
# entries too (2^15-2^16 were the fastest of 2^12...2^18 at n = 512 / 2048 /
# 4096), and verify_semimetric takes its n^3 residuals in blocks of at least
# one row of n^2 entries.
SUPPORT_SHARE = 4
SUPPORT_MIN_DIMENSION = 512
PRODUCT_BLOCK = 1 << 16
# The coverage oracles take each covered element's product of its pairs'
# factors left to right in pair order: by np.multiply.at into ones at
# SCATTER_MIN_ELEMENTS covered elements or more, and by np.multiply.reduceat
# below, which pays a fixed cost per segment but less per call.  Both give
# the same bits (1.0 * f == f, then the same products in the same order).
# Measured with one BLAS thread on a 2-vCPU Xeon VM, 3 pairs per element,
# scatter against reduceat: 3.4 / 1.3 us at 8 elements, 4.4 / 3.4 at 128,
# 4.7 / 5.7 at 256, 7.8 / 10.1 at 512 and 32 / 68 at 4096.  The constant
# sits above the measured crossover, where scatter's gain is clear, and
# desk instances (m <= 13) keep reduceat.
SCATTER_MIN_ELEMENTS = 512


class _CallCounter:
    """Contention-safe tally of oracle invocations."""

    __slots__ = ("_lock", "count")

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self, k: int = 1) -> None:
        with self._lock:
            self.count += k

    def reset(self) -> None:
        with self._lock:
            self.count = 0


class OssObjective:
    """Deterministic first-order oracle with invocation counting.

    A family implements three hooks: ``_value_impl(x)``, ``_gradient_impl(x)``
    and, optionally, an exact Hessian quadratic form ``_quad_impl(x, u) ->
    u' H(x) u``.  Functions given as ``value_fn``, ``gradient_fn`` and
    ``hessian_quadratic_fn`` stand in for the hooks of that one instance, and
    a value and a gradient are required one way or the other.  Without a
    quadratic form the objective falls back to a central second difference
    along ``u``, meant for verification, not for solver hot paths.
    ``value_many`` calls ``value`` on each row, so a batch is checked and
    counted as single values are; a family may override it with a batched
    evaluation.  Oracle errors name the objective's class.  A
    family's hooks are methods, not stored callables, so nothing its
    objective holds refers back to it and a dropped objective is freed at
    once, without waiting for the cyclic collector.
    """

    _quad_impl = None

    def __init__(
        self,
        dimension: int,
        value_fn: Optional[Callable[[np.ndarray], float]] = None,
        gradient_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        hessian_quadratic_fn: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
        sigma_claimed: float = 0.0,
    ):
        hooks = {"_value_impl": value_fn, "_gradient_impl": gradient_fn, "_quad_impl": hessian_quadratic_fn}
        for hook, fn in hooks.items():
            if fn is not None:
                setattr(self, hook, fn)
        if not (hasattr(self, "_value_impl") and hasattr(self, "_gradient_impl")):
            raise TypeError("an objective needs a value function and a gradient function")
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        if not sigma_claimed >= 0.0:
            raise ValueError("sigma_claimed must be nonnegative")
        self.dimension = int(dimension)
        self.sigma_claimed = float(sigma_claimed)
        self._value_calls = _CallCounter()
        self._gradient_calls = _CallCounter()

    @property
    def value_calls(self) -> int:
        return self._value_calls.count

    @property
    def gradient_calls(self) -> int:
        return self._gradient_calls.count

    def reset_counters(self) -> None:
        self._value_calls.reset()
        self._gradient_calls.reset()

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected a vector of length {self.dimension}, got shape {x.shape}")
        return x

    def value(self, x) -> float:
        x = self._coerce(x)
        self._value_calls.bump()
        v = float(self._value_impl(x))
        if not math.isfinite(v):
            raise SolverError(f"{type(self).__name__}: value oracle returned {v}")
        return v

    def gradient(self, x) -> Vector:
        x = self._coerce(x)
        self._gradient_calls.bump()
        g = np.asarray(self._gradient_impl(x), dtype=float)
        if g.shape != (self.dimension,):
            raise SolverError(f"{type(self).__name__}: gradient oracle returned shape {g.shape}")
        return check_finite(g, f"{type(self).__name__}: gradient oracle")

    def hessian_quadratic_form(self, x, u) -> float:
        x = self._coerce(x)
        u = self._coerce(u)
        if self._quad_impl is not None:
            return float(self._quad_impl(x, u))
        h = FD_STEP
        return (self.value(x + h * u) - 2.0 * self.value(x) + self.value(x - h * u)) / (h * h)

    def value_many(self, X) -> np.ndarray:
        """Batch evaluation: ``value`` on each row, so each row is checked
        and counted as one invocation."""
        return np.array([self.value(row) for row in X], dtype=float)


class QuadraticSemiMetricObjective(OssObjective):
    """``F(x) = x'Mx/2 + b'x`` for a nonnegative symmetric matrix ``M``.

    The gradient is ``Mx + b`` and the Hessian quadratic form is ``u'Mu``
    exactly.  With ``M`` a sigma-semi-metric (``M[i,j] <= sigma * (M[i,k] +
    M[k,j])`` for distinct triples) the objective is one-sided sigma-smooth;
    pairwise distances of points in a metric space give ``sigma = 1``.

    Value and gradient share one product ``Mx``.  On a point with few
    nonzeros it sums the support's rows of ``M`` (``M`` is symmetric), so a
    query costs O(n * |supp x|) instead of O(n^2); see ``SUPPORT_SHARE``.
    A block of consecutive support rows is read in place as a slice of
    ``M``; other blocks are gathered with ``np.take(mode="clip")`` into one
    buffer that each call allocates for itself (``mode="raise"`` would copy
    through a second buffer), so threads sharing the objective never share
    it.
    The all-ones point, which ``opt_bounds`` values when the region's box
    bound ``upper`` is all ones and differs from its max-l1 point (under a
    cardinality budget below n, say), reads ``M``'s row sums, taken once
    at construction, and costs O(n).  No other point starts from the row
    sums: subtracting rows from them cancels when a few rows hold most of a
    column's mass.  The product of the last point
    is kept, keyed by a copy of the point, so a gradient at the point whose
    value was just taken (or the reverse) costs O(n).  Either call still
    counts as one query, and ``reset_counters`` drops the kept product.  The
    key is the point alone, so ``M`` and its row sums are read as fixed once
    the objective is built.

    ``M`` is used as given, not copied: a C-contiguous float64 array becomes
    ``self.M`` itself, and any other input is converted once to a C-ordered
    float64 array.  Changing the caller's array after construction is not
    supported, since the row sums and the kept product are taken from it.
    ``b`` is copied.  The constructor requires ``np.allclose(M, M.T)`` and
    every entry of ``M`` and ``b`` at least 0, so NaN is rejected and +inf
    accepted.
    """

    def __init__(self, M, b, sigma: float = 1.0):
        M = np.ascontiguousarray(M, dtype=float)
        b = np.asarray(b, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be a square matrix")
        n = M.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have length {n}, got shape {b.shape}")
        if not np.allclose(M, M.T):
            raise ValueError("M must be symmetric")
        if not ((M >= 0.0).all() and (b >= 0.0).all()):
            raise ValueError("M and b must be nonnegative")
        self._adopt(M, b, sigma)

    def _adopt(self, M: np.ndarray, b: np.ndarray, sigma: float) -> None:
        """Take a valid C-contiguous float64 ``M`` as is and a copy of ``b``."""
        n = len(M)
        self.M = M
        self.b = b.copy()
        self._row_sums = self.M @ np.ones(n)  # the product at the all-ones point
        # (bytes of the last point, its product), replaced whole so that a
        # reader never pairs one point with another point's product
        self._memo = (None, None)
        super().__init__(n, sigma_claimed=sigma)

    def reset_counters(self) -> None:
        """Zero the counters and drop the kept product, so that the queries
        counted from here are computed as on a fresh objective."""
        super().reset_counters()
        self._memo = (None, None)

    def _product(self, x) -> np.ndarray:
        """``Mx``, over the rows of ``x``'s support when that is cheaper."""
        key = x.tobytes()
        memo = self._memo
        if memo[0] == key:
            return memo[1]
        n = self.dimension
        if n >= SUPPORT_MIN_DIMENSION and SUPPORT_SHARE * np.count_nonzero(x) <= n:
            support = np.flatnonzero(x)
            product = np.zeros(n)
            rows = max(1, PRODUCT_BLOCK // n)
            buffer = None  # per call: threads may share the objective
            for start in range(0, len(support), rows):
                block = support[start : start + rows]
                first, last = block[0], block[-1]
                if last - first + 1 == len(block):
                    block_rows = self.M[first : last + 1]
                else:
                    if buffer is None:
                        buffer = np.empty((min(rows, len(support)), n))
                    block_rows = np.take(self.M, block, axis=0, out=buffer[: len(block)], mode="clip")
                product += x[block] @ block_rows
        elif n >= SUPPORT_MIN_DIMENSION and (x == 1.0).all():
            product = self._row_sums.copy()
        else:
            product = self.M @ x
        self._memo = (key, product)
        return product

    def _value_impl(self, x) -> float:
        return 0.5 * float(x @ self._product(x)) + float(self.b @ x)

    def _gradient_impl(self, x) -> np.ndarray:
        return self._product(x) + self.b

    def _quad_impl(self, x, u) -> float:
        return float(u @ self.M @ u)

    def value_many(self, X):
        """Batch evaluation; counts one invocation per row.

        Rows go in chunks of at most ``VALUE_MANY_CHUNK`` entries of
        ``X @ M``, which keeps the temporaries in cache.
        """
        X = np.asarray(X, dtype=float)
        self._value_calls.bump(len(X))
        out = np.empty(len(X))
        chunk = max(1, VALUE_MANY_CHUNK // self.dimension)
        for start in range(0, len(X), chunk):
            rows = X[start : start + chunk]
            quad = rows @ self.M
            quad *= rows
            out[start : start + chunk] = 0.5 * quad.sum(axis=1) + rows @ self.b
        return out


class CoverageMultilinearObjective(OssObjective):
    """Multilinear extension of weighted coverage, in closed form.

    ``F(x) = sum_e w_e * (1 - prod_{i covers e} (1 - x_i))`` equals the
    expected covered weight when coordinate ``i`` is rounded to 1
    independently with probability ``x_i``.  Mixed second partials are
    nonpositive, so ``sigma_claimed`` is 0.

    The incidence is held as (element, coordinate) index pairs sorted by
    element, with repeated entries of a cover list counted once.  Value,
    gradient and Hessian form cost O(nnz) and ``value_many`` O(B * nnz) for
    ``nnz`` pairs and ``B`` rows; no m x n array is built.  Factors
    ``1 - x_i`` that are exactly 0 are found, set to 1 and counted per
    element on the zero pairs alone, instead of being divided by, so
    coordinates at exactly 1 are handled exactly.  A gradient selects its
    live terms per element, so its zero handling costs O(m) plus O(zero
    pairs) beside the O(nnz) gather, divide and sum.  Each element's
    product of factors is taken left to right in pair order, by scatter or
    by segment (``SCATTER_MIN_ELEMENTS``), with the same bits either way;
    ``value_many`` reduces each row by segment.  At m = 4n and density
    3/n, one gradient took 0.10-0.15 ms at n = 1024 and 0.9 / 1.2 ms at
    n = 10^4, at a uniform point / with 5% of the coordinates at exactly 1
    (one BLAS thread, 2-vCPU VM; README gives the figures in full).
    """

    def __init__(self, weights, covers: Sequence[Sequence[int]]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) < 1:
            raise ValueError("weights must be a nonempty vector")
        if not (weights >= 0.0).all():
            raise ValueError("weights must be nonnegative")
        n = len(covers)
        if n < 1:
            raise ValueError("at least one coordinate is required")
        m = len(weights)
        covers = [tuple(sorted(map(int, elements))) for elements in covers]
        for i, cover in enumerate(covers):
            if cover and not (0 <= cover[0] and cover[-1] < m):
                raise ValueError(f"coordinate {i} covers unknown element {cover[0] if cover[0] < 0 else cover[-1]}")
        keys = np.array(sorted({e * n + i for i, cover in enumerate(covers) for e in cover}), dtype=np.intp)
        self._adopt(weights, covers, keys)

    def _adopt(self, weights: np.ndarray, covers: list, keys: np.ndarray) -> None:
        """Take valid sorted cover tuples as is, a copy of ``weights``, and
        the incidence as its sorted keys ``element * n + coordinate``, each
        pair once."""
        n = len(covers)
        self.weights = weights.copy()
        self.covers = covers
        rows, self._cols = np.divmod(keys, n)
        first = np.empty(len(rows), dtype=bool)
        first[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        self._starts = np.flatnonzero(first)  # first pair of each covered element
        covered = rows[self._starts]
        self._segment = np.searchsorted(covered, rows)  # covered element of each pair
        self._covered_weights = self.weights[covered]
        super().__init__(n, sigma_claimed=0.0)

    def _products(self, factors) -> np.ndarray:
        """Per covered element, the product of its pairs' ``factors``, taken
        left to right in pair order (see ``SCATTER_MIN_ELEMENTS``)."""
        if len(self._starts) < SCATTER_MIN_ELEMENTS:
            return np.multiply.reduceat(factors, self._starts)
        product = np.ones(len(self._starts))
        np.multiply.at(product, self._segment, factors)
        return product

    def _factors(self, x):
        """Each pair's factor ``1 - x_i`` with exact zeros replaced by 1, the
        indices ``zp`` of those zero pairs and their covered elements, and
        per covered element the product of the nonzero factors and the count
        of zero ones."""
        factors = (1.0 - x)[self._cols]
        zp = (factors == 0.0).nonzero()[0]
        factors[zp] = 1.0
        ze = self._segment[zp]
        zeros = np.bincount(ze, minlength=len(self._starts))
        return factors, zp, ze, self._products(factors), zeros

    def _value_impl(self, x) -> float:
        # an exact zero factor zeroes its element's survival probability
        survival = self._products((1.0 - x)[self._cols])
        return float(self._covered_weights @ (1.0 - survival))

    def _gradient_impl(self, x) -> np.ndarray:
        # dF/dx_i sums w_e times the product of e's factors other than i's,
        # which vanishes unless i holds every zero factor of e: a pair with a
        # nonzero factor is live when its element has no zero factor, a
        # zero pair when its element has exactly one.  Dead terms are
        # selected away by np.where, not by a mask product, which would make
        # a non-finite dead term NaN.  A non-finite coordinate whose every
        # element also holds two exact zeros has only dead terms, so the
        # selection would return zeros where value() raises ([inf, 1, 1] on
        # one element covered thrice): such points are refused up front.
        if not np.isfinite(x).all():
            name = type(self).__name__
            raise SolverError(f"{name}: gradient oracle returned non-finite values at a non-finite point")
        factors, zp, ze, product, zeros = self._factors(x)
        weighted = self._covered_weights * product
        terms = np.where(zeros, 0.0, weighted)[self._segment]
        np.divide(terms, factors, out=terms)
        terms[zp] = np.where(zeros[ze] == 1, weighted[ze], 0.0)
        return np.bincount(self._cols, terms, minlength=self.dimension)

    def _quad_impl(self, x, u) -> float:
        # u'Hu = -sum_e w_e sum_{i != j} u_i u_j prod_{k != i, j} (1 - x_k):
        # an ordered pair contributes only if it holds every zero factor of e
        factors, zp, _, product, zeros = self._factors(x)
        scaled_u = u[self._cols] / factors  # u_i / (1 - x_i), or u_i at a zero factor
        r = scaled_u.copy()
        r[zp] = 0.0
        zero_u = np.ones(len(r))  # u_i at a zero factor, 1 elsewhere
        zero_u[zp] = scaled_u[zp]
        pair_sums = np.select(
            [zeros == 0, zeros == 1, zeros == 2],
            [
                _ordered_pair_sums(r, self._starts, self._segment),
                2.0 * np.add.reduceat(scaled_u - r, self._starts) * np.add.reduceat(r, self._starts),
                2.0 * np.multiply.reduceat(zero_u, self._starts),
            ],
            0.0,
        )
        return -float((self._covered_weights * product) @ pair_sums)

    def value_many(self, X):
        """Batch evaluation; counts one invocation per row.

        Rows are gathered in chunks of at most ``VALUE_MANY_CHUNK`` factor
        entries (about 1 MB of temporaries; one row a chunk when a row
        alone has more), which keeps them in cache.
        """
        X = np.asarray(X, dtype=float)
        self._value_calls.bump(len(X))
        out = np.empty(len(X))
        chunk = max(1, VALUE_MANY_CHUNK // (len(self._cols) or 1))
        for start in range(0, len(X), chunk):
            factors = X[start : start + chunk, self._cols]
            np.subtract(1.0, factors, out=factors)
            survival = np.multiply.reduceat(factors, self._starts, axis=1)
            out[start : start + chunk] = (1.0 - survival) @ self._covered_weights
        return out


def _ordered_pair_sums(r, starts, segment) -> np.ndarray:
    """``sum_{i != j} r_i r_j`` over each segment of ``r``.

    Each entry is paired with the sum of the other entries of its segment.
    For the entry of largest magnitude that sum is taken directly rather than
    as the segment total minus the entry, which would cancel when one
    ``r_i = u_i / (1 - x_i)`` dwarfs the rest (``x_i`` near 1).
    """
    total = np.add.reduceat(r, starts)
    size = np.abs(r)
    top = np.minimum.reduceat(
        np.where(size == np.maximum.reduceat(size, starts)[segment], np.arange(len(r)), len(r)), starts
    )
    others = total[segment] - r
    rest = r.copy()
    rest[top] = 0.0
    others[top] = np.add.reduceat(rest, starts)
    return np.add.reduceat(r * others, starts)


def _distances(pts: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``pts``, a block of about
    ``PRODUCT_BLOCK`` entries of rows at a time.  Each block sums its squared
    differences over the point dimensions in order: the first is written
    straight into the output and the rest are added from one reused buffer,
    so no temporary as large as the n x n result is made.  The output is
    written once and never zero-filled first; points with no coordinates are
    all at distance 0.  Entry ``(j, i)`` is computed from the same terms as
    ``(i, j)``, and ``(a - b)**2 == (b - a)**2`` exactly, so finite points
    give an exactly symmetric matrix of entries that are ``+0`` or more
    (``+inf`` where a square overflows), never NaN."""
    n, dim = pts.shape
    if dim == 0:
        return np.zeros((n, n))
    out = np.empty((n, n))
    rows = max(1, PRODUCT_BLOCK // n)
    buffer = np.empty((rows, n))
    columns = np.ascontiguousarray(pts.T)  # each point dimension read contiguously
    for start in range(0, n, rows):
        block = columns[:, start : start + rows]
        sq = out[start : start + rows]
        d = buffer[: len(sq)]
        np.subtract.outer(block[0], columns[0], out=sq)
        np.multiply(sq, sq, out=sq)  # bit for bit 0 + sq, as sq >= +0
        for k in range(1, dim):
            np.subtract.outer(block[k], columns[k], out=d)
            sq += np.multiply(d, d, out=d)
        np.sqrt(sq, out=sq)
    return out


def _adopted(cls, *data):
    """An objective of ``cls`` made by its ``_adopt`` step alone, for data
    that a generator has made valid by construction; outside input goes
    through the validating constructor."""
    obj = cls.__new__(cls)
    obj._adopt(*data)
    return obj


def make_semimetric_instance(points, b) -> QuadraticSemiMetricObjective:
    """Quadratic objective from pairwise distances of ``points``.

    ``M[i, j]`` is the Euclidean distance between point ``i`` and point ``j``;
    the triangle inequality makes ``M`` a 1-semi-metric, so the returned
    objective claims ``sigma = 1``.  Squared differences are summed over the
    point dimensions in order, which is ``np.linalg.norm``'s order for fewer
    than eight dimensions, so ``M`` matches it bit for bit there (NumPy sums
    eight or more terms pairwise, and entries may differ in the last bit).

    Only the points (finite) and ``b`` (length n, nonnegative) are checked,
    in O(n * dim).  Finite points make ``M`` exactly symmetric and
    nonnegative (see ``_distances``), so the constructor's n^2 symmetry and
    sign checks are skipped; a NaN or infinite point, which would put NaN
    on the diagonal, is rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    b = np.asarray(b, dtype=float)
    if b.shape != (pts.shape[0],):
        raise ValueError(f"b must have length {pts.shape[0]}, got shape {b.shape}")
    if not (b >= 0.0).all():
        raise ValueError("b must be nonnegative")
    return _adopted(QuadraticSemiMetricObjective, _distances(pts), b, 1.0)


def make_coverage_instance(
    n: int,
    m: int,
    density: float = 0.4,
    weight_range: Tuple[float, float] = (0.5, 1.5),
    seed: Optional[int] = None,
) -> CoverageMultilinearObjective:
    """Random coverage instance: each coordinate covers each element with
    probability ``density``; elements left uncovered are resampled.

    The element-by-coordinate draw is made a block of rows at a time and only
    the covered pairs are kept, as keys ``element * n + coordinate``, so no
    m x n array is built; the random stream is the one a single m x n draw
    would consume.  Only the arguments are checked: every key is drawn once
    and lies in range, so the keys, sorted once, and the cover tuples read
    from them are handed to the objective without the constructor's checks
    and its rebuild of the pairs.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    lo, hi = weight_range
    if not 0.0 <= lo <= hi < math.inf:
        raise ValueError(f"invalid weight range {weight_range}")
    rng = np.random.default_rng(seed)
    block_rows = max(1, DRAW_BLOCK // n)
    keys, uncovered = [], []
    for start in range(0, m, block_rows):
        hit = rng.random((min(block_rows, m - start), n)) < density
        uncovered.extend((np.flatnonzero(~hit.any(axis=1)) + start).tolist())
        keys.append(np.flatnonzero(hit) + start * n)
    for e in uncovered:
        hit = rng.random(n) < density
        while not hit.any():
            hit = rng.random(n) < density
        keys.append(np.flatnonzero(hit) + e * n)
    keys = np.sort(np.concatenate(keys))
    weights = rng.uniform(lo, hi, size=m)
    # each coordinate's elements, in order: a stable sort of the pairs by
    # coordinate keeps the element order of the keys
    elements, coordinates = np.divmod(keys, n)
    by_coordinate = elements[np.argsort(coordinates, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(coordinates, minlength=n)).tolist()
    covers = [tuple(by_coordinate[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return _adopted(CoverageMultilinearObjective, weights, covers, keys)


def random_semimetric_instance(
    n: int,
    seed: Optional[int] = None,
    point_dim: int = 2,
    b_range: Tuple[float, float] = (0.25, 1.0),
) -> QuadraticSemiMetricObjective:
    """Distance-matrix quadratic from ``n`` random points in the unit cube."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    points = rng.random((n, point_dim))
    b = rng.uniform(b_range[0], b_range[1], size=n)
    return make_semimetric_instance(points, b)


class StochasticObjective:
    """Noisy sample access ``f(x, y)`` to a hidden objective ``F``.

    Wraps a deterministic ground-truth oracle.  The noise is uniform and
    bounded: a gradient sample is ``grad F(x)`` plus independent noise of
    half-width ``theta * sqrt(3/n)`` on each coordinate (total variance
    ``theta**2``), and a value sample adds noise of half-width
    ``theta * sqrt(3)`` (variance ``theta**2``), so an empirical mean is
    within ``theta * sqrt(3)`` of ``F(x)``.  The noise is drawn the same way
    for every ``theta``; at ``theta = 0`` the draws are exact zeros.
    Counters tally gradient samples and empirical-value batches so solver
    accounting can be audited.
    """

    def __init__(self, ground_truth: OssObjective, theta: float, seed=None):
        if not theta >= 0.0:
            raise ValueError("theta must be nonnegative")
        self.ground_truth = ground_truth
        self.theta = float(theta)
        self._rng = np.random.default_rng(seed)
        self._gradient_samples = _CallCounter()
        self._value_batches = _CallCounter()

    @property
    def dimension(self) -> int:
        return self.ground_truth.dimension

    @property
    def gradient_sample_calls(self) -> int:
        return self._gradient_samples.count

    @property
    def value_batch_calls(self) -> int:
        return self._value_batches.count

    def reset_counters(self) -> None:
        self._gradient_samples.reset()
        self._value_batches.reset()

    def spawn(self) -> "StochasticObjective":
        """Independent stream over the same ground truth, for concurrent callers."""
        seed = self._rng.bit_generator.seed_seq.spawn(1)[0]
        return StochasticObjective(self.ground_truth, self.theta, seed=seed)

    def sample_gradient(self, x) -> Vector:
        """One noisy gradient sample; counts one gradient query."""
        self._gradient_samples.bump()
        g = self.ground_truth.gradient(x)
        half_width = self.theta * math.sqrt(3.0 / len(g))
        return g + self._rng.uniform(-half_width, half_width, size=len(g))

    def empirical_value(self, x, n_samples: int) -> float:
        """Mean of ``n_samples`` value samples; counts one batch query."""
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self._value_batches.bump()
        base = self.ground_truth.value(x)
        draws = self._rng.uniform(-self.theta * math.sqrt(3.0), self.theta * math.sqrt(3.0), size=n_samples)
        return base + float(draws.mean())


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an inequality check; ``trials`` is None for the exhaustive one."""

    passed: bool
    worst_violation: float
    witness: Optional[tuple]
    trials: Optional[int]
    checked: str = ""

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        counted = "" if self.trials is None else f", {self.trials} trials"
        # the exhaustive check's witness is an index triple, named on failure
        where = f" at triple {self.witness}" if self.trials is None and not self.passed else ""
        return f"{self.checked or 'check'}: {status} (worst violation {self.worst_violation:.3e}{counted}){where}"


def _sampled_check(draw, trials: int, seed: Optional[int], checked: str) -> VerificationReport:
    """The loop of the sampled verifiers.

    ``draw(rng)`` takes one sample from ``rng`` and returns None to skip it,
    or ``(witness, lhs, rhs)`` for an inequality ``lhs <= rhs`` that must hold
    within the relative slack ``VALUE_TOL * (1 + |rhs|)``.  The report keeps
    the largest ``lhs - rhs`` and the first sample that reached it.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    worst, witness, passed = -math.inf, None, True
    for _ in range(trials):
        drawn = draw(rng)
        if drawn is None:
            continue
        sample, lhs, rhs = drawn
        violation = lhs - rhs
        if violation > worst:
            worst, witness = violation, sample
        if lhs > rhs + VALUE_TOL * (1.0 + abs(rhs)):
            passed = False
    return VerificationReport(passed, worst, witness, trials, checked)


def verify_oss(
    obj: OssObjective,
    sigma: float,
    trials: int = 1000,
    seed: Optional[int] = None,
) -> VerificationReport:
    """Sampled check of the one-sided smoothness inequality.

    Samples ``x`` uniformly from (0,1]^n (resampling while ``||x||_1 < 1e-6``,
    since the inequality divides by it) and ``u`` from [0,1]^n, then requires
    ``u'H(x)u <= sigma * (2 ||u||_1 / ||x||_1) * u' grad F(x)`` within
    relative slack at every sample.
    """
    if not sigma >= 0.0:
        raise ValueError("sigma must be nonnegative")
    n = obj.dimension

    def draw(rng):
        x = rng.uniform(size=n)
        while x.sum() < 1e-6:
            x = rng.uniform(size=n)
        u = rng.uniform(size=n)
        lhs = obj.hessian_quadratic_form(x, u)
        rhs = sigma * (2.0 * u.sum() / x.sum()) * float(u @ obj.gradient(x))
        return (x, u), lhs, rhs

    return _sampled_check(draw, trials, seed, f"one-sided {sigma:g}-smooth")


def verify_eta_local(
    obj: OssObjective,
    eta: float,
    trials: int = 1000,
    seed: Optional[int] = None,
) -> VerificationReport:
    """Sampled check of gradient locality along feasible rays.

    Samples feasible ``(x, u, eps)`` with ``x + eps * u`` inside the unit box
    and requires ``u' grad F(x + eps u) >= (1 - eta * eps) * u' grad F(x)``
    within slack at every sample.
    """
    if not eta >= 0.0:
        raise ValueError("eta must be nonnegative")
    n = obj.dimension

    def draw(rng):
        x = rng.uniform(size=n)
        u = rng.uniform(size=n)
        moving = u > 1e-12
        if not moving.any():
            return None
        eps_max = min(1.0, float(np.min((1.0 - x[moving]) / u[moving])))
        if eps_max <= 0.0:
            return None
        eps = rng.uniform(0.0, eps_max)
        moved = float(u @ obj.gradient(x + eps * u))
        bound = (1.0 - eta * eps) * float(u @ obj.gradient(x))
        # moved >= bound in the loop's lhs <= rhs form; negation is exact
        return (x, u, eps), -moved, -bound

    return _sampled_check(draw, trials, seed, f"{eta:g}-local gradient")


def verify_semimetric(M, sigma: float) -> VerificationReport:
    """Exhaustive check that ``M[i,j] <= sigma * (M[i,k] + M[k,j])``.

    Runs over all triples with ``k`` distinct from ``i`` and ``j`` (the
    degenerate ``k = i`` triple would force every positive entry to fail for
    ``sigma < 1``, which is not the intended reading of the bound).

    The n^3 residuals ``M[i,j] - sigma * (M[i,k] + M[k,j])`` are taken in
    blocks of about ``PRODUCT_BLOCK`` entries of ``i`` rows (at least one row
    of n^2), so memory stays O(n^2).  The witness is the first largest
    residual in ``(i, j, k)`` order, or the first NaN, as one argmax over
    all of them would give; a NaN residual fails the check.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be a square matrix")
    n = M.shape[0]
    if n < 3:
        return VerificationReport(True, -math.inf, None, None, "semi-metric")
    idx = np.arange(n)
    rows = min(n, max(1, PRODUCT_BLOCK // (n * n)))
    residual = np.empty((rows, n, n))
    worst, witness = -math.inf, None
    for start in range(0, n, rows):
        block = M[start : start + rows]
        r = residual[: len(block)]
        # r[a, j, k] = M[i, j] - sigma * (M[i, k] + M[k, j]) for i = start + a
        np.add(block[:, None, :], M.T[None, :, :], out=r)
        r *= sigma
        np.subtract(block[:, :, None], r, out=r)
        local = np.arange(len(block))
        r[local, :, start + local] = -math.inf  # k == i
        r[:, idx, idx] = -math.inf  # k == j
        a, j, k = np.unravel_index(int(np.argmax(r)), r.shape)
        value = float(r[a, j, k])
        # strictly greater keeps the earlier of equal residuals; a NaN, which
        # argmax returns first, holds the place once taken
        if not math.isnan(worst) and not worst >= value:
            worst, witness = value, (start + int(a), int(j), int(k))
    passed = worst <= VALUE_TOL  # a NaN residual fails
    return VerificationReport(passed, worst, None if passed else witness, None, "semi-metric")
