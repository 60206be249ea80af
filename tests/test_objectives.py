import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ossmax.objectives
from ossmax import (
    BoxPolytope,
    CoverageMultilinearObjective,
    OssObjective,
    QuadraticSemiMetricObjective,
    SolverError,
    StochasticObjective,
    grid_maximum,
    make_coverage_instance,
    make_semimetric_instance,
    opt_bounds,
    random_semimetric_instance,
    update_gradient_estimate,
    verify_eta_local,
    verify_oss,
    verify_semimetric,
)

from helpers import (
    coverage_expectation_brute,
    coverage_kernels_scalar,
    fd_gradient,
    fd_mixed_partial,
    multilinear_mixed_partial,
    multilinear_partial,
)

VALUE_TOL = 1e-9


class TestSemiMetricConstruction:
    def test_coincident_points_give_linear_objective(self):
        obj = make_semimetric_instance([[0.0], [0.0], [0.0]], [1.0, 1.0, 1.0])
        assert np.allclose(obj.M, 0.0)
        x = np.array([0.2, 0.5, 0.9])
        assert obj.value(x) == pytest.approx(x.sum())
        # zero Hessian keeps the smoothness inequality true for every sigma
        assert verify_oss(obj, 0.0, trials=200, seed=1).passed

    def test_collinear_points_distance_matrix(self):
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
        expected = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert np.allclose(obj.M, expected)
        report = verify_semimetric(obj.M, 1.0)
        assert report.passed
        # the 0-2 distance is tight: 3 = 1 + 2
        assert report.worst_violation == pytest.approx(0.0, abs=1e-12)

    def test_corrupted_entry_fails_with_witness(self):
        M = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 2.0], [10.0, 2.0, 0.0]])
        report = verify_semimetric(M, 1.0)
        assert not report.passed
        i, j, k = report.witness
        assert M[i, j] > M[i, k] + M[k, j]
        assert report.worst_violation == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_semimetric_instance([[0.0], [1.0]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_distances_match_linalg_norm_bit_for_bit(self, dim):
        points = np.random.default_rng(dim).random((40, dim))
        expected = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        obj = make_semimetric_instance(points, np.ones(40))
        assert np.array_equal(obj.M, expected)

    def test_distances_in_eight_or_more_dimensions(self):
        points = np.random.default_rng(8).random((40, 9))
        expected = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        obj = make_semimetric_instance(points, np.ones(40))
        assert np.allclose(obj.M, expected, rtol=1e-15, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_symmetry_check_is_allclose(self, data):
        # the constructor accepts exactly the nonnegative matrices that pass
        # np.allclose(M, M.T); nudged entries, diagonal or not, and NaN
        n = data.draw(st.sampled_from([1, 2, 5, 127, 128, 129, 255, 300]))
        base = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(0.0, 10.0, size=(n, n))
        M = base + base.T
        for _ in range(data.draw(st.integers(0, 2))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            # relative nudges on both sides of allclose's rtol = 1e-5, atol = 1e-8
            rel = data.draw(st.sampled_from([0.0, 5e-6, 1e-5, 1.000001e-5, 2e-5, math.nan]))
            M[i, j] = M[i, j] * (1.0 + rel) + data.draw(st.sampled_from([0.0, 1e-8, 2e-8]))
        if np.allclose(M, M.T):
            assert QuadraticSemiMetricObjective(M, np.ones(n)).M is M
        else:
            with pytest.raises(ValueError, match="symmetric"):
                QuadraticSemiMetricObjective(M, np.ones(n))

    @pytest.mark.parametrize(
        "row, col, entry",
        [
            (17, 290, math.nan),
            (17, 290, 1.5),
            # fails allclose against its mirror 1.0 only with 1.0 as the reference
            (290, 17, 1.0 + 1e-5 + 1e-8 + 5e-11),
        ],
    )
    def test_asymmetric_or_nan_entry_is_rejected(self, row, col, entry):
        M = np.ones((300, 300))
        M[row, col] = entry
        assert not np.allclose(M, M.T)
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticSemiMetricObjective(M, np.ones(300))

    def test_gradient_and_quadratic_form_closed_forms(self):
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [1.0, 2.0, 0.5])
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(size=3)
            u = rng.uniform(size=3)
            assert np.allclose(obj.gradient(x), obj.M @ x + obj.b)
            assert obj.hessian_quadratic_form(x, u) == pytest.approx(u @ obj.M @ u)

    def test_points_without_coordinates_are_all_at_distance_zero(self):
        obj = make_semimetric_instance(np.zeros((3, 0)), np.ones(3))
        assert np.array_equal(obj.M, np.zeros((3, 3)))


class TestConstructorRejections:
    """Each input check of the two families, the generators and the base
    objective, one row a check."""

    @pytest.mark.parametrize(
        "M, b",
        [
            (np.ones((2, 3)), np.ones(2)),  # not square
            (np.ones(3), np.ones(3)),  # not a matrix
            (np.ones((3, 3)), np.ones(2)),  # b too short
            (np.ones((3, 3)), np.ones((3, 1))),  # b not a vector
            (np.full((3, 3), -1.0), np.ones(3)),  # negative M
            (np.ones((3, 3)), [1.0, -0.5, 1.0]),  # negative b
            (np.ones((3, 3)), [1.0, math.nan, 1.0]),  # NaN b
        ],
    )
    def test_quadratic(self, M, b):
        with pytest.raises(ValueError):
            QuadraticSemiMetricObjective(M, b)

    def test_quadratic_accepts_infinite_entries(self):
        M = np.ones((3, 3))
        M[0, 2] = M[2, 0] = math.inf
        obj = QuadraticSemiMetricObjective(M, [1.0, math.inf, 1.0])
        assert obj.M[0, 2] == obj.b[1] == math.inf

    @pytest.mark.parametrize(
        "weights, covers",
        [
            ([], [[0]]),  # no elements
            ([[1.0, 1.0]], [[0]]),  # 2-D weights
            ([1.0, -0.5], [[0], [1]]),  # negative weight
            ([math.nan, 1.0], [[0], [1]]),  # NaN weight
            ([1.0, 1.0], []),  # no coordinates
            ([1.0, 1.0], [[0], [2]]),  # element past the last
            ([1.0, 1.0], [[-1], [1]]),  # negative element
        ],
    )
    def test_coverage(self, weights, covers):
        with pytest.raises(ValueError):
            CoverageMultilinearObjective(weights, covers)

    def test_generators_need_two_points(self):
        with pytest.raises(ValueError):
            make_semimetric_instance([[0.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            random_semimetric_instance(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"dimension": 2, "sigma_claimed": -0.5},
        ],
    )
    def test_base_objective(self, kwargs):
        with pytest.raises(ValueError):
            OssObjective(value_fn=np.sum, gradient_fn=np.ones_like, **kwargs)

    def test_base_objective_needs_value_and_gradient(self):
        with pytest.raises(TypeError):
            OssObjective(2, value_fn=np.sum)

    def test_base_objective_checks_shapes(self):
        obj = OssObjective(2, np.sum, lambda x: np.ones(3))
        with pytest.raises(ValueError):
            obj.value(np.ones(3))
        with pytest.raises(SolverError, match="OssObjective: gradient oracle returned shape"):
            obj.gradient(np.ones(2))


class TestNanArguments:
    """Every numeric argument with a sign or range rule rejects NaN, which
    passes a check written as ``x < bound``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda obj: verify_oss(obj, math.nan, trials=5, seed=0),
            lambda obj: verify_eta_local(obj, math.nan, trials=5, seed=0),
            lambda obj: make_semimetric_instance([0.0, 1.0, 3.0], [1.0, math.nan, 1.0]),
            lambda obj: make_coverage_instance(3, 4, weight_range=(0.5, math.nan)),
            lambda obj: make_coverage_instance(3, 4, weight_range=(math.nan, 1.5)),
            lambda obj: make_coverage_instance(3, 4, weight_range=(0.5, math.inf)),
            lambda obj: StochasticObjective(obj, math.nan),
            lambda obj: OssObjective(3, np.sum, np.ones_like, sigma_claimed=math.nan),
            lambda obj: update_gradient_estimate(np.zeros(3), np.ones(3), math.nan),
        ],
        ids=[
            "verify_oss-sigma",
            "verify_eta_local-eta",
            "semimetric-b",
            "coverage-weight-hi",
            "coverage-weight-lo",
            "coverage-weight-hi-inf",
            "stochastic-theta",
            "sigma_claimed",
            "gradient-estimate-t",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call(make_coverage_instance(3, 4, seed=1))


def _traced_peak(build):
    """``build()``'s result and the bytes it allocated at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestQuadraticAdoptsM:
    """The objective keeps the caller's matrix, or one converted copy of it."""

    def test_c_contiguous_float_matrix_is_used_as_given(self):
        A = np.random.default_rng(1).random((6, 6))
        M = A + A.T
        assert QuadraticSemiMetricObjective(M, np.ones(6)).M is M

    @pytest.mark.parametrize("layout", ["fortran", "integer"])
    def test_other_matrices_are_converted_to_c_ordered_floats(self, layout):
        A = np.random.default_rng(2).integers(0, 9, size=(6, 6))
        M = np.asfortranarray(A + A.T, dtype=float) if layout == "fortran" else A + A.T
        obj = QuadraticSemiMetricObjective(M, np.ones(6))
        assert obj.M.dtype == np.float64 and obj.M.flags.c_contiguous
        assert np.array_equal(obj.M, M)

    def test_build_holds_one_matrix(self):
        n = 1024
        _, peak = _traced_peak(lambda: random_semimetric_instance(n, seed=4))
        assert peak <= 1.25 * 8 * n * n


def _dense_semimetric_report(M, sigma, tol=1e-9):
    """The n^3 residual array and one argmax over it: the reference form."""
    n = len(M)
    residual = M[:, :, None] - sigma * (M[:, None, :] + M.T[None, :, :])
    idx = np.arange(n)
    residual[idx, :, idx] = -math.inf
    residual[:, idx, idx] = -math.inf
    i, j, k = np.unravel_index(int(np.argmax(residual)), residual.shape)
    worst = float(residual[i, j, k])
    return not worst <= tol, worst, (int(i), int(j), int(k))  # a NaN residual fails


class TestVerifySemimetricBlocks:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_dense_form(self, data):
        n = data.draw(st.integers(3, 6))
        # entries from a few small values plant ties; NaN plants the witness
        # that argmax puts first
        values = [0.0, 1.0, 2.0, 3.0] + ([math.nan] if data.draw(st.booleans()) else [])
        M = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))).reshape(n, n)
        sigma = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        with pytest.MonkeyPatch.context() as mp:
            # one, two or all rows of residuals a block
            rows = data.draw(st.sampled_from([1, 2, n]))
            mp.setattr(ossmax.objectives, "PRODUCT_BLOCK", rows * n * n)
            report = verify_semimetric(M, sigma)
        failed, worst, witness = _dense_semimetric_report(M, sigma)
        assert report.passed is not failed
        assert report.worst_violation == worst or (math.isnan(worst) and math.isnan(report.worst_violation))
        assert report.witness == (witness if failed else None)

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
    def test_nan_entry_fails_at_the_first_nan_triple(self, n, sigma):
        rng = np.random.default_rng(n)
        M = random_semimetric_instance(n, seed=n).M.copy()
        i, j = rng.choice(n, size=2, replace=False)
        M[i, j] = math.nan
        report = verify_semimetric(M, sigma)
        # the dense argmax stops at the first NaN residual
        failed, worst, witness = _dense_semimetric_report(M, sigma)
        assert failed and math.isnan(worst)
        assert not report.passed and math.isnan(report.worst_violation) and report.witness == witness

    @pytest.mark.parametrize("M", [np.ones((3, 4)), np.ones(3)])
    def test_needs_a_square_matrix(self, M):
        with pytest.raises(ValueError):
            verify_semimetric(M, 1.0)

    def test_memory_stays_quadratic(self):
        M = random_semimetric_instance(200, seed=5).M
        report, peak = _traced_peak(lambda: verify_semimetric(M, 1.0))
        assert peak < 10e6
        assert report.passed


def _quadratic(n, rng):
    A = rng.random((n, n))
    return QuadraticSemiMetricObjective(A + A.T, rng.uniform(0.01, 1.0, size=n))


def _sparse_point(n, size, rng, run=0):
    """``size`` nonzeros: ``run`` consecutive rows from a random start, the
    rest scattered around them."""
    x = np.zeros(n)
    start = rng.integers(0, n - run + 1) if run else 0
    rest = np.r_[0:start, start + run : n]
    x[np.r_[start : start + run, rng.choice(rest, size - run, replace=False)]] = rng.uniform(0.01, 1.0, size)
    return x


class TestQuadraticProduct:
    """Value and gradient share one product ``Mx``: over the support's rows
    on sparse points (a block of consecutive rows read in place, any other
    gathered into one buffer per call), dense otherwise, and kept for the
    last point."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_dense_forms_on_both_sides_of_the_crossover(self, data):
        n = data.draw(st.one_of(st.sampled_from([1, 2, 4, 9]), st.integers(1, 40)))
        crossover = n // ossmax.objectives.SUPPORT_SHARE  # largest support summed by rows
        size = data.draw(st.sampled_from([0, crossover - 1, crossover, crossover + 1, n]).filter(lambda k: 0 <= k <= n))
        # a run of consecutive support rows among scattered ones, so that one
        # product can read blocks in place, gather them, or both
        run = data.draw(st.integers(0, size))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        obj = _quadratic(n, rng)
        x = _sparse_point(n, size, rng, run)
        with pytest.MonkeyPatch.context() as mp:
            # the crossover at every dimension, in blocks of one, two, three
            # (a ragged last block on most supports) or all rows
            mp.setattr(ossmax.objectives, "SUPPORT_MIN_DIMENSION", 1)
            rows = data.draw(st.sampled_from([1, 2, 3, None]))
            if rows is not None:
                mp.setattr(ossmax.objectives, "PRODUCT_BLOCK", rows * n)
            if data.draw(st.booleans()):
                value, gradient = obj.value(x), obj.gradient(x)
            else:
                gradient, value = obj.gradient(x), obj.value(x)
        assert value == pytest.approx(0.5 * x @ obj.M @ x + obj.b @ x, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(gradient, obj.M @ x + obj.b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "below, extra, consecutive, by_rows",
        [(0, 0, False, True), (0, 1, False, False), (1, 0, False, False), (0, 0, True, True)],
        ids=["crossover", "past-crossover", "small-dimension", "consecutive-run"],
    )
    def test_support_product_reads_only_the_support_rows(self, below, extra, consecutive, by_rows):
        n = ossmax.objectives.SUPPORT_MIN_DIMENSION - below
        rng = np.random.default_rng(n + extra)
        obj = _quadratic(n, rng)
        size = n // ossmax.objectives.SUPPORT_SHARE + extra
        x = _sparse_point(n, size, rng, size if consecutive else 0)
        value, gradient = 0.5 * x @ obj.M @ x + obj.b @ x, obj.M @ x + obj.b
        off = np.flatnonzero(x == 0.0)
        obj.M[np.ix_(off, off)] = np.nan  # entries that no support row holds
        if by_rows:
            assert obj.value(x) == pytest.approx(value, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(obj.gradient(x), gradient, rtol=1e-12, atol=0.0)
        else:
            with pytest.raises(SolverError):
                obj.value(x)

    @pytest.mark.parametrize("consecutive", [True, False], ids=["run", "scattered"])
    def test_support_product_allocates_at_most_one_block(self, consecutive):
        # a block of consecutive rows is read in place; the others share one
        # buffer of PRODUCT_BLOCK entries per call, beside a few n-vectors
        n = 2048
        rng = np.random.default_rng(11)
        obj = _quadratic(n, rng)
        x = _sparse_point(n, n // 8, rng, n // 8 if consecutive else 0)
        value, peak = _traced_peak(lambda: obj.value(x))
        block = 8 * ossmax.objectives.PRODUCT_BLOCK
        assert peak < (block / 4 if consecutive else block + 8 * 8 * n)
        assert value == pytest.approx(0.5 * x @ obj.M @ x + obj.b @ x, rel=1e-12, abs=0.0)

    def test_opt_bounds_values_the_all_ones_point_from_the_row_sums(self):
        n = ossmax.objectives.SUPPORT_MIN_DIMENSION
        obj = _quadratic(n, np.random.default_rng(6))
        expected = 0.5 * obj.M.sum() + obj.b.sum()
        obj.M[:] = np.nan  # from here only the row sums taken at construction are finite
        lower, upper = opt_bounds(obj, BoxPolytope(n))  # its max-l1 point is all ones too
        assert upper == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert lower == upper

    def test_one_far_point_leaves_products_near_all_ones_exact(self):
        # one point at 1e16 among points in a unit square: its column holds
        # nearly all of each row sum, so a product taken as the row sums less
        # that row would cancel
        n = ossmax.objectives.SUPPORT_MIN_DIMENSION
        rng = np.random.default_rng(8)
        points = rng.random((n, 2))
        points[0] = 1e16
        obj = make_semimetric_instance(points, rng.uniform(0.01, 1.0, size=n))
        for x in (np.ones(n), np.r_[0.0, np.ones(n - 1)], np.r_[0.5, np.ones(n - 1)]):
            product = obj.M @ x
            assert obj.value(x) == pytest.approx(0.5 * x @ product + obj.b @ x, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(obj.gradient(x), product + obj.b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [6, ossmax.objectives.SUPPORT_MIN_DIMENSION])
    def test_kept_product_serves_only_its_own_point(self, n):
        rng = np.random.default_rng(n)
        obj = _quadratic(n, rng)

        def fresh():
            return QuadraticSemiMetricObjective(obj.M, obj.b)

        x, y = _sparse_point(n, max(1, n // 8), rng), rng.uniform(size=n)
        # value then gradient at one point
        assert obj.value(x) == fresh().value(x)
        assert np.array_equal(obj.gradient(x), fresh().gradient(x))
        # two points alternating
        for p in (y, x, y, x):
            assert np.array_equal(obj.gradient(p), fresh().gradient(p))
            assert obj.value(p) == fresh().value(p)
        # the caller changes its array in place after a call
        z = x.copy()
        obj.value(z)
        z[np.flatnonzero(z == 0.0)[0]] = 0.5
        assert np.array_equal(obj.gradient(z), fresh().gradient(z))
        z *= 0.5
        assert obj.value(z) == fresh().value(z)

    def test_reset_counters_drops_the_kept_product(self):
        obj = _quadratic(5, np.random.default_rng(4))
        x = np.full(5, 0.5)
        value = obj.value(x)
        obj.M[:] = np.nan  # from here a computed product is non-finite
        assert obj.value(x) == value
        obj.reset_counters()
        with pytest.raises(SolverError):
            obj.gradient(x)

    @pytest.mark.parametrize("chunk", [1, 13, 50, ossmax.objectives.VALUE_MANY_CHUNK])
    def test_value_many_in_chunks_matches_value(self, chunk, monkeypatch):
        # one, two, eight (ragged) or all 50 rows a chunk
        monkeypatch.setattr(ossmax.objectives, "VALUE_MANY_CHUNK", chunk)
        rng = np.random.default_rng(9)
        obj = _quadratic(6, rng)
        X = rng.uniform(size=(50, 6))
        np.testing.assert_allclose(obj.value_many(X), [obj.value(x) for x in X], rtol=1e-12, atol=0.0)

    def test_threads_sharing_one_objective_get_their_own_products(self):
        # spawned stochastic streams share their ground truth; a reader must
        # never pair its point with the product another thread just stored
        # sparse points, so that the support product's calls and loop give
        # the interpreter places to switch threads while a product is built
        n = ossmax.objectives.SUPPORT_MIN_DIMENSION
        rng = np.random.default_rng(5)
        obj = _quadratic(n, rng)
        points = [_sparse_point(n, n // 8, rng) for _ in range(4)]
        fresh = QuadraticSemiMetricObjective(obj.M, obj.b)
        expected = [(fresh.value(p), fresh.gradient(p)) for p in points]
        mismatches = []

        def worker(k):
            for _ in range(500):
                v, g = obj.value(points[k]), obj.gradient(points[k])
                if v != expected[k][0] or not np.array_equal(g, expected[k][1]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert obj.value_calls == obj.gradient_calls == 4 * 500


class TestCoverageClosedForm:
    def test_single_coordinate_single_element(self):
        obj = CoverageMultilinearObjective([1.0], [[0]])
        assert obj.value([0.3]) == pytest.approx(0.3)
        assert np.allclose(obj.gradient([0.3]), [1.0])

    def test_two_coordinates_shared_element(self):
        obj = CoverageMultilinearObjective([1.0], [[0], [0]])
        x = np.array([0.4, 0.7])
        assert obj.value(x) == pytest.approx(1.0 - (1.0 - 0.4) * (1.0 - 0.7))
        assert obj.value([1.0, 1.0]) == pytest.approx(1.0)
        assert obj.hessian_quadratic_form([0.5, 0.5], [1.0, 1.0]) == pytest.approx(-2.0)
        assert fd_mixed_partial(lambda z: obj.value(z), x, 0, 1) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_partials_nonpositive(self, seed):
        obj = make_coverage_instance(4, 6, density=0.5, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            x = rng.uniform(0.1, 0.9, size=4)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert fd_mixed_partial(lambda z: obj.value(z), x, i, j) <= 1e-6

    @pytest.mark.parametrize("n,m,seed", [(2, 3, 5), (4, 5, 6), (6, 6, 7)])
    def test_matches_subset_expectation(self, n, m, seed):
        obj = make_coverage_instance(n, m, density=0.5, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.uniform(size=n)
            brute = coverage_expectation_brute(obj.weights, obj.covers, x)
            assert obj.value(x) == pytest.approx(brute, abs=1e-9)

    def test_every_element_covered(self):
        for seed in range(10):
            obj = make_coverage_instance(3, 8, density=0.15, seed=seed)
            assert set().union(*obj.covers) == set(range(8))

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            make_coverage_instance(0, 3)
        with pytest.raises(ValueError):
            make_coverage_instance(3, 3, density=0.0)
        with pytest.raises(ValueError):
            make_coverage_instance(3, 3, weight_range=(2.0, 1.0))


# a coordinate at 0, at exactly 1, just below 1 (where 1 / (1 - x_i) is
# large), or anywhere in between
unit_coordinates = st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-30]), st.floats(0.0, 1.0))


@st.composite
def coverage_cases(draw):
    """Weights, cover lists (empty lists, repeated entries and uncovered
    elements allowed) and a point where 0-3 coordinates covering one element
    are set to exactly 1."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    weights = draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m))
    covers = draw(st.lists(st.lists(st.integers(0, m - 1), max_size=4), min_size=n, max_size=n))
    x = np.array(draw(st.lists(unit_coordinates, min_size=n, max_size=n)))
    element = draw(st.integers(0, m - 1))
    holders = [i for i, cover in enumerate(covers) if element in cover]
    ones = draw(st.integers(0, min(3, len(holders))))
    x[draw(st.permutations(holders))[:ones]] = 1.0
    return weights, covers, x


class TestCoverageExact:
    """Sparse coverage oracles against subset enumeration; F is multilinear,
    so its derivatives are exact differences of F and must agree to rounding."""

    @settings(max_examples=300, deadline=None)
    @given(case=coverage_cases())
    def test_value_and_gradient(self, case):
        weights, covers, x = case
        obj = CoverageMultilinearObjective(weights, covers)
        brute = lambda z: coverage_expectation_brute(weights, covers, z)
        scale = 1.0 + sum(weights)
        assert obj.value(x) == pytest.approx(brute(x), rel=0.0, abs=1e-12 * scale)
        exact = [multilinear_partial(brute, x, i) for i in range(len(x))]
        assert obj.gradient(x) == pytest.approx(exact, rel=0.0, abs=1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(case=coverage_cases(), data=st.data())
    def test_hessian_form(self, case, data):
        weights, covers, x = case
        n = len(x)
        u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        obj = CoverageMultilinearObjective(weights, covers)
        brute = lambda z: coverage_expectation_brute(weights, covers, z)
        exact = sum(
            u[i] * u[j] * multilinear_mixed_partial(brute, x, i, j) for i in range(n) for j in range(n) if i != j
        )
        scale = (1.0 + sum(weights)) * (1.0 + np.abs(u).sum()) ** 2
        assert obj.hessian_quadratic_form(x, u) == pytest.approx(exact, rel=0.0, abs=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(case=coverage_cases(), data=st.data())
    def test_value_many_matches_value(self, case, data):
        weights, covers, x = case
        n = len(x)
        rows = data.draw(st.lists(st.lists(unit_coordinates, min_size=n, max_size=n), min_size=1, max_size=4))
        X = np.array([x] + rows)
        obj = CoverageMultilinearObjective(weights, covers)
        expected = [obj.value(row) for row in X]
        assert obj.value_many(X) == pytest.approx(expected, rel=0.0, abs=1e-12 * (1.0 + sum(weights)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
    @pytest.mark.parametrize("entry", [math.inf, -math.inf])
    def test_infinite_coordinate_beside_two_exact_zeros_is_an_oracle_error(self, entry):
        # every term of the infinite coordinate is dead, as its element holds
        # two exact zero factors: the gradient and the Hessian form refuse the
        # point as value does
        obj = CoverageMultilinearObjective([1.0], [[0], [0], [0]])
        x = np.array([entry, 1.0, 1.0])
        with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned nan$"):
            obj.value(x)
        with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: gradient oracle returned non-finite"):
            obj.gradient(x)
        with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: Hessian form oracle given a non-finite"):
            obj.hessian_quadratic_form(x, np.ones(3))


# beside unit_coordinates, coordinates outside [0, 1], whose factor 1 - x_i
# is negative or above 1
kernel_coordinates = st.one_of(unit_coordinates, st.sampled_from([-0.5, 1.5, 1.0 + 2.0**-30]), st.floats(-1.0, 2.0))


def _kernel_point(n, data):
    """A point with drawn shares of exact 1s, entries just below 1 and
    entries outside [0, 1] among uniform ones."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.uniform(size=n)
    for entry in (1.0, 1.0 - 2.0**-30, -0.5, 1.5):
        x[rng.random(n) < data.draw(st.sampled_from([0.0, 0.05, 0.3]))] = entry
    return x


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestCoverageKernelBits:
    """Value and gradient equal the scalar formulas of ``helpers`` bit for
    bit, with the per-element products scattered or reduced by segment (see
    ``SCATTER_MIN_ELEMENTS``)."""

    @staticmethod
    def _check(weights, covers, obj, x):
        covered, survival, gradient = coverage_kernels_scalar(weights, covers, x)
        assert _bits(obj.gradient(x)) == _bits(gradient)
        assert _bits(obj.value(x)) == _bits(np.array(covered) @ (1.0 - np.array(survival)))

    @staticmethod
    def _check_many(weights, covers, obj, X):
        # value_many takes (1 - S) @ covered on chunks of rows, and a row's
        # bits may depend on its place in its chunk: compare chunk by chunk
        rows = [coverage_kernels_scalar(weights, covers, x) for x in X]
        covered = np.array(rows[0][0])
        S = np.array([survival for _, survival, _ in rows]).reshape(len(X), len(covered))
        chunk = max(1, ossmax.objectives.VALUE_MANY_CHUNK // (len(obj._cols) or 1))
        expected = [(1.0 - S[start : start + chunk]) @ covered for start in range(0, len(X), chunk)]
        assert _bits(obj.value_many(X)) == _bits(np.concatenate(expected))

    @settings(max_examples=300, deadline=None)
    @given(case=coverage_cases(), data=st.data())
    def test_value_many_within_and_across_chunks(self, case, data):
        # elements of 0 to 6 pairs, rows with exact 0s and 1s and entries
        # outside [0, 1], in one chunk or in chunks of 1-3 rows
        weights, covers, x = case
        n = len(x)
        rows = data.draw(st.lists(st.lists(kernel_coordinates, min_size=n, max_size=n), max_size=7))
        X = np.array([x] + rows)
        obj = CoverageMultilinearObjective(weights, covers)
        with pytest.MonkeyPatch.context() as mp:
            per_chunk = data.draw(st.sampled_from([None, 1, 2, 3]))
            if per_chunk is not None:
                mp.setattr(ossmax.objectives, "VALUE_MANY_CHUNK", per_chunk * max(1, len(obj._cols)))
            self._check_many(weights, covers, obj, X)

    def test_value_many_without_pairs(self):
        obj = CoverageMultilinearObjective([1.0, 2.0], [[], []])
        X = np.random.default_rng(5).uniform(size=(4, 2))
        self._check_many(obj.weights, obj.covers, obj, X)
        assert _bits(obj.value_many(X)) == _bits(np.zeros(4))

    @settings(max_examples=300, deadline=None)
    @given(case=coverage_cases(), data=st.data())
    def test_small_cases_on_both_kernels(self, case, data):
        weights, covers, x = case
        wide = np.array(data.draw(st.lists(kernel_coordinates, min_size=len(x), max_size=len(x))))
        obj = CoverageMultilinearObjective(weights, covers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ossmax.objectives, "SCATTER_MIN_ELEMENTS", data.draw(st.sampled_from([1, 2, 6])))
            for point in (x, wide):
                self._check(weights, covers, obj, point)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_instances_on_both_sides_of_the_crossover(self, data):
        crossover = ossmax.objectives.SCATTER_MIN_ELEMENTS
        m = data.draw(st.sampled_from([8, crossover - 1, crossover, crossover + 1, 2 * crossover]))
        n = data.draw(st.sampled_from([4, 16, 64]))
        density = data.draw(st.sampled_from([1.0 / n, 3.0 / n, 0.5]))
        obj = make_coverage_instance(n, m, density, seed=data.draw(st.integers(0, 2**16)))
        assert len(set().union(*obj.covers)) == m  # every element is covered
        self._check(obj.weights, obj.covers, obj, _kernel_point(n, data))
        # 1-4 rows: past 25 000 pairs a chunk holds fewer than 4
        X = np.array([_kernel_point(n, data) for _ in range(data.draw(st.integers(1, 4)))])
        self._check_many(obj.weights, obj.covers, obj, X)

    @pytest.mark.parametrize("kernel", ["reduceat", "scatter"])
    def test_zero_counts_and_positions(self, kernel):
        # one element per nonempty subset of the coordinates, on either side
        # of the crossover: with every fourth coordinate at exactly 1, the
        # elements hold 0, 1, 2 or 3 zero factors, in every pair position
        crossover = ossmax.objectives.SCATTER_MIN_ELEMENTS
        n = crossover.bit_length() - (kernel == "reduceat")
        m = 2**n - 1
        assert (m >= crossover) == (kernel == "scatter")
        covers = [[e for e in range(m) if (e + 1) >> i & 1] for i in range(n)]
        weights = np.linspace(0.5, 1.5, m)
        x = np.random.default_rng(n).uniform(size=n)
        x[::4] = 1.0
        self._check(weights, covers, CoverageMultilinearObjective(weights, covers), x)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf / inf
    @pytest.mark.parametrize("crossover", [1, None], ids=["scatter", "reduceat"])
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_are_oracle_errors(self, crossover, entry, monkeypatch):
        if crossover is not None:
            monkeypatch.setattr(ossmax.objectives, "SCATTER_MIN_ELEMENTS", crossover)
        cases = [(CoverageMultilinearObjective([1.0, 0.5], [[0], [0, 1], [1]]), [0.25, entry, 0.5])]
        if math.isnan(entry):
            # the NaN coordinate's only element holds two exact zero factors too
            cases.append((CoverageMultilinearObjective([1.0], [[0], [0], [0]]), [entry, 1.0, 1.0]))
        for obj, x in cases:
            with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned (nan|-?inf)$"):
                obj.value(np.array(x))
            with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: gradient oracle returned non-finite"):
                obj.gradient(np.array(x))
            # the Hessian form refuses the entry in the point and in the direction
            for point, direction in [(x, np.ones(len(x))), (np.full(len(x), 0.5), x)]:
                with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: Hessian form oracle given a non-finite"):
                    obj.hessian_quadratic_form(np.array(point), np.array(direction))
            # a batch refuses the point as a row, as value refuses it alone
            with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned non-finite values$"):
                obj.value_many(np.array([np.full(len(x), 0.5), x]))
        if math.isinf(entry):
            # an infinite weight makes finite points' values inf, or nan where
            # its element is uncovered (inf * 0): a batch refuses them as
            # value does, so the grid oracle cannot skip such a block
            obj = CoverageMultilinearObjective([math.inf, 1.0], [[0], [1]])
            for x in ([0.25, 0.5], [0.0, 0.5]):
                with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned (nan|inf)$"):
                    obj.value(np.array(x))
                with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned non-finite values$"):
                    obj.value_many(np.array([[0.25, 0.25], x]))
            with pytest.raises(SolverError, match=r"^CoverageMultilinearObjective: value oracle returned non-finite values$"):
                grid_maximum(obj, BoxPolytope(2), 2)


# make_coverage_instance(5, 7, density=0.4, seed) as the m x n draw gave it;
# seed 0 resamples one uncovered element, seed 7 two, seed 1 none
PINNED_COVERAGE = {
    0: (
        [[1, 3, 4, 5], [0, 2, 4, 6], [0, 6], [0, 2, 3], [1]],
        [1.071529830729761, 0.8218693910759421, 1.0943000301996968, 0.8379112255071333,
         0.8916190005281612, 1.3902743520047922, 0.7271575935333797],
    ),
    1: (
        [[], [3, 4, 6], [0, 2, 5], [3, 5], [0, 1, 2, 3]],
        [1.4172977047909026, 0.5395928766642029, 1.0285892632600215, 0.9593358828854037,
         0.5623495791498756, 1.141328169139375, 1.3526328384806567],
    ),
    7: (
        [[2, 3, 4, 5], [1, 2, 3, 4, 6], [2, 3, 6], [0, 4, 6], [0, 3, 4]],
        [1.2417709473618572, 0.5914956050630457, 1.0411438213764888, 1.00777223630035,
         1.3713393766928808, 0.8612640590141576, 1.098184067207213],
    ),
}


class TestCoverageGeneratorStream:
    """The generator draws in row blocks but must keep the stream, and so
    every seeded instance, of one m x n draw."""

    @pytest.mark.parametrize("seed", sorted(PINNED_COVERAGE))
    @pytest.mark.parametrize("block", [1 << 20, ossmax.objectives.DRAW_BLOCK, 5, 12])
    def test_pinned_instances(self, seed, block, monkeypatch):
        # blocks of 5 and 12 draws hold one and two rows of 5; 2**20, the
        # former default, and the default hold the whole instance
        monkeypatch.setattr(ossmax.objectives, "DRAW_BLOCK", block)
        obj = make_coverage_instance(5, 7, density=0.4, seed=seed)
        covers, weights = PINNED_COVERAGE[seed]
        assert [list(c) for c in obj.covers] == covers
        assert obj.weights.tolist() == weights

    def test_pinned_large_instance(self):
        # four draw blocks, 223 elements resampled
        obj = make_coverage_instance(1024, 4096, density=3 / 1024, seed=1835504127)
        digest = hashlib.sha256(json.dumps([list(c) for c in obj.covers]).encode())
        digest.update(obj.weights.astype("<f8").tobytes())
        assert digest.hexdigest() == "723523a3c29aa74e6a7530fcfac0fe71357cddfc93f0b248fa60e70d72574512"


class TestGeneratorsMatchConstructors:
    """The generators skip the constructors' checks on data that is valid by
    construction; what they build must equal the validating constructor's
    objective on the same data, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_coverage(self, data):
        n = data.draw(st.sampled_from([1, 2, 5, 300, 1000, 70_000]))
        # a draw block holds `rows` rows; from n = 300 on, m lies below, at and
        # past one and two blocks
        rows = max(1, ossmax.objectives.DRAW_BLOCK // n)
        if n < 300:
            m = data.draw(st.integers(1, 400))
        else:
            m = data.draw(st.sampled_from(sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 3})))
        # at half an expected cover per element, about 60% of the elements
        # take the resample path
        density = data.draw(st.sampled_from([min(1.0, 0.5 / n), 3.0 / (n + 2), 0.4, 1.0]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        obj = make_coverage_instance(n, m, density=density, seed=seed)
        ref = CoverageMultilinearObjective(obj.weights, obj.covers)
        assert obj.covers == ref.covers
        for name in ("weights", "_cols", "_starts", "_segment", "_covered_weights"):
            mine, theirs = getattr(obj, name), getattr(ref, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        # points of [0, 1]^n with coordinates at exactly 0 and 1 mixed in
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(3, n))
        X[rng.uniform(size=(3, n)) < 0.2] = 0.0
        X[rng.uniform(size=(3, n)) < 0.2] = 1.0
        assert obj.value_many(X).tobytes() == ref.value_many(X).tobytes()
        for x in X:
            assert obj.value(x) == ref.value(x)
            assert obj.gradient(x).tobytes() == ref.gradient(x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_quadratic(self, data):
        n = data.draw(st.sampled_from([2, 3, 7, 130, 600]))
        dim = data.draw(st.integers(0, 9))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # far-apart points overflow a square to +inf, tiny ones underflow to 0
        scale = data.draw(st.sampled_from([1.0, 1e-300, 1e154, 1e200]))
        points = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale
        points[rng.integers(0, n, size=n // 3)] = points[0]  # coincident points
        with np.errstate(over="ignore"):
            obj = make_semimetric_instance(points, rng.uniform(0.0, 2.0, size=n))
        ref = QuadraticSemiMetricObjective(obj.M.copy(), obj.b)
        for name in ("M", "b", "_row_sums"):
            assert getattr(obj, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (obj.dimension, obj.sigma_claimed) == (ref.dimension, ref.sigma_claimed)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_nonfinite_points_are_rejected(self, entry, dim):
        points = np.random.default_rng(dim).random((5, dim))
        points[2, dim - 1] = entry
        with pytest.raises(ValueError):
            make_semimetric_instance(points, np.ones(5))

    def test_negative_b_is_rejected(self):
        with pytest.raises(ValueError):
            make_semimetric_instance([0.0, 1.0, 3.0], [1.0, -0.5, 1.0])


@pytest.fixture(scope="module")
def shipped_objectives():
    return [
        make_coverage_instance(4, 6, density=0.5, seed=21),
        make_coverage_instance(6, 8, density=0.35, seed=22),
        make_semimetric_instance([0.0, 1.0, 3.0], [1.0, 1.0, 1.0]),
        make_semimetric_instance(np.random.default_rng(23).random((5, 2)), np.full(5, 0.5)),
    ]


class TestSharedInvariants:
    def test_normalized(self, shipped_objectives):
        for obj in shipped_objectives:
            assert abs(obj.value(np.zeros(obj.dimension))) <= VALUE_TOL

    def test_monotone_on_ordered_pairs(self, shipped_objectives):
        rng = np.random.default_rng(31)
        for obj in shipped_objectives:
            n = obj.dimension
            for _ in range(1000):
                x = rng.uniform(size=n)
                y = np.minimum(x + rng.uniform(size=n) * (1.0 - x), 1.0)
                assert obj.value(x) <= obj.value(y) + VALUE_TOL

    def test_gradient_nonnegative(self, shipped_objectives):
        rng = np.random.default_rng(32)
        for obj in shipped_objectives:
            for _ in range(100):
                x = rng.uniform(size=obj.dimension)
                assert obj.gradient(x).min() >= -VALUE_TOL

    def test_gradient_matches_finite_differences(self, shipped_objectives):
        rng = np.random.default_rng(33)
        for obj in shipped_objectives:
            for _ in range(10):
                x = rng.uniform(0.1, 0.9, size=obj.dimension)
                g = obj.gradient(x)
                g_fd = fd_gradient(lambda z: obj.value(z), x)
                assert np.allclose(g, g_fd, atol=1e-4, rtol=1e-4)

    def test_counters_tally_calls(self):
        # the quadratic serves repeats at one point from its kept product;
        # each still counts as one query
        for obj in (make_coverage_instance(3, 4, seed=2), make_semimetric_instance([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])):
            obj.reset_counters()
            x = np.full(3, 0.5)
            for _ in range(5):
                obj.value(x)
            for _ in range(3):
                obj.gradient(x)
            assert obj.value_calls == 5
            assert obj.gradient_calls == 3
            obj.value_many(np.tile(x, (7, 1)))
            assert obj.value_calls == 12

    def test_value_many_matches_value(self, shipped_objectives):
        rng = np.random.default_rng(34)
        for obj in shipped_objectives:
            X = rng.uniform(size=(50, obj.dimension))
            batch = obj.value_many(X)
            single = np.array([obj.value(row) for row in X])
            assert np.allclose(batch, single, atol=1e-12)
            # a batch of the wrong shape is refused as a point of the wrong length is
            for wrong in (np.ones((3, obj.dimension + 1)), X[:, :-1], X[0], X[None]):
                with pytest.raises(ValueError, match=r"^expected an array of shape"):
                    obj.value_many(wrong)
            # and a row where value is not finite, as value refuses the point
            X[7, 0] = math.nan
            with pytest.raises(SolverError, match=rf"^{type(obj).__name__}: value oracle returned non-finite values$"):
                obj.value_many(X)


class TestVerifyOss:
    def test_coverage_passes_sigma_zero(self):
        obj = make_coverage_instance(5, 7, density=0.4, seed=41)
        assert verify_oss(obj, 0.0, trials=500, seed=1).passed

    def test_semimetric_passes_sigma_one(self):
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
        report = verify_oss(obj, 1.0, trials=1000, seed=2)
        assert report.passed

    def test_quartic_fails_sigma_zero(self):
        # F = (sum x)^4 / n^4 is strictly convex along ones; sigma=0 bounds the
        # Hessian form by zero, so every sample is a violation
        n = 3

        def value(x):
            return (x.sum() / n) ** 4

        def gradient(x):
            return np.full(n, 4.0 * x.sum() ** 3 / n**4)

        def quad(x, u):
            return 12.0 * x.sum() ** 2 * u.sum() ** 2 / n**4

        obj = OssObjective(n, value, gradient, quad, sigma_claimed=0.0)
        report = verify_oss(obj, 0.0, trials=50, seed=3)
        assert not report.passed
        assert report.worst_violation > 0.0
        x, u = report.witness
        assert quad(x, u) > 0.0

    def test_fd_hessian_fallback(self):
        # same quartic without an exact quadratic form: finite differences
        n = 2
        obj = OssObjective(
            n,
            lambda x: (x.sum() / n) ** 4,
            lambda x: np.full(n, 4.0 * x.sum() ** 3 / n**4),
        )
        x = np.full(n, 0.5)
        u = np.ones(n)
        exact = 12.0 * x.sum() ** 2 * u.sum() ** 2 / n**4
        assert obj.hessian_quadratic_form(x, u) == pytest.approx(exact, rel=1e-4)

    def test_trials_domain(self):
        obj = make_coverage_instance(2, 2, seed=1)
        with pytest.raises(ValueError):
            verify_oss(obj, 0.0, trials=0)

    def test_sigma_domain(self):
        obj = make_coverage_instance(2, 2, seed=1)
        with pytest.raises(ValueError):
            verify_oss(obj, -0.5)


class TestVerifyEtaLocal:
    def test_linear_passes_any_eta(self):
        obj = make_semimetric_instance([[0.0], [0.0], [0.0]], [1.0, 2.0, 0.5])
        for eta in (0.0, 1.0, 10.0):
            assert verify_eta_local(obj, eta, trials=300, seed=4).passed

    def test_quadratic_passes_any_eta(self):
        # gradient Mx + b is nondecreasing along nonnegative directions
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])
        assert verify_eta_local(obj, 0.0, trials=500, seed=5).passed

    def test_eta_domain(self):
        obj = make_coverage_instance(2, 2, seed=1)
        with pytest.raises(ValueError):
            verify_eta_local(obj, -0.5)

    def test_coverage_fails_eta_zero(self):
        obj = CoverageMultilinearObjective([1.0], [[0], [0]])
        report = verify_eta_local(obj, 0.0, trials=1000, seed=6)
        assert not report.passed
        x, u, eps = report.witness
        assert u @ obj.gradient(x + eps * u) < u @ obj.gradient(x)


class TestStochasticObjective:
    def test_zero_noise_is_exact(self):
        obj = make_coverage_instance(4, 5, seed=51)
        sobj = StochasticObjective(obj, theta=0.0, seed=0)
        x = np.full(4, 0.4)
        assert np.allclose(sobj.sample_gradient(x), obj.gradient(x))
        assert sobj.empirical_value(x, 16) == pytest.approx(obj.value(x))

    def test_seeded_reproducibility(self):
        obj = make_coverage_instance(4, 5, seed=51)
        x = np.full(4, 0.4)
        a = StochasticObjective(obj, theta=0.5, seed=123)
        b = StochasticObjective(obj, theta=0.5, seed=123)
        for _ in range(5):
            assert np.allclose(a.sample_gradient(x), b.sample_gradient(x))
        assert a.empirical_value(x, 8) == b.empirical_value(x, 8)

    def test_unbiased_mean_within_three_standard_errors(self):
        obj = make_coverage_instance(4, 5, seed=51)
        theta = 0.5
        sobj = StochasticObjective(obj, theta=theta, seed=7)
        x = np.full(4, 0.4)
        g = obj.gradient(x)
        samples = np.stack([sobj.sample_gradient(x) for _ in range(10_000)])
        per_coord_sd = theta / math.sqrt(4)
        standard_error = per_coord_sd / math.sqrt(10_000)
        assert np.all(np.abs(samples.mean(axis=0) - g) <= 3.0 * standard_error)

    def test_per_sample_variance_bounded(self):
        obj = make_coverage_instance(4, 5, seed=51)
        theta = 0.5
        sobj = StochasticObjective(obj, theta=theta, seed=8)
        x = np.full(4, 0.4)
        g = obj.gradient(x)
        sq = [float(np.sum((sobj.sample_gradient(x) - g) ** 2)) for _ in range(10_000)]
        assert np.mean(sq) <= theta**2 * 1.05

    def test_counters(self):
        obj = make_coverage_instance(3, 4, seed=52)
        sobj = StochasticObjective(obj, theta=0.1, seed=9)
        x = np.full(3, 0.2)
        for _ in range(4):
            sobj.sample_gradient(x)
        for _ in range(3):
            sobj.empirical_value(x, 10)
        assert sobj.gradient_sample_calls == 4
        assert sobj.value_batch_calls == 3

    def test_spawned_streams_differ(self):
        obj = make_coverage_instance(3, 4, seed=52)
        parent = StochasticObjective(obj, theta=0.5, seed=10)
        x = np.full(3, 0.2)
        child_a = parent.spawn()
        child_b = parent.spawn()
        assert not np.allclose(child_a.sample_gradient(x), child_b.sample_gradient(x))

    def test_spawned_children_of_equally_seeded_parents_draw_alike(self):
        obj = make_coverage_instance(3, 4, seed=52)
        parents = [StochasticObjective(obj, theta=0.5, seed=10) for _ in range(2)]
        x = np.full(3, 0.2)
        for _ in range(2):  # the first children, then the second ones
            a, b = (parent.spawn() for parent in parents)
            for _ in range(3):
                assert np.array_equal(a.sample_gradient(x), b.sample_gradient(x))
                assert a.empirical_value(x, 8) == b.empirical_value(x, 8)

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 10.0),
        n=st.integers(1, 40),
        batch=st.integers(1, 64),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_noise_is_bounded(self, theta, n, batch, seed, data):
        # uniform noise: an empirical value is within theta * sqrt(3) of F(x),
        # and a gradient sample within theta * sqrt(3/n) of grad F(x) in every
        # coordinate, up to the rounding of adding the noise to the truth
        x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        obj = make_coverage_instance(n, n + 2, density=0.4, seed=seed)
        sobj = StochasticObjective(obj, theta, seed=seed)
        f, g = obj.value(x), obj.gradient(x)

        def slack(bound, truth):
            return bound * (1.0 + 1e-12) + 4.0 * np.spacing(np.abs(truth) + bound)

        value_bound, gradient_bound = theta * math.sqrt(3.0), theta * math.sqrt(3.0 / n)
        for _ in range(3):
            assert abs(sobj.empirical_value(x, batch) - f) <= slack(value_bound, f)
            assert np.all(np.abs(sobj.sample_gradient(x) - g) <= slack(gradient_bound, g))

    def test_validation(self):
        obj = make_coverage_instance(3, 4, seed=52)
        with pytest.raises(ValueError):
            StochasticObjective(obj, theta=-0.1)
        with pytest.raises(ValueError):
            StochasticObjective(obj, theta=0.1).empirical_value(np.zeros(3), 0)


class TestLifetime:
    """Nothing an objective holds refers back to it, so dropping its last
    reference frees it at once, with the cyclic collector turned off."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _quadratic(3, np.random.default_rng(11)),
            lambda: make_coverage_instance(3, 4, seed=11),
            lambda: OssObjective(3, lambda x: float(x.sum()), lambda x: np.ones(3)),
        ],
        ids=["quadratic", "coverage", "callables"],
    )
    def test_dropped_objective_is_freed_at_once(self, build):
        x = np.full(3, 0.5)
        gc.disable()
        try:
            obj = build()
            obj.value(x)
            obj.gradient(x)  # the quadratic keeps the product of x
            ref = weakref.ref(obj)
            del obj
            assert ref() is None
        finally:
            gc.enable()

    def test_dropped_sampler_frees_its_ground_truth_at_once(self):
        x = np.full(3, 0.5)
        gc.disable()
        try:
            sobj = StochasticObjective(_quadratic(3, np.random.default_rng(12)), theta=0.5, seed=12)
            sobj.empirical_value(x, 4)
            sobj.sample_gradient(x)
            refs = weakref.ref(sobj), weakref.ref(sobj.ground_truth)
            del sobj
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_value_and_gradient_are_required(self):
        with pytest.raises(TypeError):
            OssObjective(3)
        with pytest.raises(TypeError):
            OssObjective(3, lambda x: float(x.sum()))
