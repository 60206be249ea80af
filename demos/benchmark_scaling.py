"""Walkthrough: round and query growth across problem sizes, the cost of
one coverage oracle call at large n, and the cost of the grid oracle.

The adaptive-round count is bounded by O(log n / eps^2); on these coverage
instances it stays nearly flat in the dimension.  Beside it stands the
count of threshold levels visited (``outer_rounds``): empty levels are
skipped within one selection scan, so they cost no round of their own.
This script measures medians over five seeds per point; the same sweep backs
the acceptance tests' frozen budget constants.  It then times one value and
one gradient of sparse coverage instances (m = 4n, density 3/n) up to
n = 10^4, where a dense m x n incidence would hold 4 * 10^8 entries, at a
uniform point and, for the gradient, at a solve-like point with 5% of the
coordinates at exactly 1 (whose zero factors take the gradient's zero-pair
path, as at nearly every gradient point of a solve), and
one build and one value and one gradient of the distance-matrix quadratic,
for n up to 4096, at points with n/8 and n nonzeros and at the all-ones
point; a build's traced peak is given against the 8n^2 bytes of one M, and
its time beside the number of threads that wrote M.
Last, it runs the grid oracle on box, cardinality and chain regions of
dimension 4 to 7 and counts the lattice points it holds and the feasible
points it evaluates (the only points its walk builds).

Run: python demos/benchmark_scaling.py
"""

import math
import time
import tracemalloc

import numpy as np

from ossmax import (
    BoxPolytope,
    CardinalityPolytope,
    MonotoneLinearPolytope,
    SolverConfig,
    grid_maximum,
    make_coverage_instance,
    parallel_greedy,
    random_semimetric_instance,
)
from ossmax.objectives import _build_workers
from ossmax.solvers import GRID_POINT_BUDGET

SEEDS = range(300, 305)

print(f"{'n':>4} {'eps':>5} {'levels':>8} {'rounds':>8} {'value_q':>8} {'grad_q':>8} {'log(n)/eps^2':>14}")
for n in (4, 8, 16, 32):
    for eps in (0.1, 0.2):
        levels, rounds, value_q, grad_q = [], [], [], []
        for seed in SEEDS:
            objective = make_coverage_instance(n, n + 2, density=0.4, seed=seed)
            solution = parallel_greedy(objective, BoxPolytope(n, 1.0), SolverConfig(epsilon=eps))
            levels.append(solution.trace.outer_rounds)
            rounds.append(solution.trace.adaptive_rounds)
            value_q.append(solution.trace.value_queries)
            grad_q.append(solution.trace.gradient_queries)
        print(
            f"{n:>4} {eps:>5} {np.median(levels):>8g} {np.median(rounds):>8g} {np.median(value_q):>8g} "
            f"{np.median(grad_q):>8g} {math.log(n) / eps**2:>14.1f}"
        )

print()
print("levels (threshold levels visited) scale with 1/eps through the decay")
print("schedule; rounds stay far below them, because a selection scan skips the")
print("empty levels within its one round.  Rounds are bounded by O(log(n)/eps^2)")
print("and stay nearly flat in n on these instances.")

print()
print(f"{'n':>6} {'pairs':>8} {'build_s':>8} {'value_ms':>9} {'gradient_ms':>12} {'ones_gradient_ms':>17}")
for n in (1024, 4096, 10_000):
    start = time.perf_counter()
    objective = make_coverage_instance(n, 4 * n, density=3.0 / n, seed=n)
    build = time.perf_counter() - start
    rng = np.random.default_rng(n)
    x = rng.uniform(size=n)
    ones = x.copy()
    ones[rng.random(n) < 0.05] = 1.0
    timings = []
    for oracle, point in ((objective.value, x), (objective.gradient, x), (objective.gradient, ones)):
        calls = []
        for _ in range(5):  # best of five single calls
            start = time.perf_counter()
            oracle(point)
            calls.append(1e3 * (time.perf_counter() - start))
        timings.append(min(calls))
    pairs = sum(len(cover) for cover in objective.covers)
    print(f"{n:>6} {pairs:>8} {build:>8.2f} {timings[0]:>9.2f} {timings[1]:>12.2f} {timings[2]:>17.2f}")

print()
print("value and gradient cost O(nnz): a call stays in milliseconds at n = 10^4.")
print("ones_gradient_ms times the gradient with 5% of the coordinates at exactly")
print("1; its exact-zero factors are found and counted on the zero pairs alone.")

print()
print(
    f"{'n':>6} {'build_s':>8} {'workers':>8} {'peak_MB':>8} {'peak/8n^2':>10} "
    f"{'point':>12} {'value_ms':>9} {'gradient_ms':>12} {'kept_gradient_ms':>17}"
)
for n in (1024, 2048, 4096):
    tracemalloc.start()
    random_semimetric_instance(n, seed=n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    builds = []
    for _ in range(3):  # best of three builds
        objective = None  # drop the previous build before timing the next
        start = time.perf_counter()
        objective = random_semimetric_instance(n, seed=n)
        builds.append(time.perf_counter() - start)
    build = min(builds)
    built = f"{n:>6} {build:>8.3f} {_build_workers(n):>8} {peak / 1e6:>8.1f} {peak / (8 * n * n):>10.2f}"
    rng = np.random.default_rng(n)
    sparse, dense = np.zeros(n), rng.uniform(size=n)
    sparse[rng.choice(n, n // 8, replace=False)] = rng.uniform(size=n // 8)
    points = {"n/8 nonzero": sparse, "n nonzero": dense, "all ones": np.ones(n)}
    for label, x in points.items():
        timings = []
        for oracle, kept in ((objective.value, False), (objective.gradient, False), (objective.gradient, True)):
            calls = []
            for _ in range(5):  # best of five single calls
                # reset_counters drops the kept product; kept=True first
                # takes the value, so the gradient reads the kept product
                objective.reset_counters()
                if kept:
                    objective.value(x)
                start = time.perf_counter()
                oracle(x)
                calls.append(1e3 * (time.perf_counter() - start))
            timings.append(min(calls))
        print(f"{built} {label:>12} {timings[0]:>9.3f} {timings[1]:>12.3f} {timings[2]:>17.3f}")
        built = f"{'':>6} {'':>8} {'':>8} {'':>8} {'':>10}"
    del objective

print()
print("A build writes one n x n matrix and keeps it, so its traced peak stays")
print("near 8n^2 bytes.  Past n = 1448 it writes M's row blocks from one thread")
print("per CPU the process may use (at least 2^20 entries each), with the same")
print("bits as on one thread; each thread adds one 512 KB scratch buffer.")
print("A quadratic value or gradient costs O(n * |supp x|) on a sparse point,")
print("O(n) at the all-ones point (M's row sums are kept) and O(n^2) on other")
print("dense points; a gradient at the point just valued reuses its product and")
print("costs O(n).")


def grid_regions(n, rng):
    yield "box", BoxPolytope(n, rng.uniform(0.3, 1.0, size=n))
    yield "cardinality", CardinalityPolytope(n, n / 2)
    order = rng.permutation(n)
    yield "chain", MonotoneLinearPolytope(n, zip(order[:-1], order[1:]))


print()
print(f"{'n':>3} {'region':>12} {'res':>4} {'lattice':>9} {'feasible':>9} {'ms':>8}")
for n in (4, 5, 6, 7):
    resolution = 10  # or the finest lattice below it that the point budget admits
    while (resolution + 1) ** n > GRID_POINT_BUDGET:
        resolution -= 1
    objective = make_coverage_instance(n, 2 * n, density=0.4, seed=n)
    for name, polytope in grid_regions(n, np.random.default_rng(n)):
        objective.reset_counters()
        start = time.perf_counter()
        grid_maximum(objective, polytope, resolution)
        elapsed = 1e3 * (time.perf_counter() - start)
        print(
            f"{n:>3} {name:>12} {resolution:>4} {(resolution + 1) ** n:>9} "
            f"{objective.value_calls:>9} {elapsed:>8.1f}"
        )

print()
print("The grid oracle builds only the lattice points whose every digit lies in")
print("the range the region allows after the digits before it, which are exactly")
print("the feasible ones, and evaluates each once, so its cost follows the feasible")
print("count: a chain costs a few milliseconds even at n = 7, while a half-full")
print("cardinality budget still holds about half the lattice.")
