"""Seeded instances for the benchmark workloads.

A workload is a list of case groups.  Group ``g`` of a run with seed ``s``
is built from ``(s, g, index)`` alone, so one seed always yields the same
inputs, whatever the machine or the run length.  A group is one instance on
the large workloads and one full cycle of shapes on ``desk-grid``, so every
run holds each desk shape equally often and the medians do not depend on
where a run happens to stop.

Builders are returned unevaluated: the harness times each call as set-up,
and a large instance is dropped before the next one is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence

import numpy as np

import ossmax as om

HEAVY_WEIGHT = 10.0  # exclusive element on a chain's most dominated coordinate


@dataclass
class Case:
    """One solve: an instance, its region, the solver settings and the reference.

    ``grid_resolution`` > 0 asks for the grid oracle as the quality
    reference; 0 uses the lower bound of ``opt_bounds``.
    """

    label: str
    objective: om.OssObjective
    polytope: om.Polytope
    config: om.SolverConfig
    grid_resolution: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    group_cost_s: float  # set-up + solve + reference per group, measured on a 2-core x86 VM
    groups: Callable[[int, int], List[Callable[[], Case]]]  # (seed, group) -> case builders
    warmup: Callable[[], Case]
    builds: int = 1  # builds of each group per pass; setup_s takes their median
    resolve_share: float = 0.0  # repeat solves, as a share of reference time (see run.Run.group)


def case_seed(seed: int, group: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, group, index]).generate_state(1)[0])


def coverage_case(seed: int, n: int) -> Case:
    objective = om.make_coverage_instance(n, 4 * n, density=3.0 / n, seed=seed)
    return Case(f"coverage n={n}", objective, om.CardinalityPolytope(n, n / 8), om.SolverConfig(epsilon=0.1))


def quadratic_case(seed: int, n: int) -> Case:
    objective = om.random_semimetric_instance(n, seed=seed)
    config = om.SolverConfig(epsilon=0.1, sigma=1.0, alpha=0.05)
    return Case(f"quadratic n={n}", objective, om.CardinalityPolytope(n, n / 8), config)


def _chain(rng: np.random.Generator, n: int):
    """A random ordering chain; returns the region and its most dominated coordinate."""
    order = rng.permutation(n)
    return om.MonotoneLinearPolytope(n, zip(order[:-1], order[1:])), int(order[0])


def desk_case(seed: int, n: int, family: str, shape: str, resolution: int) -> Case:
    rng = np.random.default_rng(seed)
    if family == "coverage":
        objective = om.make_coverage_instance(n, 2 * n, density=0.4, seed=int(rng.integers(2**31)))
        config = om.SolverConfig(epsilon=0.1)
    else:
        objective = om.random_semimetric_instance(n, seed=int(rng.integers(2**31)))
        config = om.SolverConfig(epsilon=0.1, sigma=1.0, alpha=1.0)
    if shape == "box":
        polytope = om.BoxPolytope(n, rng.uniform(0.3, 1.0, size=n))
    elif shape == "cardinality":
        polytope = om.CardinalityPolytope(n, n / 2)
    else:
        polytope, bottom = _chain(rng, n)
        if shape == "heavy-chain":
            # the shape of ROADMAP item 4: the heavy element is reachable only
            # through a coordinate that cannot move before its dominators do
            covers = [list(c) for c in objective.covers]
            covers[bottom].append(len(objective.weights))
            objective = om.CoverageMultilinearObjective(np.append(objective.weights, HEAVY_WEIGHT), covers)
    return Case(f"{family} {shape} n={n}", objective, polytope, config, grid_resolution=resolution)


# Heavy chains appear three times per dimension: about 6% of them leave the
# solver at its jump start (value/grid 0.054-0.074), and ~63 per run make a
# run almost surely hold one, which steadies the worst-case ratio.
DESK_SHAPES = (
    ("coverage", "box"),
    ("coverage", "cardinality"),
    ("coverage", "chain"),
    ("coverage", "heavy-chain"),
    ("coverage", "heavy-chain"),
    ("coverage", "heavy-chain"),
    ("quadratic", "box"),
    ("quadratic", "cardinality"),
    ("quadratic", "chain"),
)


def desk_cycle(seed: int, group: int, dims: Sequence[int], resolution: int) -> List[Callable[[], Case]]:
    shapes = [(n, family, shape) for n in dims for family, shape in DESK_SHAPES]
    return [
        partial(desk_case, case_seed(seed, group, i), n, family, shape, resolution)
        for i, (n, family, shape) in enumerate(shapes)
    ]


def make_workloads(
    coverage_n: int = 1024,
    quadratic_n: int = 2048,
    desk_dims: Sequence[int] = (4, 5, 6),
    grid_resolution: int = 10,
) -> Dict[str, Workload]:
    """The benchmark's workloads, in BENCHMARK.json order; the defaults are
    the sizes the benchmark runs (README.md says why each workload exists)."""
    workloads = [
        Workload(
            "coverage-sparse",
            6.4,
            lambda seed, g: [partial(coverage_case, case_seed(seed, g, 0), coverage_n)],
            partial(coverage_case, 0, max(8, coverage_n // 8)),
        ),
        Workload(
            "quadratic-dense",
            1.6,
            lambda seed, g: [partial(quadratic_case, case_seed(seed, g, 0), quadratic_n)],
            partial(quadratic_case, 0, max(8, quadratic_n // 8)),
        ),
        Workload(
            "desk-grid",
            4.3,
            lambda seed, g: desk_cycle(seed, g, desk_dims, grid_resolution),
            partial(desk_case, 0, desk_dims[0], "coverage", "chain", grid_resolution),
            # a desk build or solve is well under a millisecond: repeats
            # give each timing sample enough work to outlast scheduler noise
            builds=16,
            resolve_share=0.15,
        ),
    ]
    return {w.name: w for w in workloads}
