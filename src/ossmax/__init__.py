"""Greedy maximization of monotone one-sided smooth objectives over polytopes.

The package ships two threshold-greedy solvers (deterministic and
stochastic), a serial single-direction baseline, an exhaustive grid oracle,
two objective families with exact first- and second-order oracles, sampled
verifiers for the smoothness and locality inequalities, and a small CLI
(`ossmax generate | solve | verify | bench`).
"""

from .core import (
    ConfigError,
    GridBudgetError,
    Solution,
    SolverConfig,
    SolverError,
    SolverTrace,
    TraceSnapshot,
    Vector,
    contraction_factor,
    guaranteed_ratio,
)
from .instances import Instance, instance_from_dict, instance_to_dict, read_instance, write_instance
from .objectives import (
    CoverageMultilinearObjective,
    OssObjective,
    QuadraticSemiMetricObjective,
    StochasticObjective,
    VerificationReport,
    make_coverage_instance,
    make_semimetric_instance,
    random_semimetric_instance,
    verify_eta_local,
    verify_oss,
    verify_semimetric,
)
from .polytopes import (
    BoxPolytope,
    CardinalityPolytope,
    MonotoneLinearPolytope,
    Polytope,
    opt_bounds,
)
from .solvers import (
    DirectionSet,
    grid_maximum,
    kappa_envelope,
    momentum_weight,
    parallel_greedy,
    select_directions,
    serial_greedy,
    stochastic_parallel_greedy,
    update_gradient_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "BoxPolytope",
    "CardinalityPolytope",
    "ConfigError",
    "CoverageMultilinearObjective",
    "DirectionSet",
    "GridBudgetError",
    "Instance",
    "MonotoneLinearPolytope",
    "OssObjective",
    "Polytope",
    "QuadraticSemiMetricObjective",
    "Solution",
    "SolverConfig",
    "SolverError",
    "SolverTrace",
    "StochasticObjective",
    "TraceSnapshot",
    "VerificationReport",
    "Vector",
    "contraction_factor",
    "grid_maximum",
    "guaranteed_ratio",
    "instance_from_dict",
    "instance_to_dict",
    "kappa_envelope",
    "make_coverage_instance",
    "make_semimetric_instance",
    "momentum_weight",
    "opt_bounds",
    "parallel_greedy",
    "random_semimetric_instance",
    "read_instance",
    "select_directions",
    "serial_greedy",
    "stochastic_parallel_greedy",
    "update_gradient_estimate",
    "verify_eta_local",
    "verify_oss",
    "verify_semimetric",
    "write_instance",
]
