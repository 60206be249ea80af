"""Command-line harness: generate instances, run solvers, verify properties.

Verbs
-----
generate   write a random instance file (regeneration with the same seed is
           byte-identical)
solve      run a solver on an instance, append one CSV row, print a summary
verify     check the smoothness / locality claims of an instance

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 verification
failure.  Relative output paths resolve against ``$OSSMAX_OUT_DIR`` when it
is set.

CSV schema (fixed): instance, solver, seed, dimension, value, opt_lower,
opt_upper, grid_opt, ratio, adaptive_rounds, value_queries, gradient_queries,
wall_time_s, error, config.  ``grid_opt`` and ``ratio`` stay empty unless the
grid oracle actually ran; ``error`` is always empty, since a failed run
appends no row, and stays so that rows line up with files written before;
``config`` echoes the solver configuration as JSON so a row can be replayed
exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ConfigError, GridBudgetError, SolverConfig, SolverError
from .instances import Instance, read_instance, write_instance
from .objectives import (
    QuadraticSemiMetricObjective,
    StochasticObjective,
    make_coverage_instance,
    random_semimetric_instance,
    verify_eta_local,
    verify_oss,
    verify_semimetric,
)
from .polytopes import BoxPolytope, CardinalityPolytope, MonotoneLinearPolytope, opt_bounds
from .solvers import (
    grid_maximum,
    parallel_greedy,
    serial_greedy,
    stochastic_parallel_greedy,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFY_FAIL = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the harness reserves 2
    # for runtime failures, so remap to the validation code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(f"{self.prog}: {message}", EXIT_VALIDATION)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("OSSMAX_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class RunRecord:
    instance: str
    solver: str
    seed: Optional[int]
    dimension: int
    value: Optional[float] = None
    opt_lower: Optional[float] = None
    opt_upper: Optional[float] = None
    grid_opt: Optional[float] = None
    ratio: Optional[float] = None
    adaptive_rounds: Optional[int] = None
    value_queries: Optional[int] = None
    gradient_queries: Optional[int] = None
    wall_time_s: Optional[float] = None
    error: str = ""
    config: str = ""

    def row(self) -> list:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [field.name for field in dataclasses.fields(RunRecord)]


def _append_row(path: Path, record: RunRecord) -> None:
    new_file = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.row())


def _grid_value(instance: Instance, resolution: Optional[int]) -> Optional[float]:
    """Grid optimum when requested and affordable; None means 'not computed'."""
    n = instance.dimension
    if resolution == 0:
        return None
    if resolution is None:
        resolution = 10
        if n > 8 or (resolution + 1) ** n > 1_000_000:
            return None
    try:
        return grid_maximum(instance.objective, instance.polytope, resolution)
    except GridBudgetError as exc:
        raise _CliError(
            f"grid resolution {resolution} with dimension {n} exceeds the point budget",
            EXIT_VALIDATION,
        ) from exc


def _run_one(
    instance: Instance,
    instance_path: str,
    solver: str,
    cfg: SolverConfig,
    seed: Optional[int],
    grid_resolution: Optional[int],
) -> RunRecord:
    record = RunRecord(
        instance=instance_path,
        solver=solver,
        seed=seed,
        dimension=instance.dimension,
        config=json.dumps(dataclasses.asdict(cfg), sort_keys=True),
    )
    lower, upper = opt_bounds(instance.objective, instance.polytope)
    record.opt_lower, record.opt_upper = lower, upper
    started = time.perf_counter()
    if solver == "jspg":
        solution = parallel_greedy(instance.objective, instance.polytope, cfg)
    elif solver == "serial":
        solution = serial_greedy(instance.objective, instance.polytope, cfg)
    else:  # spg; argparse's choices admit no other solver
        sobj = StochasticObjective(instance.objective, cfg.noise_theta, seed=seed)
        solution = stochastic_parallel_greedy(sobj, instance.polytope, cfg)
    record.wall_time_s = time.perf_counter() - started
    record.value = solution.value
    record.adaptive_rounds = solution.trace.adaptive_rounds
    record.value_queries = solution.trace.value_queries
    record.gradient_queries = solution.trace.gradient_queries
    grid = _grid_value(instance, grid_resolution)
    if grid is not None:
        record.grid_opt = grid
        record.ratio = solution.value / grid if grid > 0 else None
    return record


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ``SolverConfig`` field, stored under the field's name;
    an omitted flag stays None and the field keeps its default."""
    parser.add_argument("--alpha", type=float, default=None, help="jump-start scale in (0, 1]")
    parser.add_argument("--epsilon", type=float, default=None, help="threshold decay in (0, 1)")
    parser.add_argument("--eta", type=float, default=None, help="locality parameter (step cap)")
    parser.add_argument("--sigma", type=float, default=None, help="smoothness parameter (defaults to the instance claim)")
    parser.add_argument("--batch", type=int, default=None, dest="spg_batch", help="samples per empirical mean (spg)")
    parser.add_argument("--theta", type=float, default=None, dest="noise_theta", help="gradient noise scale (spg)")
    parser.add_argument("--lipschitz", type=float, default=None, dest="lipschitz_L", help="gradient Lipschitz constant (spg)")
    parser.add_argument("--diameter", type=float, default=None, dest="diameter_D", help="feasible-region diameter bound (spg)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ossmax", description="Greedy maximization of one-sided smooth objectives over polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.add_argument("--kind", required=True, choices=["coverage", "quadratic-semimetric"])
    gen.add_argument("--n", type=int, required=True, help="problem dimension")
    gen.add_argument("--elements", type=int, default=None, help="coverage: number of elements (default n + 2)")
    gen.add_argument("--density", type=float, default=0.4, help="coverage: per-pair coverage probability")
    gen.add_argument("--weight-lo", type=float, default=0.5, dest="weight_lo")
    gen.add_argument("--weight-hi", type=float, default=1.5, dest="weight_hi")
    gen.add_argument("--point-dim", type=int, default=2, dest="point_dim", help="semimetric: point-space dimension")
    gen.add_argument("--b-lo", type=float, default=0.25, dest="b_lo", help="semimetric: linear term lower bound")
    gen.add_argument("--b-hi", type=float, default=1.0, dest="b_hi", help="semimetric: linear term upper bound")
    gen.add_argument("--polytope", choices=["box", "cardinality", "monotone-linear"], default="box")
    gen.add_argument("--upper", type=float, default=1.0, help="box: upper bound per coordinate")
    gen.add_argument("--k", type=float, default=None, help="cardinality: budget (default ceil(n/2))")
    gen.add_argument("--pairs", type=str, default=None, help="monotone-linear: comma list like 0:1,1:2")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--label", type=str, default=None)
    gen.add_argument("--out", required=True, help="output instance path")

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("instance", help="instance file path")
    solve.add_argument("--solver", choices=["jspg", "spg", "serial"], default="jspg")
    solve.add_argument(
        "--grid-resolution",
        type=int,
        default=None,
        dest="grid_resolution",
        help="grid oracle resolution (0 disables; default: 10 when affordable)",
    )
    solve.add_argument("--out", default=None, help="CSV path to append the run record to")
    _add_config_flags(solve)

    verify = sub.add_parser("verify", help="verify the instance's claimed properties")
    verify.add_argument("instance", help="instance file path")
    verify.add_argument("--sigma", type=float, default=None, help="smoothness claim to check (default: instance claim)")
    verify.add_argument("--eta", type=float, default=None, help="also check this gradient-locality parameter")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def _parse_pairs(raw: str):
    pairs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        left, _, right = token.partition(":")
        pairs.append((int(left), int(right)))
    return pairs


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise _CliError("--n must be at least 1", EXIT_VALIDATION)
    if args.kind == "coverage":
        m = args.elements if args.elements is not None else args.n + 2
        objective = make_coverage_instance(
            args.n, m, density=args.density, weight_range=(args.weight_lo, args.weight_hi), seed=args.seed
        )
    else:
        objective = random_semimetric_instance(
            args.n, seed=args.seed, point_dim=args.point_dim, b_range=(args.b_lo, args.b_hi)
        )
    if args.polytope == "box":
        polytope = BoxPolytope(args.n, args.upper)
    elif args.polytope == "cardinality":
        budget = args.k if args.k is not None else math.ceil(args.n / 2)
        polytope = CardinalityPolytope(args.n, budget)
    else:
        if not args.pairs:
            raise _CliError("--pairs is required for a monotone-linear polytope", EXIT_VALIDATION)
        polytope = MonotoneLinearPolytope(args.n, _parse_pairs(args.pairs))
    label = args.label or f"{args.kind}-n{args.n}-{args.polytope}-seed{args.seed}"
    path = _out_path(args.out)
    write_instance(path, Instance(objective=objective, polytope=polytope, label=label, seed=args.seed))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    # the flags given, SolverConfig's defaults for the rest; sigma defaults
    # to the instance's claim
    given = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(SolverConfig)
        if getattr(args, field.name) is not None
    }
    cfg = SolverConfig(**{"sigma": instance.objective.sigma_claimed, **given})
    try:
        record = _run_one(instance, args.instance, args.solver, cfg, args.seed, args.grid_resolution)
    except SolverError as exc:
        raise _CliError(f"solver failed: {exc}", EXIT_RUNTIME) from exc
    if args.out:
        _append_row(_out_path(args.out), record)
    print(f"instance      {instance.label} (n={instance.dimension})")
    print(f"solver        {args.solver}")
    print(f"value         {record.value:.6f}")
    print(f"opt bracket   [{record.opt_lower:.6f}, {record.opt_upper:.6f}]")
    if record.grid_opt is not None:
        print(f"grid optimum  {record.grid_opt:.6f}")
        ratio = "n/a (grid optimum is 0)" if record.ratio is None else f"{record.ratio:.4f}"
        print(f"ratio         {ratio}")
    print(
        f"rounds/queries  adaptive={record.adaptive_rounds}"
        f" value={record.value_queries} gradient={record.gradient_queries}"
    )
    print(f"wall time     {record.wall_time_s:.3f}s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    objective = instance.objective
    sigma = args.sigma if args.sigma is not None else objective.sigma_claimed

    def reports():
        if isinstance(objective, QuadraticSemiMetricObjective):
            yield verify_semimetric(objective.M, sigma)
        yield verify_oss(objective, sigma, trials=args.trials, seed=args.seed)
        if args.eta is not None:
            yield verify_eta_local(objective, args.eta, trials=args.trials, seed=args.seed)

    failed = False
    for report in reports():
        print(report.summary())
        if not report.passed:
            failed = True
            print(f"  witness {_witness(report, objective, sigma)}")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _witness(report, objective, sigma: float) -> str:
    """A failed check's witness: the semi-metric check's index triple, or a
    sample ``(x, u)`` with the locality check's step ``eps`` after it."""
    if report.trials is None:
        i, j, k = report.witness
        lhs = objective.M[i, j]
        rhs = sigma * (objective.M[i, k] + objective.M[k, j])
        return f"triple ({i}, {j}, {k}): M[{i},{j}]={lhs:g} > {sigma:g}*(M[{i},{k}]+M[{k},{j}])={rhs:g}"
    x, u, *step = report.witness
    text = f"x={np.array2string(x, precision=4)} u={np.array2string(u, precision=4)}"
    return text + "".join(f" eps={eps:.4f}" for eps in step)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_verify(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (ConfigError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
