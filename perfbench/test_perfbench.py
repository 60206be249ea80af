"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json

import numpy as np
import pytest

import run

om = run.load_package()

import compare  # noqa: E402 - needs the package path set by load_package
import tracing  # noqa: E402
from workloads import make_workloads  # noqa: E402

TINY = make_workloads(coverage_n=32, quadratic_n=24, desk_dims=(2, 3), grid_resolution=4)
SPEC = run.bench_spec()


def _content(case):
    data = om.instance_to_dict(om.Instance(case.objective, case.polytope))
    return json.dumps(data, sort_keys=True), case.config, case.grid_resolution


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(make_workloads())
    assert list(TINY) == list(make_workloads())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_emitted_metric_names_match_spec(name, trace):
    result, lines = run.run_workload(om, TINY[name], seed=3, seconds=0.01, trace=trace)
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    if trace and name == "desk-grid":
        assert result["metrics"]["solvers.grid_maximum.busy_s"]["value"] > 0
        assert result["metrics"]["objectives.value_many.rows"]["value"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_seeded_generation_is_reproducible(name):
    workload = TINY[name]
    first = [_content(build()) for build in workload.groups(5, 0)]
    again = [_content(build()) for build in workload.groups(5, 0)]
    other = [_content(build()) for build in workload.groups(6, 0)]
    assert first == again
    assert first != other


def test_end_to_end_figures_repeat_for_a_seed():
    deterministic = ("ratio_to_upper", "ratio_to_ref_min", "passed_frac", "adaptive_rounds",
                     "value_queries", "gradient_queries")
    a, _ = run.run_workload(om, TINY["desk-grid"], seed=4, seconds=0.01, trace=False)
    b, _ = run.run_workload(om, TINY["desk-grid"], seed=4, seconds=0.01, trace=False)
    assert [a["metrics"][k] for k in deterministic] == [b["metrics"][k] for k in deterministic]


def test_a_failed_check_is_counted_with_its_seed(monkeypatch):
    solve = om.parallel_greedy

    def outside(objective, polytope, config):
        sol = solve(objective, polytope, config)
        return om.Solution(sol.x + 2.0, sol.value, sol.trace, sol.lambda_final, sol.t_final)

    monkeypatch.setattr(om, "parallel_greedy", outside)
    result, lines = run.run_workload(om, TINY["quadratic-dense"], seed=9, seconds=0.01, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert result["metrics"]["passed_frac"]["value"] == 0.0
    assert any(line.startswith("# FAILED seed=9") and "infeasible x" in line for line in lines)


def test_a_repeat_solve_that_differs_is_counted(monkeypatch):
    solve, solved = om.parallel_greedy, set()

    def drifting(objective, polytope, config):
        sol = solve(objective, polytope, config)
        if id(objective) not in solved:
            solved.add(id(objective))
            return sol
        return om.Solution(0.5 * sol.x, sol.value, sol.trace, sol.lambda_final, sol.t_final)

    monkeypatch.setattr(om, "parallel_greedy", drifting)
    workload = dataclasses.replace(TINY["desk-grid"], builds=1, resolve_share=50.0)
    result, lines = run.run_workload(om, workload, seed=2, seconds=0.01, trace=False)
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("# FAILED seed=2") and "differs from the first" in line for line in lines)


@pytest.mark.parametrize("name", list(TINY))
def test_wrappers_are_transparent(name):
    build = TINY[name].groups(7, 0)[-1]
    plain, traced = build(), build()
    expected = om.parallel_greedy(plain.objective, plain.polytope, plain.config)
    solvers_before = {attr: getattr(om.solvers, attr) for attr, _, _ in tracing.SOLVER_ATTRIBUTES}
    tracer = tracing.Tracer()
    with tracing.installed(tracer, traced.objective, traced.polytope):
        got, root = tracer.root("solve", om.parallel_greedy, traced.objective, traced.polytope, traced.config)
    assert np.array_equal(got.x, expected.x) and got.value == expected.value
    assert got.trace == expected.trace
    assert (traced.objective.value_calls, traced.objective.gradient_calls) == (
        plain.objective.value_calls,
        plain.objective.gradient_calls,
    )
    assert tracing.span_calls(tracer, root, "objectives.value") == traced.objective.value_calls
    assert tracing.span_calls(tracer, root, "objectives.gradient") == traced.objective.gradient_calls
    assert not {"value", "gradient", "value_many"} & set(vars(traced.objective))
    assert not {"contains", "contains_many"} & set(vars(traced.polytope))
    assert {attr: getattr(om.solvers, attr) for attr in solvers_before} == solvers_before


def test_self_times_count_nested_calls_once():
    tracer = tracing.Tracer()
    inner = tracer.wrap("objectives.value", lambda: sum(range(1000)))
    outer = tracer.wrap("polytopes.opt_bounds", lambda: inner() + inner())
    tracer.root("solve", outer)
    busy = tracing._self_times(tracer.spans)
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(busy) == pytest.approx(total)
    assert all(b >= 0 for b in busy)


def test_verdicts():
    parent = {s: 1.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(parent, {s: 0.5 * v for s, v in parent.items()}, "lower", 0.1) == "better"
    assert compare.verdict(parent, {s: 1.5 * v for s, v in parent.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(parent, {s: 1.02 * v for s, v in parent.items()}, "lower", 0.1) == "within bound"
    noisy = {s: 1.0 + s for s in range(10)}
    assert compare.verdict(noisy, {s: 1.1 * v for s, v in noisy.items()}, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, {s: 1.5 * v for s, v in parent.items()}, "lower", None) == "worse"


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(19))) is None
    p, _ = run.tail_percentile(list(range(100)))
    assert p == 90
