#!/usr/bin/env python3
"""Closed-loop solve benchmark for ossmax.

One client, one solve at a time, one BLAS thread.  A run builds its
instances from ``--seed``, solves one small warm-up case (kept out of every
metric), then solves its fixed case set, and repeats the whole set while
``--seconds`` allow.  Quality and count metrics come from the first pass, so
they are identical for a given seed; timings use every complete pass.  Every
solve is checked; see README.md for the checks and the metric definitions.

    python3 perfbench/run.py --workload coverage-sparse --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run, which solves each case untraced and traced and requires identical
results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
FILL = 0.85  # share of --seconds the fixed case set is sized to fill
TRACED_COST = 2.2  # a traced run solves every case twice, once with wrappers
VALUE_RTOL = 1e-9


def load_package():
    """Import ossmax from this checkout's ``src``; refuse any other copy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the host's memory fragmentation, which
    # made whole runs bimodal (solve_s 0.79 vs 0.93 s, peak RSS 230 vs
    # 261 MB on quadratic-dense).  Plain pages keep runs comparable.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = ROOT / "src"
    if not (src / "ossmax" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ossmax sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ossmax

    if Path(ossmax.__file__).resolve().parent != src / "ossmax":
        raise SystemExit(f"perfbench: imported ossmax from {ossmax.__file__}, not from {src}")
    return ossmax


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{BLAS_THREADS} (pinned)"


def environment() -> str:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = f"{BLAS_THREADS} (pinned)"
    return (
        f"python {platform.python_version()} numpy {np.__version__} blas {blas['name']} {blas['version']} "
        f"blas_threads {threads} nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))}"
    )


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """One benchmark run: timing samples, first-pass figures and check outcomes."""

    def __init__(self, om, trace):
        self.om = om
        self.trace = trace
        self.setup_s, self.solve_s, self.reference_s = [], [], []  # one sample per group or reference
        self.solve_times, self.traced_solve_s = [], []  # every single untraced and traced solve
        self.first_pass = []  # per solved case of the first pass: quality and count figures
        self.passed = []  # per case of the first pass: passed every check and the guarantee
        self.fingerprints = {}
        self.attempted = 0
        self.failures = []  # (case key, label, reason)
        self.misses = []  # (case key, label, value/reference, guaranteed ratio)
        if trace:
            import tracing

            self.tracing = tracing
            self.tracer = tracing.Tracer()
            self.traced_solves, self.reference_roots = [], []

    def _solve(self, case):
        case.objective.reset_counters()
        start = time.perf_counter()
        sol = self.om.parallel_greedy(case.objective, case.polytope, case.config)
        elapsed = time.perf_counter() - start
        return sol, elapsed, (case.objective.value_calls, case.objective.gradient_calls)

    def _traced_solve(self, case):
        case.objective.reset_counters()
        with self.tracing.installed(self.tracer, case.objective, case.polytope):
            start = time.perf_counter()
            sol, root = self.tracer.root("solve", self.om.parallel_greedy, case.objective, case.polytope, case.config)
            elapsed = time.perf_counter() - start
        return sol, elapsed, (case.objective.value_calls, case.objective.gradient_calls), root

    def _solve_pair(self, case):
        """Untraced and traced solve of one case, alternating which goes first."""
        untraced_first = self.attempted % 2 == 0
        if untraced_first:
            sol, elapsed, calls = self._solve(case)
        traced, traced_elapsed, traced_calls, root = self._traced_solve(case)
        if not untraced_first:
            sol, elapsed, calls = self._solve(case)
        self.traced_solve_s.append(traced_elapsed)
        self.traced_solves.append((root, sol.trace.inner_rounds, sol.trace.outer_rounds))
        reasons = []
        if self._fingerprint(traced, traced_calls) != self._fingerprint(sol, calls):
            reasons.append("traced solve differs from untraced solve")
        spans = tuple(self.tracing.span_calls(self.tracer, root, n) for n in ("objectives.value", "objectives.gradient"))
        if spans != traced_calls:
            reasons.append(f"span counts {spans} != oracle counters {traced_calls}")
        return sol, elapsed, calls, reasons

    def _reference(self, case):
        """(reference value, upper bound, seconds timed for the reference)."""
        if not case.grid_resolution:
            start = time.perf_counter()
            lower, upper = self.om.opt_bounds(case.objective, case.polytope)
            return lower, upper, time.perf_counter() - start
        solvers = self.om.solvers
        start = time.perf_counter()
        if self.trace:
            with self.tracing.installed(self.tracer, case.objective, case.polytope):
                ref, root = self.tracer.root(
                    "reference", solvers.grid_maximum, case.objective, case.polytope, case.grid_resolution
                )
            self.reference_roots.append(root)
        else:
            ref = solvers.grid_maximum(case.objective, case.polytope, case.grid_resolution)
        elapsed = time.perf_counter() - start
        return ref, self.om.opt_bounds(case.objective, case.polytope)[1], elapsed

    def _checks(self, case, sol, calls):
        """Hard checks on one solution; returns the reasons it failed."""
        reasons = []
        if not case.polytope.contains(sol.x):
            reasons.append("infeasible x")
        if (sol.trace.value_queries, sol.trace.gradient_queries) != calls:
            reasons.append(f"trace counters {sol.trace.value_queries}/{sol.trace.gradient_queries} != oracle {calls}")
        fx = case.objective.value(sol.x)
        if abs(sol.value - fx) > VALUE_RTOL * (1.0 + abs(fx)):
            reasons.append(f"reported value {sol.value!r} != F(x) {fx!r}")
        return reasons

    @staticmethod
    def _fingerprint(sol, calls):
        t = sol.trace
        return (sol.x.tobytes(), sol.value, t.adaptive_rounds, t.value_queries, t.gradient_queries,
                t.inner_rounds, t.outer_rounds, calls)

    def _failed(self, key, case, exc, first):
        self.failures.append((key, case.label, f"{type(exc).__name__}: {exc}"))
        if first:
            self.passed.append(False)

    def _solve_round(self, g, cases, live, results, first):
        """Solve each live case once; returns the seconds timed.

        A case's first solve is checked in full.  Each later solve of it
        must reproduce the first bit for bit.
        """
        spent = 0.0
        for i in live:
            case = cases[i]
            try:
                if self.trace:
                    sol, elapsed, calls, reasons = self._solve_pair(case)
                else:
                    (sol, elapsed, calls), reasons = self._solve(case), []
                spent += elapsed
                self.solve_times.append(elapsed)
                if i not in results:
                    reasons += self._checks(case, sol, calls)
                    results[i] = (sol, calls, reasons, [elapsed])
                    continue
                first_sol, first_calls, reasons, times = results[i]
                times.append(elapsed)
                if self._fingerprint(sol, calls) != self._fingerprint(first_sol, first_calls):
                    reasons.append(f"solve {len(times)} differs from the first")
            except Exception as exc:  # noqa: BLE001 - a raising solve is a counted failure
                results.pop(i, None)
                self._failed((g, i), case, exc, first)
        return spent

    def group(self, g, builders, first, builds, resolve_share):
        """Build, solve and check one group of cases.

        The group is built ``builds`` times and gives one set-up sample, the
        median of those builds' mean time per case.  Its cases are solved
        once and checked, then given their references.  After each
        reference, further rounds of solves of the whole group run until
        solving has taken ``resolve_share`` of the reference time so far, so
        the solves of a desk group, each well under a millisecond, are
        spread over the seconds its grid references take.  The group gives
        one solve sample: the mean over its cases of each case's median
        solve time.
        """
        self.attempted += len(builders)
        samples = []
        for _ in range(builds):
            cases = None  # drop the previous build before timing the next
            start = time.perf_counter()
            cases = [build() for build in builders]
            samples.append((time.perf_counter() - start) / len(builders))
        self.setup_s.append(statistics.median(samples))
        results = {}  # case index -> (first solution, oracle calls, failure reasons, solve times)
        solving = self._solve_round(g, cases, range(len(cases)), results, first)
        references, referencing = {}, 0.0
        for i in list(results):
            if i not in results:
                continue  # a repeat solve of it raised
            try:
                ref, upper, ref_elapsed = self._reference(cases[i])
            except Exception as exc:  # noqa: BLE001 - a raising reference is a counted failure
                results.pop(i)
                self._failed((g, i), cases[i], exc, first)
                continue
            references[i] = (ref, upper)
            self.reference_s.append(ref_elapsed)
            referencing += ref_elapsed
            while results and solving < resolve_share * referencing:
                solving += self._solve_round(g, cases, list(results), results, first)
        if results:
            self.solve_s.append(statistics.mean(statistics.median(t) for _, _, _, t in results.values()))
        for i, (sol, calls, reasons, _) in results.items():
            self._record((g, i), cases[i], sol, calls, reasons, *references[i], first)

    def _record(self, key, case, sol, calls, reasons, ref, upper, first):
        fingerprint = self._fingerprint(sol, calls)
        if first:
            self.fingerprints[key] = fingerprint
            ratio = self.om.guaranteed_ratio(case.config)
            missed = sol.value < ratio * ref
            if missed:
                self.misses.append((key, case.label, sol.value / ref, ratio))
            self.passed.append(not (reasons or missed))
            self.first_pass.append(
                {
                    "ratio_to_upper": sol.value / upper,
                    "ratio_to_ref": sol.value / ref,
                    "adaptive_rounds": sol.trace.adaptive_rounds,
                    "value_queries": sol.trace.value_queries,
                    "gradient_queries": sol.trace.gradient_queries,
                }
            )
        elif self.fingerprints.get(key) != fingerprint:
            reasons.append("repeat solve of the same case differs")
        if reasons:
            self.failures.append((key, case.label, "; ".join(reasons)))


def run_workload(om, workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, human-readable lines)."""
    warm = workload.warmup()
    om.parallel_greedy(warm.objective, warm.polytope, warm.config)
    del warm

    cost = workload.group_cost_s * (TRACED_COST if trace else 1.0)
    groups = max(1, int(FILL * seconds / cost))
    builds, resolve_share = (1, 0.0) if trace else (workload.builds, workload.resolve_share)
    run = Run(om, trace)
    start = time.perf_counter()
    passes = 0
    while True:
        for g in range(groups):
            # The objectives hold reference cycles (their oracles are lambdas
            # over self), so a finished instance lingers until the cyclic
            # collector runs; collecting here, untimed, keeps one large
            # instance alive at a time.
            gc.collect()
            run.group(g, workload.groups(seed, g), passes == 0, builds, resolve_share)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break

    failed = len(run.failures)  # one record per failing solve
    lines = [f"# {workload.name} seed={seed} trace={int(trace)} cases={len(run.passed)} passes={passes} "
             f"solves={len(run.solve_times)} measured={elapsed:.2f}s", f"# env {environment()}"]
    for key, label, reason in run.failures:
        lines.append(f"# FAILED seed={seed} case={key} {label}: {reason}")
    for key, label, ratio_to_ref, ratio in run.misses:
        lines.append(f"# MISS seed={seed} case={key} {label}: value/reference {ratio_to_ref:.4f} < guarantee {ratio:.4f}")

    if not run.first_pass:
        metrics = {}  # nothing solved: no figure to report
    elif trace:
        metrics = run.tracing.layer_metrics(
            run.tracer, run.traced_solves, run.reference_roots, run.solve_times, run.traced_solve_s
        )
    else:
        fp = run.first_pass
        metrics = {
            "setup_s": statistics.median(run.setup_s),
            "solve_s": statistics.median(run.solve_s),
            "reference_s": statistics.median(run.reference_s),
            "ratio_to_upper": statistics.median(c["ratio_to_upper"] for c in fp),
            "ratio_to_ref_min": min(c["ratio_to_ref"] for c in fp),
            "passed_frac": sum(run.passed) / len(run.passed),
            "adaptive_rounds": statistics.mean(c["adaptive_rounds"] for c in fp),
            "value_queries": statistics.mean(c["value_queries"] for c in fp),
            "gradient_queries": statistics.mean(c["gradient_queries"] for c in fp),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tail = tail_percentile(run.solve_times)
        lines.append(
            f"# solve_s {metrics['solve_s']:.6f}s: median over {len(run.solve_s)} group samples, each the mean "
            f"per-case median solve time; single solves: median "
            f"{statistics.median(run.solve_times):.6f}s over {len(run.solve_times)}, "
            + (f"p{tail[0]} {tail[1]:.6f}s" if tail else "too few for a tail percentile")
        )
    units = {m["name"]: m["unit"] for m in bench_spec()["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    om = load_package()
    from workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    result, lines = run_workload(om, workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
