"""Walkthrough: sample access, the momentum estimator, and the noisy solver.

Run: python demos/stochastic_solver.py
"""

import math

import numpy as np

from ossmax import (
    BoxPolytope,
    SolverConfig,
    StochasticObjective,
    kappa_envelope,
    make_coverage_instance,
    parallel_greedy,
    stochastic_parallel_greedy,
    update_gradient_estimate,
)

objective = make_coverage_instance(n=6, m=8, density=0.4, seed=3)
box = BoxPolytope(6, 1.0)

print("=" * 70)
print("1. The momentum estimator tracks the gradient through noise")
print("=" * 70)

theta = 0.5
x = np.full(6, 0.3)
target = objective.gradient(x)
sampler = StochasticObjective(objective, theta=theta, seed=0)

estimate = np.zeros(6)
print("updates   ||estimate - gradient||")
for t in range(200):
    estimate = update_gradient_estimate(estimate, sampler.sample_gradient(x), float(t))
    if t + 1 in (1, 5, 20, 50, 200):
        gap = float(np.linalg.norm(estimate - target))
        print(f"  {t + 1:4d}    {gap:.4f}")

print()
print("the matching variance envelope at those times "
      "(constants: theta=0.5, L=6, D=sqrt(6)):")
for t in (1, 5, 20, 50, 200):
    print(f"  t={t:4d}  kappa={kappa_envelope(t, theta, 6.0, math.sqrt(6)):.4f}")

print()
print("=" * 70)
print("2. Zero noise: the stochastic solver shadows the deterministic one")
print("=" * 70)

cfg = SolverConfig(epsilon=0.1, spg_batch=8)
deterministic = parallel_greedy(objective, box, cfg)
shadow = stochastic_parallel_greedy(StochasticObjective(objective, 0.0, seed=1), box, cfg)
print(f"deterministic value {deterministic.value:.4f}")
print(f"stochastic value    {shadow.value:.4f}  (theta = 0)")

print()
print("=" * 70)
print("3. Real noise widens the per-step gain requirement")
print("=" * 70)

# With noise the step test carries a sqrt(kappa) * n / mu slack, so the
# solver only accepts steps whose measured gain beats threshold plus slack.
for theta in (0.1, 0.25):
    cfg_noisy = SolverConfig(
        epsilon=0.1,
        spg_batch=64,
        noise_theta=theta,
        lipschitz_L=1.0,
        diameter_D=math.sqrt(6),
    )
    noisy = stochastic_parallel_greedy(
        StochasticObjective(objective, theta, seed=2), box, cfg_noisy
    )
    kappa = kappa_envelope(noisy.t_final, theta, 1.0, math.sqrt(6))
    print(f"theta={theta:>4}: value {noisy.value:.4f}, fill {noisy.t_final:.3f}, "
          f"final envelope {kappa:.4f}, batches {noisy.trace.value_queries}")
print()
print("larger presumed variance means a larger envelope, hence more")
print("conservative steps; the guarantee degrades by O(sqrt(kappa)).")
