# Learning a gradient descent step size by exhaustive search over a finite net.
#
# Iteration counts are not Lipschitz in the step size, but they change by at
# most 1 between net points spaced K apart, so the net's empirical minimizer
# is within one iteration of the best step size in the whole interval.  Each
# sample's count is a step function of the step size, so that best step size
# is also found exactly and printed beside the net's.  The verifier hammers
# the three inequalities the net argument rests on with random instances and
# step-size pairs.
#
# Run: python3 demos/stepsize_tuning.py

import numpy as np

from algoselect.core import StepFunctions
from algoselect.gdtune import (GdFamily, erm_stepsize, knet, random_instance, run_gd, step_functions,
                               verify_lemmas)

family = GdFamily(rho_l=0.1, rho_u=0.4, L=4.0, m_sc=1.0, c=0.1, Z=1.0, nu=0.01)
print(f"iteration bound H = {family.H:.2f}, net spacing K = {family.K:.2e}")

net = knet(family)
print(f"net size |N| = {net.size} on [{family.rho_l}, {family.rho_u}]")

rng = np.random.default_rng(0)
samples = [random_instance(family, dim=3, rng=rng) for _ in range(40)]
rho_star, report = erm_stepsize(family, samples, net=net)
print(f"best net step size {rho_star:.4f}: mean iterations {report.train_mean:.2f}")
f = step_functions(family, samples)
rho_exact, total = StepFunctions(f.points, f.offsets, -f.values).argmax_sum(family.rho_l, family.rho_u)
print(f"best step size in [{family.rho_l}, {family.rho_u}] {rho_exact:.4f}: mean iterations "
      f"{-total / len(samples):.2f} ({f.points.size} change points)")
print(f"smallest admissible step {family.rho_l}: mean iterations "
      f"{np.mean([run_gd(family, family.rho_l, x) for x in samples]):.2f}")

result = verify_lemmas(family, trials=2000, seed=1)
print(f"\nverifier: {result.trials} random trials, violations = {len(result.violations)}")
print(f"  tightest single-step expansion ratio: {result.max_single_step_ratio:.3f} (bound 1.0)")
print(f"  tightest path-drift ratio:            {result.max_drift_ratio:.3f} (bound 1.0)")
print(f"  largest iteration-count gap within K: {result.max_cost_gap} (bound 1)")
