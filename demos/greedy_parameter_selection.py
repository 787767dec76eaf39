# Picking the best member of a one-parameter greedy family from sample instances.
#
# The score families v/s^rho (knapsack) and w/(1+deg)^rho (independent set)
# interpolate between value-greedy (rho=0) and density-greedy behavior.  Two
# parameters that differ by 1e-9 can produce totally different runs, so a grid
# can silently miss the best region; instead we enumerate every parameter
# where two item scores cross, keep the points where some sample's value
# changes, and test both endpoints plus one candidate per piece between them.
#
# Run: python3 demos/greedy_parameter_selection.py

import numpy as np

from algoselect.greedy import (
    KnapsackInstance,
    erm_breakpoint,
    knapsack_family,
    mwis_family,
    piece_costs,
    random_mwis_instance,
    run_greedy,
    step_functions,
)

# A two-item knapsack where the two orderings disagree: value order packs the
# big item (value 4), density order packs the small one first and locks the
# big one out.
family = knapsack_family(2, interval=(0.0, 2.0))
instance = KnapsackInstance(values=[4.0, 3.0], sizes=[4.0, 1.0], capacity=4.0)
for rho in (0.0, 1.0):
    solution, cost = run_greedy(family, rho, instance)
    print(f"knapsack rho={rho}: picked items {solution}, value {cost.value}")

rhos, costs = piece_costs(family, [instance])
print(f"value changes on this instance:  {step_functions(family, [instance]).points.round(6)}")
print(f"candidates probed by ERM:         {rhos.round(6)}")
print(f"their values:                     {costs[:, 0]}")

rho_star, report = erm_breakpoint(family, rhos, costs)
print(f"best parameter {rho_star:.4f} with mean value {report.train_mean}\n")

# The same machinery on a batch of independent-set instances, with a held-out
# split to estimate how well the choice generalizes.
rng = np.random.default_rng(7)
train = [random_mwis_instance(10, 0.35, rng) for _ in range(12)]
holdout = [random_mwis_instance(10, 0.35, rng) for _ in range(50)]
fam = mwis_family(10, adaptive=True)
rhos, costs = piece_costs(fam, train)  # lo, one rho inside every piece, hi
rho_star, report = erm_breakpoint(fam, rhos, costs, holdout)
print(f"MWIS (adaptive degrees): {rhos.size} candidate rhos for 12 samples")
print(f"chosen rho = {rho_star:.4f}")
print(f"training mean weight   = {report.train_mean:.4f}")
print(f"held-out mean weight   = {report.holdout_mean:.4f}")
print(f"estimated error vs the best rho on the held-out set = {report.estimated_error:.4f}")
