# Choosing an algorithm per instance instead of per domain.
#
# Fit one linear cost predictor per algorithm from instance features, then run
# whichever algorithm the predictors favor on each new instance.  With a
# finite feature, the simpler route is a selection table: independent ERM
# within each feature value.
#
# Run: python3 demos/per_instance_selection.py

import numpy as np

from algoselect.core import MAXIMIZE, erm_costs
from algoselect.epm import fit_linear_epms, fit_selection_table, mwis_feature_map, select_per_instance
from algoselect.greedy import cost_matrix, mwis_family, random_mwis_instance

rng = np.random.default_rng(11)
portfolio = [0.0, 0.5, 1.0]  # value-greedy, mixed, density-greedy
fam = mwis_family(12)
fmap = mwis_feature_map()

# Mix two populations: near-edgeless graphs make the orderings tie, dense
# graphs reward density ordering.  Even so, density ordering (rho = 1) wins
# on both: the predictor does no better than the best fixed rho, the
# selection table picks rho = 1 for either feature value, and the
# per-instance oracle gains under 1% on it.
def draw(count):
    return [random_mwis_instance(12, rng.choice([0.04, 0.7]), rng) for _ in range(count)]

train, holdout = draw(250), draw(300)
costs = cost_matrix(fam, train, portfolio)
epms = fit_linear_epms(portfolio, train, costs, fmap)
for epm in epms:
    print(f"rho={epm.algorithm_index}: training MSE {epm.train_loss:.5f}, "
          f"coefficients {np.round(epm.coef, 3)}")

# Every portfolio member's value on every held-out graph, one row per member.
held = cost_matrix(fam, holdout, portfolio)
best_fixed = erm_costs(portfolio, costs, MAXIMIZE).chosen
fixed_total = np.mean(held[portfolio.index(best_fixed)])
epm_total = np.mean([
    held[portfolio.index(select_per_instance(epms, x, fmap, MAXIMIZE)), j] for j, x in enumerate(holdout)
])
oracle_total = np.mean(held.max(axis=0))
print(f"\nheld-out mean weight: best fixed rho ({best_fixed}) = {fixed_total:.4f}")
print(f"                      predictor-selected        = {epm_total:.4f}")
print(f"                      per-instance oracle       = {oracle_total:.4f}")

# The table route with an explicit binary feature (sparse vs dense).
table = fit_selection_table(
    ["sparse", "dense"],
    ["sparse" if x.edges.shape[0] < 20 else "dense" for x in train],
    portfolio, costs, MAXIMIZE,
)
print(f"\nselection table: {table.mapping} (unobserved values defaulted: {list(table.defaulted)})")
