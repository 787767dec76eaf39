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
from algoselect.epm import fit_linear_epm, fit_selection_table, mwis_feature_map, select_per_instance
from algoselect.greedy import greedy_cost, mwis_family, random_mwis_instance, scalar_costs

rng = np.random.default_rng(11)
portfolio = [0.0, 0.5, 1.0]  # value-greedy, mixed, density-greedy
fam = mwis_family(12)
fmap = mwis_feature_map()

# Mix two populations so no single parameter dominates: near-edgeless graphs
# make the orderings tie (smallest parameter wins), dense graphs reward
# density ordering.
def draw(count):
    return [random_mwis_instance(12, rng.choice([0.04, 0.7]), rng) for _ in range(count)]

train, holdout = draw(250), draw(300)
costs = scalar_costs(fam, train, portfolio)
epms = [fit_linear_epm(rho, train, row, fmap) for rho, row in zip(portfolio, costs)]
for epm in epms:
    print(f"rho={epm.algorithm_index}: training MSE {epm.train_loss:.5f}, "
          f"coefficients {np.round(epm.coef, 3)}")

best_fixed = erm_costs(portfolio, costs, MAXIMIZE).chosen
fixed_total = np.mean([greedy_cost(fam, best_fixed, x) for x in holdout])
epm_total = np.mean([
    greedy_cost(fam, select_per_instance(epms, x, fmap, MAXIMIZE), x) for x in holdout
])
oracle_total = np.mean([max(greedy_cost(fam, r, x) for r in portfolio) for x in holdout])
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
