# How much data does selecting an algorithm need?  Sample-size bounds from the
# richness of the family, and a brute-force probe certifying richness from below.
#
# A set of instances is shattered when, for some per-instance thresholds,
# every above/below labeling is realized by some family member.  The largest
# shattered set size drives the uniform-convergence sample bound.
#
# Run: python3 demos/pseudo_dimension_probe.py

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import numpy as np

from _fixtures import crafted_shatter_pair
from algoselect.core import sample_size, shatter_probe
from algoselect.greedy import mwis_family, piece_costs

print("uniform-convergence sample sizes, cost range H=1, failure probability 1%:")
for d in (1, 4, 16):
    for eps in (0.1, 0.05):
        m = sample_size(epsilon=eps, delta=0.01, H=1.0, d=d)
        print(f"  dimension proxy d={d:>2}, target error {eps}: m = {m}")

# Two hand-built 6-vertex graphs whose greedy values step up and down on
# different parameter windows; together they realize all four labelings.
first, second = crafted_shatter_pair()
family = mwis_family(6)
# One candidate parameter per piece of the two value step functions.
rhos, costs = piece_costs(family, [first, second])
print(f"\nprobing a 2-instance set with {rhos.size} candidate parameters: {rhos.round(4)}")
(report,) = shatter_probe(costs, [[0, 1]])
print(f"  shattered: {report.shattered} ({report.labeling_count}/4 labelings)")
print(f"  witness thresholds: {np.round(report.witnesses, 4)}")

print("  labelings realized at those witnesses:")
for pattern in sorted({tuple(row) for row in (costs > np.asarray(report.witnesses))}):
    print(f"    {tuple(int(b) for b in pattern)}")
