# Online selection of an independent-set heuristic, one instance at a time.
#
# Two regimes:
#  1. Adversarial: nested parameter windows shrink geometrically; only step
#     sizes inside the final (astronomically thin) window score well at every
#     step, and no learner can track it.  Window endpoints are exact
#     rationals, so the construction survives horizons where float arithmetic
#     would collapse.
#  2. Smoothed: vertex weights get a little independent noise.  Costs are then
#     piecewise constant with well-separated transition points, a finite net
#     matches the continuum, and exponential weights over the net have
#     vanishing regret.
#
# Run: python3 demos/online_regret.py

import math
from fractions import Fraction

from algoselect.online import (
    adversary_sequence,
    erdos_renyi_generator,
    run_adversary_online,
    run_smoothed_online,
    theoretical_q,
    uniform_smooth_spec,
)


def scientific(x: Fraction) -> str:
    """A positive rational in scientific notation, via its base-10 logarithm
    (float(x) underflows to 0 once x is below about 1e-308)."""
    lg = math.log10(x.numerator) - math.log10(x.denominator)
    exponent = math.floor(lg)
    return f"{10 ** (lg - exponent):.3f}e{exponent:+d}"


print("adversarial nested windows (budget 1500 vertices, T = 120):")
params = adversary_sequence(1500, 120, seed=0)
print(f"  graph size n = {params[0].n}, final window width = {scientific(params[-1].s - params[-1].r)}")
trace = run_adversary_online(1500, T=120, seed=0)
print(f"  learner collected {trace.cum_cost[-1]:.2f} out of a hindsight optimum {trace.best_ref_total:.2f}")
print(f"  average regret vs the surviving window: {trace.avg_regret_ref:.3f}")

print("\nsmoothed weights on random graphs (n = 8, T = 2000, net of 2000 points):")
spec = uniform_smooth_spec(8, sigma=0.25)
gen = erdos_renyi_generator(8, 0.3)
trace = run_smoothed_online(spec, gen, T=2000, seed=0, net=2000)
print(f"  best fixed net point in hindsight: rho = {trace.best_net_rho:.4f} "
      f"(total {trace.best_net_total:.1f})")
print(f"  exact best piece of the summed step functions: rho = {trace.best_ref_rho:.4f} "
      f"(total {trace.best_ref_total:.1f})")
print(f"  average regret vs the net: {trace.avg_regret:.4f}")
print(f"  theoretical net spacing q for these parameters: {theoretical_q(8, 0.25):.2e}")

print("\nregret trace tail (CSV emitted by the `algoselect online` subcommand):")
print("\n".join(trace.to_csv().strip().split("\n")[-3:]))
