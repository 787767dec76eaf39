"""Reference computations the benchmark checks algoselect's outputs against.

Everything here is written apart from the library under `src/`: plain
greedy runs in Python loops, a vectorized gradient-descent recurrence over a
whole step-size net, an independent-set edge scan, the K-net formula, and the
CLI's documented train/holdout split.  `self_test` checks each of them on
hand-built cases whose answers are known before any workload trusts them.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# Relative tolerance for comparing a reported float with a reference float.
# Both sides sum the same handful of weights in a different order, so they
# agree to a few ulps; distinct greedy solutions differ by far more.
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Greedy heuristics
# ---------------------------------------------------------------------------


def _score_order(keys) -> list[int]:
    """Indices by nonincreasing key, ties toward the smaller index."""
    return sorted(range(len(keys)), key=lambda i: (-keys[i], i))


def knapsack_greedy(values, sizes, capacity, rho) -> list[int]:
    """Pack items by nonincreasing log-space score ln v - rho ln s."""
    keys = (np.log(np.asarray(values, float)) - float(rho) * np.log(np.asarray(sizes, float))).tolist()
    chosen, resid = [], float(capacity)
    for i in _score_order(keys):
        if sizes[i] <= resid:
            chosen.append(i)
            resid -= sizes[i]
    return sorted(chosen)


def knapsack_value(values, sizes, capacity, rho) -> float:
    return math.fsum(values[i] for i in knapsack_greedy(values, sizes, capacity, rho))


def adjacency(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def mwis_greedy(weights, adj: list[set], rho, adaptive: bool) -> list[int]:
    """Greedy MWIS by score ln w - rho ln(1 + degree), ties toward the smaller id.

    Non-adaptive: degrees stay at their initial values and a vertex is taken
    when no neighbour was taken before it.  Adaptive: each step takes the
    best-scoring vertex of the residual graph, then deletes it and its
    neighbours, and scores use residual degrees.
    """
    n = len(weights)
    logw = np.log(np.asarray(weights, float))
    rho = float(rho)
    if not adaptive:
        degrees = np.asarray([len(a) for a in adj], float)
        keys = (logw - rho * np.log1p(degrees)).tolist()
        chosen: set = set()
        for v in _score_order(keys):
            if not adj[v] & chosen:
                chosen.add(v)
        return sorted(chosen)
    alive = set(range(n))
    chosen = []
    while alive:
        residual = {v: len(adj[v] & alive) for v in alive}
        best = None
        for v in sorted(alive):
            key = logw[v] - rho * math.log1p(residual[v])
            if best is None or key > best[0]:
                best = (key, v)
        v = best[1]
        chosen.append(v)
        alive -= adj[v] | {v}
    return sorted(chosen)


def mwis_value(weights, adj, rho, adaptive: bool) -> float:
    return math.fsum(weights[v] for v in mwis_greedy(weights, adj, rho, adaptive))


def is_independent(n: int, edges, chosen) -> bool:
    """Edge scan: no edge has both endpoints in `chosen`."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(list(chosen), dtype=np.int64)] = True
    return not bool((mask[edges[:, 0]] & mask[edges[:, 1]]).any())


def mwis_crossings(weights, degrees, lo: float, hi: float) -> np.ndarray:
    """Parameters in [lo, hi] where two non-adaptive vertex scores tie.

    Scores w / (1+d)^rho of two vertices cross once, at
    ln(w1/w2) / ln((1+d1)/(1+d2)), when their degrees differ.
    """
    w = np.asarray(weights, float)
    d = np.log1p(np.asarray(degrees, float))
    iu = np.triu_indices(w.size, k=1)
    den = d[iu[0]] - d[iu[1]]
    keep = den != 0
    roots = (np.log(w[iu[0]][keep]) - np.log(w[iu[1]][keep])) / den[keep]
    return np.unique(roots[(roots >= lo) & (roots <= hi)])


def mwis_step_function(weights, adj, lo: float, hi: float):
    """Non-adaptive greedy value as a step function of rho on [lo, hi].

    Returns (crossings, piece values): piece k is the open interval between
    consecutive points of [lo, crossings..., hi], valued at its midpoint.
    """
    degrees = [len(a) for a in adj]
    tau = mwis_crossings(weights, degrees, lo, hi)
    tau = tau[(tau > lo) & (tau < hi)]
    grid = np.concatenate([[lo], tau, [hi]])
    mids = (grid[:-1] + grid[1:]) / 2.0
    return tau, np.asarray([mwis_value(weights, adj, r, False) for r in mids])


# ---------------------------------------------------------------------------
# Gradient descent on diagonal quadratics
# ---------------------------------------------------------------------------


def gd_iterations(lambdas, z0, rhos, nu: float, cap: int) -> np.ndarray:
    """Iteration counts of z <- z - rho * lambda * z for every rho at once.

    A row stops once ||z|| <= nu; rows still running after `cap` steps raise.
    """
    lam = np.asarray(lambdas, float)
    rhos = np.asarray(rhos, float)
    z = np.tile(np.asarray(z0, float), (rhos.size, 1))
    counts = np.zeros(rhos.size, dtype=np.int64)
    active = np.sqrt((z * z).sum(axis=1)) > nu
    steps = 0
    while active.any():
        if steps >= cap:
            raise ArithmeticError(f"reference recurrence still running after {cap} steps")
        idx = np.flatnonzero(active)
        z[idx] = z[idx] - rhos[idx, None] * (lam * z[idx])
        counts[idx] += 1
        steps += 1
        active[idx] = np.sqrt((z[idx] * z[idx]).sum(axis=1)) > nu
    return counts


def k_spacing(L, c, Z, nu, rho_u) -> tuple[float, float]:
    """(K, H): the net spacing nu c^2 / (L Z) * D(rho_u)^-H with
    D(rho) = max(1, L rho - 1), and the iteration bound H = ln(nu/Z) / ln(1-c)."""
    H = math.log(nu / Z) / math.log(1.0 - c)
    return nu * c**2 / (L * Z) * max(1.0, L * rho_u - 1.0) ** (-H), H


def k_net(rho_l, rho_u, K) -> np.ndarray:
    """The K-net: multiples of K inside [rho_l, rho_u] plus both ends, with
    points closer than float noise (1e-9 relative) kept once."""
    ks = range(math.ceil(rho_l / K - 1e-9), math.floor(rho_u / K + 1e-9) + 1)
    points = sorted([rho_l, rho_u] + [min(max(k * K, rho_l), rho_u) for k in ks])
    kept = [points[0]]
    for p in points[1:]:
        if p - kept[-1] > 1e-9 * max(1.0, abs(p)):
            kept.append(p)
    return np.asarray(kept)


# ---------------------------------------------------------------------------
# The CLI's documented labeled random streams
# ---------------------------------------------------------------------------


def labeled_generator(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    entropy = (int(seed) & ((1 << 64) - 1), int.from_bytes(digest[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def train_holdout_split(count: int, seed: int, frac: float) -> tuple[list[int], list[int]]:
    """Instance positions (in file-name order) of the training and holdout sets."""
    if count < 2 or frac <= 0:
        return list(range(count)), []
    order = labeled_generator(seed, "train-holdout-split").permutation(count)
    cut = max(1, int(round(count * (1 - frac))))
    return [int(i) for i in order[:cut]], [int(i) for i in order[cut:]]


# ---------------------------------------------------------------------------
# The nested-window hard instance, built from its definition
# ---------------------------------------------------------------------------


def hard_instance(m: int, r: Fraction, s: Fraction):
    """(weights, edges, mass ids) of the three-layer graph for window (r, s].

    Hubs (m^2-2) are complete to the mass layer (m^3-1); star centers
    (m^2+m+1) each touch m-1 mass vertices.  Weights t m^r, t, t m^-s with
    t = 1/(m^3-1).
    """
    a, b, c = m * m - 2, m**3 - 1, m * m + m + 1
    t = 1.0 / b
    weights = [t * m ** float(r)] * a + [t] * b + [t * m ** -float(s)] * c
    edges = [(h, a + k) for h in range(a) for k in range(b)]
    edges += [(a + k, a + b + k // (m - 1)) for k in range(b)]
    return weights, edges, list(range(a, a + b))


def self_test() -> list[str]:
    """Check every reference on hand-built cases; returns failure messages."""
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    # Knapsack tie repro: equal-value items tie exactly at rho = 0.
    s1 = ([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], 2.0)
    s2 = ([2.0, 1.5], [2.0, 1.0], 2.0)
    for rho, mean in ((0.0, 1.5), (0.2, 2.0), (1.0, 1.75)):
        got = (knapsack_value(*s1, rho) + knapsack_value(*s2, rho)) / 2
        expect(got == mean, f"knapsack reference: mean {got} at rho={rho}, expected {mean}")

    # Star with center weight 0.6 and leaves 0.5: scores cross at
    # ln(1.2) / ln(1.5) ~ 0.45; the center wins below, both leaves above.
    star = adjacency(3, [(0, 1), (0, 2)])
    for adaptive in (False, True):
        expect(mwis_greedy([0.6, 0.5, 0.5], star, 0.0, adaptive) == [0],
               "MWIS reference: star center not taken at rho=0")
        expect(mwis_greedy([0.6, 0.5, 0.5], star, 1.0, adaptive) == [1, 2],
               "MWIS reference: star leaves not taken at rho=1")
    tau, pieces = mwis_step_function([0.6, 0.5, 0.5], star, 0.0, 1.0)
    expect(tau.size == 1 and close(tau[0], math.log(1.2) / math.log(1.5))
           and pieces.tolist() == [0.6, 1.0], "MWIS step function: wrong star crossing")

    # Hard instance with window (1/4, 3/4]: exactly the mass layer inside.
    m, r, s = 3, Fraction(1, 4), Fraction(3, 4)
    weights, edges, mass = hard_instance(m, r, s)
    adj = adjacency(len(weights), edges)
    outside = (m * m - 2) * weights[0] + (m * m + m + 1) * weights[-1]
    for adaptive in (False, True):
        expect(mwis_greedy(weights, adj, 0.5, adaptive) == mass,
               f"hard instance (adaptive={adaptive}): mass layer not chosen at rho=1/2")
        for rho in (0.1, 0.9):
            got = mwis_value(weights, adj, rho, adaptive)
            expect(close(got, outside), f"hard instance: value {got} at rho={rho}, expected {outside}")
    expect(close(mwis_value(weights, adj, 0.5, False), 1.0), "hard instance: mass layer not worth 1")

    # Edge scan on a triangle.
    tri = np.array([[0, 1], [1, 2], [0, 2]])
    expect(is_independent(3, tri, [0]) and not is_independent(3, tri, [0, 1]), "edge scan: triangle")

    # Gradient descent: z_k = 0.5^k, first below 0.01 at k = 7; 0.75^k at k = 17.
    counts = gd_iterations([1.0], [1.0], [0.5, 0.25], 0.01, 100).tolist()
    expect(counts == [7, 17], f"GD reference: counts {counts}, expected [7, 17]")
    K, H = k_spacing(4.0, 0.1, 1.0, 0.01, 0.4)
    net = k_net(0.1, 0.4, K)
    expect(close(K, 2.5e-5) and net.size == 12001 and net[0] == 0.1 and net[-1] == 0.4,
           f"K-net reference: K={K}, {net.size} points")
    return failures
