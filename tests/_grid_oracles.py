"""Dense-grid greedy evaluators and the crossing superset, used by the tests as oracles.

Each evaluator gives the greedy solutions (or values) of one instance for a
whole array of rho at once.  They share no code with the scalar `run_greedy`,
so the two cross-check each other, and the library's step functions are
checked against both.  The non-adaptive MWIS path is the library's
`_nonadaptive_masks` on one graph; the adaptive one recomputes residual
degrees with one matrix product per selection round.

`scalar_costs` is one scalar `greedy_cost` per cell of a (rhos x samples)
matrix, the oracle for the library's batched `cost_matrix` and for the
costs `piece_costs` reads off its step functions.

`crossing_superset` enumerates every score crossing of each sample, pair by
pair, without the library's enumerators, so oracle grids sized from it do not
depend on the code they check.

`superset_step_functions` cuts every step of a smoothed block at its own
crossings and at each transition point next to a sliver of the full superset
(pairs x canonical denominators), the oracle for the online runner, which
builds the superset only for the steps its sliver test flags.
`min_pairwise_gap` is the smallest gap of a point set.

`NetHedgeLearner` is Hedge with one weight per net point, the oracle for the
library's learner, which keeps one weight per cell of equal-gain points.

`scalar_sort` is the bucket sorter one key and one comparison at a time: it
walks each key down its position's tree (`route`) and insertion-sorts the
buckets (`insertion_sort`), counting as it goes.  It is the oracle for the
library's `sort`, which reads its counts from a routing table and from ranks.

`adjacency_matrix` and `total_weight` read an `MwisInstance` the plain way,
for tests that need its dense adjacency or its weight sum;
`is_independent_set` and `knapsack_feasible` check a solution the plain way.

`per_vertex_exact_order` sorts one exact Fraction score per vertex
(`per_vertex_exact_keys`), and
`per_vertex_first_fit` runs first fit along it one vertex at a time: the
oracle for the library's exact runs, which rank only the (exponent, degree)
classes and take a score group at a time.  `hard_cost_at` is the hard
instances' closed-form greedy value.
"""

import math
from fractions import Fraction

import numpy as np

from algoselect.greedy import (_GRID_MAX_N, KnapsackInstance, MwisInstance, ParamGreedyFamily,
                               _graph_lanes, _nonadaptive_crossings, _nonadaptive_masks, _piece_values,
                               _rows_within, greedy_cost)
from algoselect.online import _SLIVER, HardInstanceParams, _transition_rows
from algoselect.sorter import BucketSorter, SortStats, mergesort_count


def adjacency_matrix(instance: MwisInstance) -> np.ndarray:
    """The graph as a dense symmetric (n, n) bool matrix."""
    adj = np.zeros((instance.n, instance.n), dtype=bool)
    if instance.edges.size:
        adj[instance.edges[:, 0], instance.edges[:, 1]] = True
        adj[instance.edges[:, 1], instance.edges[:, 0]] = True
    return adj


def total_weight(instance: MwisInstance) -> float:
    return float(math.fsum(instance.weights))


def is_independent_set(instance: MwisInstance, solution) -> bool:
    """Direct edge scan, independent of any greedy code path."""
    chosen = set(int(v) for v in solution)
    return not any(u in chosen and v in chosen for u, v in instance.edges.tolist())


def knapsack_feasible(instance: KnapsackInstance, solution) -> bool:
    return sum(float(instance.sizes[i]) for i in solution) <= instance.capacity + 1e-12


def per_vertex_exact_keys(instance: MwisInstance, rho: Fraction) -> list[Fraction]:
    """One exact log-base score exponent - rho * log_base(1 + degree) per vertex."""
    base, ks = instance.exact_base, []
    for d in (instance.degrees + 1).tolist():
        k = round(math.log(d, base)) if d > 1 else 0
        assert base**k == d
        ks.append(k)
    return [e - rho * k for e, k in zip(instance.exact_exponents, ks)]


def per_vertex_exact_order(instance: MwisInstance, rho: Fraction) -> list[int]:
    """Exact score order by one Fraction key per vertex, sorted (-key, id)."""
    keys = per_vertex_exact_keys(instance, rho)
    return sorted(range(instance.n), key=lambda v: (-keys[v], v))


def per_vertex_first_fit(instance: MwisInstance, rho: Fraction) -> np.ndarray:
    """The exact non-adaptive greedy's chosen mask, one vertex at a time along
    `per_vertex_exact_order`."""
    instance._build_csr()
    indptr, indices = instance._indptr, instance._indices
    chosen = np.zeros(instance.n, dtype=bool)
    blocked = np.zeros(instance.n, dtype=bool)
    for v in per_vertex_exact_order(instance, rho):
        if not blocked[v]:
            chosen[v] = True
            blocked[indices[indptr[v]:indptr[v + 1]]] = True
    return chosen


def hard_cost_at(params: HardInstanceParams, rho) -> float:
    """Closed-form greedy value of the hard instance; exact window comparisons via rationals.

    At rho == r the hub/mass score tie breaks toward the lower-id hubs
    (outside behavior); at rho == s the mass/star tie breaks toward the mass
    layer (inside behavior).
    """
    rho = Fraction(rho)
    return params.inside_cost() if params.r < rho <= params.s else params.outside_cost()


def mwis_grid_masks(instance: MwisInstance, rhos, adaptive: bool) -> np.ndarray:
    """Greedy solutions for every rho at once, shape (len(rhos), n) bool.

    Dense small-graph implementation (n <= 63), kept deliberately separate
    from `run_greedy` so the two can cross-check each other.
    """
    if instance.n > _GRID_MAX_N:
        raise ValueError(f"grid evaluator supports n <= {_GRID_MAX_N}")
    rhos = np.asarray(rhos, dtype=float).ravel()
    n, m = instance.n, rhos.size
    if not adaptive:
        lanes = _graph_lanes(n, 1, instance.edges, np.zeros(len(instance.edges), dtype=np.intp))
        return _nonadaptive_masks(np.log(instance.weights)[None], *lanes, np.zeros(m, np.intp), rhos)
    logw = np.log(instance.weights)
    adj = adjacency_matrix(instance)
    adj_f = adj.astype(float)
    alive = np.ones((m, n), dtype=bool)
    deg = np.broadcast_to(instance.degrees.astype(float), (m, n)).copy()
    chosen = np.zeros((m, n), dtype=bool)
    rows = np.arange(m)
    for _ in range(n):
        active = alive.any(axis=1)
        if not active.any():
            break
        keys = np.where(alive, logw[None, :] - rhos[:, None] * np.log1p(deg), -np.inf)
        pick = np.argmax(keys, axis=1)
        pick_hot = np.zeros((m, n), dtype=bool)
        pick_hot[rows[active], pick[active]] = True
        chosen |= pick_hot
        removed = alive & (pick_hot | pick_hot @ adj)
        deg -= removed.astype(float) @ adj_f
        alive &= ~removed
    return chosen


def knapsack_grid_masks(instance: KnapsackInstance, rhos) -> np.ndarray:
    rhos = np.asarray(rhos, dtype=float).ravel()
    keys = np.log(instance.values)[None, :] - rhos[:, None] * np.log(instance.sizes)[None, :]
    order = np.argsort(-keys, axis=1, kind="stable")
    m = rhos.size
    resid = np.full(m, instance.capacity)
    chosen = np.zeros((m, instance.n), dtype=bool)
    rows = np.arange(m)
    for pos in range(instance.n):
        cur = order[:, pos]
        fits = instance.sizes[cur] <= resid
        resid -= np.where(fits, instance.sizes[cur], 0.0)
        chosen[rows[fits], cur[fits]] = True
    return chosen


def grid_masks(family: ParamGreedyFamily, rhos, instance) -> np.ndarray:
    if family.kind == "knapsack":
        return knapsack_grid_masks(instance, rhos)
    return mwis_grid_masks(instance, rhos, family.kind == "mwis-adaptive")


def grid_costs(family: ParamGreedyFamily, rhos, instance) -> np.ndarray:
    masks = grid_masks(family, rhos, instance)
    payload = instance.values if family.kind == "knapsack" else instance.weights
    return np.where(masks, payload, 0.0).sum(axis=1)


def scalar_costs(family: ParamGreedyFamily, samples, rhos) -> np.ndarray:
    """`greedy_cost` of every rho on every sample, shape (len(rhos), len(samples)):
    one scalar run per cell."""
    costs = [[greedy_cost(family, r, x) for x in samples] for r in rhos]
    return np.asarray(costs, dtype=float).reshape(len(rhos), len(samples))


def crossing_superset(family: ParamGreedyFamily, samples) -> np.ndarray:
    """Every rho inside the family's interval where two object scores p / d^rho
    of one sample cross, rho = ln(p_i / p_j) / ln(d_i / d_j) over all pairs
    with d_i != d_j: (value, size) for knapsack, (weight, 1 + degree) for
    MWIS, and (weight, 1 + r) for every residual degree r <= degree for the
    adaptive rule.  Roots within 1e-9 (relative) of an endpoint are left out,
    and a root within 1e-12 of the last one kept is merged into it, so an
    oracle grid finer than the smallest gap stays finite."""
    lo, hi = family.interval
    roots = [np.empty(0)]
    for x in samples:
        if family.kind == "knapsack":
            p, d = x.values, x.sizes
        elif family.kind == "mwis":
            p, d = x.weights, 1.0 + x.degrees
        else:
            p = np.repeat(x.weights, x.degrees + 1)
            d = np.concatenate([1.0 + np.arange(k + 1) for k in x.degrees])
        i, j = np.triu_indices(p.size, k=1)
        dd = np.log(d[i]) - np.log(d[j])
        r = (np.log(p[i]) - np.log(p[j]))[dd != 0] / dd[dd != 0]
        roots.append(r[(r > lo + 1e-9 * max(1.0, abs(lo))) & (r < hi - 1e-9 * max(1.0, abs(hi)))])
    kept = []
    for r in np.unique(np.concatenate(roots)).tolist():
        if not kept or r - kept[-1] > 1e-12 * max(1.0, abs(r)):
            kept.append(r)
    return np.array(kept)


def superset_step_functions(weights: np.ndarray, edges: np.ndarray, edge_step: np.ndarray):
    """The online runner's step functions of a block (`online._draw_block`
    arrays) with every step cut at its own crossings plus the superset points
    next to a piece narrower than `_SLIVER`: unmerged flat points, offsets and
    values, and the smallest gap between two superset points of one step (inf
    when no step has two)."""
    steps, n = weights.shape
    points, offsets = _transition_rows(weights)
    row, pos = np.repeat(np.arange(steps), np.diff(offsets)), np.arange(points.size)
    gaps = np.diff(points)[row[1:] == row[:-1]]
    lanes = _graph_lanes(n, steps, edges, edge_step)
    logw = np.log(weights)
    roots = _nonadaptive_crossings(logw, lanes[0])
    narrow = np.insert(points, offsets[1:], 1.0) - np.insert(points, offsets[:-1], 0.0) < _SLIVER
    near = narrow[pos + row] | narrow[pos + row + 1]  # the pieces left and right of a point
    if near.any():
        extra = np.full((steps, np.diff(offsets).max()), np.inf)
        extra[row[near], (pos - offsets[row])[near]] = points[near]
        roots = np.hstack([roots, extra])
    points, offsets = _rows_within(roots, 0.0, 1.0)
    totals = np.repeat([math.fsum(w) for w in weights], np.diff(offsets) + 1)
    pieces = _piece_values(weights, logw, lanes, points, offsets, 0.0, 1.0) / totals
    return points, offsets, pieces, float(gaps.min()) if gaps.size else math.inf


def min_pairwise_gap(points: np.ndarray) -> float:
    pts = np.sort(np.asarray(points, dtype=float))
    if pts.size < 2:
        return math.inf
    return float(np.diff(pts).min())


class NetHedgeLearner:
    """Full-information exponential weights over a finite net of parameters.

    Gains in [0, 1]; update multiplies each weight by exp(eta * gain), with
    the rate eta = sqrt(8 ln K / T) set by the net size K and the horizon T.
    Weights are kept in log space and renormalized, so they stay positive and
    finite at any horizon.  `sample` keeps its CDF until the next `update`.
    """

    def __init__(self, net, T: int):
        self.net = np.asarray(net, dtype=float)
        if self.net.size == 0:
            raise ValueError("empty net")
        if T < 1:
            raise ValueError(f"the rate needs a horizon T >= 1, got {T}")
        self.eta = math.sqrt(8.0 * math.log(max(self.net.size, 2)) / T)
        self._log_w = np.zeros(self.net.size)
        self._cdf = None

    def probabilities(self) -> np.ndarray:
        w = np.exp(self._log_w)  # the largest log weight is 0 (see `update`)
        return w / w.sum()

    def sample(self, rng: np.random.Generator) -> int:
        if self._cdf is None:
            self._cdf = np.cumsum(self.probabilities())
        return min(int(np.searchsorted(self._cdf, rng.random(), side="right")), self._cdf.size - 1)

    def update(self, gains: np.ndarray) -> None:
        gains = np.asarray(gains, dtype=float)
        if gains.shape != self._log_w.shape:
            raise ValueError("one gain per net point required")
        self._log_w += self.eta * gains
        self._log_w -= self._log_w.max()
        self._cdf = None


def route(tree: dict, key: float, boundaries: np.ndarray) -> tuple[int, int]:
    """Walk the tree, narrowing the bucket range at each split, then
    binary-search the range; returns (bucket, comparisons)."""
    comparisons = 0
    lo, hi = 0, boundaries.size
    node = tree
    while node:
        comparisons += 1
        if key < boundaries[node["split"]]:
            node, hi = node["left"], node["split"]
        else:
            node, lo = node["right"], node["split"] + 1
    # Bucket k holds keys with boundaries[k-1] <= key < boundaries[k].
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if key < boundaries[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


def insertion_sort(bucket: list, limit: float) -> int:
    """Sort `bucket` in place and return the comparisons made; stops as soon
    as they pass `limit`, leaving the bucket unsorted."""
    comparisons = 0
    for i in range(1, len(bucket)):
        key = bucket[i]
        j = i - 1
        while j >= 0:
            comparisons += 1
            if comparisons > limit:
                return comparisons
            if bucket[j] > key:
                bucket[j + 1] = bucket[j]
                j -= 1
            else:
                break
        bucket[j + 1] = key
    return comparisons


def scalar_sort(sorter: BucketSorter, array) -> tuple[np.ndarray, SortStats]:
    """Route every key, insertion-sort the buckets and concatenate them; once
    the comparisons pass the budget, mergesort the input instead."""
    values = np.asarray(array, dtype=float)
    buckets = [[] for _ in range(sorter.bucket_count)]
    budget = sorter.fallback_threshold
    routing = insertion = merge = 0
    for tree, key in zip(sorter.trees, values.tolist()):
        bucket, comparisons = route(tree, key, sorter.boundaries)
        routing += comparisons
        if routing > budget:
            break
        buckets[bucket].append(key)
    for bucket in buckets:
        if routing + insertion > budget:
            break
        insertion += insertion_sort(bucket, budget - routing - insertion)
    fallback = routing + insertion > budget
    if fallback:
        output, merge = mergesort_count(values.tolist())
    else:
        output = [key for bucket in buckets for key in bucket]
    occupancy = np.array([len(bucket) for bucket in buckets])
    return np.asarray(output), SortStats(routing, insertion, merge, fallback, occupancy)
