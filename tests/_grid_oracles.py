"""Dense-grid greedy evaluators, used by the tests as oracles.

Each gives the greedy solutions (or values) of one instance for a whole array
of rho at once.  They share no code with the scalar `run_greedy`, so the two
cross-check each other, and the library's step functions are checked against
both.  The non-adaptive MWIS path is the library's `_nonadaptive_masks` on
one graph; the adaptive one recomputes residual degrees with one matrix
product per selection round.
"""

import numpy as np

from algoselect.greedy import (_GRID_MAX_N, KnapsackInstance, MwisInstance, ParamGreedyFamily,
                               _graph_lanes, _nonadaptive_masks)


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
    adj = instance.adjacency_matrix()
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
