"""Single-parameter greedy heuristics for object assignment problems.

A family is a scoring rule paired with an assignment rule; three kinds are
provided (`ParamGreedyFamily.kind`):

* "knapsack": pack items in order of nonincreasing score v / s^rho, each item
  that still fits.
* "mwis": maximum-weight independent set, vertices in order of nonincreasing
  score w / (1 + deg)^rho with the degree frozen at its initial value.
* "mwis-adaptive": the same score with the degree recomputed in the residual
  graph after each selection.

Scores are compared in log space (ln p - rho * ln d), which preserves order
and avoids overflow for extreme attribute ratios.  Because two members of a
family with arbitrarily close parameters can behave completely differently,
ERM over the continuum is done constructively: on each sample, every parameter
value at which two of its object scores cross is enumerated in closed form.
These points cut the interval into open pieces on which every run is fixed,
so each sample's value is a step function of rho, and the samples' values
form one `core.StepFunctions` batch (`step_functions`).  The offline
candidates (`piece_costs`) are both endpoints and one rho inside every piece
of the union of the samples' value-change points, read off that batch; ERM
(`erm_breakpoint`) and the shattering probe both reduce that one cost matrix.

Greedy values are computed in batches: samples of one size run together,
each (sample, rho) pair a row of one vectorized evaluator per kind, which
repeats the scalar runner's float expressions and so equals it bit for bit.
`_nonadaptive_masks` runs first fit against one uint64 neighbourhood bitmask
per vertex, `_adaptive_masks` lets every row pick its next vertex in lockstep
and keeps its window, and `_knapsack_masks` runs first fit against one
residual capacity per row.  The step functions' pieces (every piece of a
group at once, the adaptive walks one round at a time), the endpoint and
holdout runs of ERM and the `epm` command's labels all take these batches;
`cost_matrix` is their (rhos x samples) entry point.  The scalar runner
(`run_greedy`) stays the public single-run API, the path of MWIS graphs on
more than 63 vertices and of exact-weight instances, and the tests' oracle.
With a Fraction rho on an exact-weight instance its non-adaptive first fit
goes one group of equal exact score at a time: a group no edge joins is
taken at once, its neighbourhood blocked from neighbour lists stored as runs
of consecutive ids.  The float runs go vertex by vertex.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .core import MAXIMIZE, CostValue, ErrorReport, StepFunctions, erm_costs, merge_close, piece_midpoints

# Exact float dedup of coincident crossing points, relative to magnitude.
_BREAKPOINT_MERGE_RTOL = 1e-12

# Default capacity of `random_knapsack_instance`, as a share of the total item size.
_KNAPSACK_CAPACITY_SHARE = 0.5


@dataclass(frozen=True)
class ParamGreedyFamily:
    """Greedy heuristics of one `kind` indexed by a parameter rho in a finite interval.

    The kind ("knapsack", "mwis" or "mwis-adaptive", see the module docstring)
    fixes both the score and how the top-scoring object is assigned.  Any two
    attribute score curves cross at most kappa = 1 time, and an object's
    attributes take at most beta = n values during a run (only the residual
    degrees of "mwis-adaptive" change at all): the two counts that enter the
    pseudo-dimension bound.
    """

    kind: str
    interval: tuple[float, float]
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("knapsack", "mwis", "mwis-adaptive"):
            raise ValueError(f"unknown greedy family kind: {self.kind!r}")
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval must be finite")
        if not 0 <= lo <= hi:
            raise ValueError("interval must satisfy 0 <= lo <= hi")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def contains(self, rho) -> bool:
        lo, hi = self.interval
        return lo <= float(rho) <= hi


def mwis_family(n: int, interval=(0.0, 1.0), adaptive: bool = False) -> ParamGreedyFamily:
    return ParamGreedyFamily("mwis-adaptive" if adaptive else "mwis", tuple(interval), n)


def knapsack_family(n: int, interval=(0.0, 1.0)) -> ParamGreedyFamily:
    return ParamGreedyFamily("knapsack", tuple(interval), n)


class MwisInstance:
    """Undirected vertex-weighted graph with weights in (0, 1].

    `edges` is a read-only int64 array of shape (E, 2) owned by the instance:
    the unique (u, v) pairs with u < v, in increasing order of u * n + v.
    Input already in that form is kept as given; any other order, reversed
    pairs and repeats are canonicalized.  `n` and the endpoints must be whole
    numbers.  The degrees and the neighbour lists the greedy runs walk (sorted
    by vertex id; for exact runs also as runs of consecutive ids) are built
    on first use, read-only as well; `reweighted` shares all of them with a
    copy that only has new weights.

    Instances whose weights are exact powers of an integer base >= 2 may carry
    (`exact_base`, `exact_exponents`): weight_v proportional to
    base**exponent_v with rational exponents.  Greedy runs with a Fraction
    parameter then compare scores exactly, which keeps selections correct even
    when parameter windows are far below float resolution.
    """

    __slots__ = ("n", "edges", "weights", "exact_base", "exact_exponents",
                 "_indptr", "_indices", "_runs", "_degrees", "_exact_classes")

    def __init__(self, n, edges, weights, exact_base=None, exact_exponents=None):
        whole = isinstance(n, numbers.Integral) or isinstance(n, float) and n.is_integer()
        if isinstance(n, bool) or not whole:
            raise ValueError(f"vertex count must be a whole number, got {n!r}")
        n = int(n)
        if n < 1:
            raise ValueError("need at least one vertex")
        raw = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges).reshape(-1, 2)
        if raw.dtype.kind not in "iuf" or (raw.dtype.kind == "f" and (np.floor(raw) != raw).any()):
            raise ValueError("edge endpoints must be whole numbers")
        if raw.size and ((raw < 0).any() or (raw >= n).any()):
            raise ValueError("edge endpoint out of range")
        edge_arr = raw.astype(np.int64, order="C")  # always a copy: never the caller's array
        u, v = edge_arr[:, 0], edge_arr[:, 1]
        if (u == v).any():
            raise ValueError("self-loops are not allowed")
        # Each pair as the 1-D key min * n + max, which sorts like the
        # canonical rows.  Canonical input (u < v, keys strictly increasing)
        # is kept; otherwise sort and drop repeats by hand: np.unique on
        # millions of int64 keys is about 70x slower than a sort.
        keys = u * n + v
        if not ((u < v).all() and (keys[1:] > keys[:-1]).all()):
            keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
            edge_arr = np.empty((keys.size, 2), dtype=np.int64)
            np.divmod(keys, n, out=(edge_arr[:, 0], edge_arr[:, 1]))
        edge_arr.flags.writeable = False
        self.n = n
        self.edges = edge_arr
        self._indptr = self._indices = self._runs = self._degrees = None
        self._set_weights(weights, exact_base, exact_exponents)

    def _set_weights(self, weights, exact_base, exact_exponents) -> None:
        """Check and set weights and exact exponents, for the constructor and `reweighted`."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError("weights must have one entry per vertex")
        if (w <= 0).any() or (w > 1).any() or not np.isfinite(w).all():
            raise ValueError("weights must lie in (0, 1]")
        if (exact_base is None) != (exact_exponents is None):
            raise ValueError("exact_base and exact_exponents must be given together")
        if exact_base is not None:
            if not isinstance(exact_base, numbers.Integral) or exact_base < 2:
                raise ValueError(f"exact_base must be an integer >= 2, got {exact_base!r}")
            exact_exponents = tuple(exact_exponents)
            if len(exact_exponents) != self.n:
                raise ValueError("need one exact exponent per vertex")
            # One isinstance check per distinct type, not per exponent.
            if not all(issubclass(t, numbers.Rational) for t in set(map(type, exact_exponents))):
                raise ValueError("exact exponents must be rational numbers")
        self.weights = w
        self.exact_base = None if exact_base is None else int(exact_base)
        self.exact_exponents = exact_exponents
        self._exact_classes = None

    def reweighted(self, weights, exact_base=None, exact_exponents=None) -> "MwisInstance":
        """The same graph with new weights and exact exponents, checked as the
        constructor checks them.  The copy shares the read-only edges, and the
        degrees and neighbour lists as far as this instance has built them."""
        out = object.__new__(type(self))
        out.n, out.edges = self.n, self.edges
        out._indptr, out._indices, out._degrees = self._indptr, self._indices, self._degrees
        out._runs = self._runs
        out._set_weights(weights, exact_base, exact_exponents)
        return out

    def _build_csr(self):
        """Sorted neighbour lists from the degrees and one key sort, for the scalar runs."""
        if self._indptr is not None:
            return
        n, e, counts = self.n, self.edges, self.degrees
        # Neighbour v of u as the key u * n + v, sorted (a stable sort reuses the sorted
        # first half); subtracting u * n decodes each vertex's neighbours in order.
        keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]])
        keys.sort(kind="stable")
        self._indices = keys - np.repeat(np.arange(n, dtype=np.int64) * n, counts)
        self._indptr = np.concatenate([[0], np.cumsum(counts)])
        self._indices.flags.writeable = self._indptr.flags.writeable = False

    def _build_runs(self):
        """The neighbour lists as maximal runs of consecutive ids, for the exact
        runs: vertex v's neighbours are the ids lo <= u < hi of the runs
        (run_lo[k], run_hi[k]) for run_ptr[v] <= k < run_ptr[v + 1]."""
        if self._runs is not None:
            return
        self._build_csr()
        indptr, indices = self._indptr, self._indices
        starts = np.ones(indices.size, dtype=bool)
        starts[1:] = indices[1:] != indices[:-1] + 1
        starts[indptr[:-1][indptr[:-1] < indptr[1:]]] = True  # each list starts a run
        # Only (runs,)-sized arrays from here on: an (E,)-sized temporary would
        # lift the peak memory of a graph's first exact run above the build of
        # its neighbour lists.
        first = np.flatnonzero(starts)
        run_lo = indices[first]
        run_hi = run_lo + np.diff(np.append(first, indices.size))
        self._runs = (np.searchsorted(first, indptr), run_lo, run_hi)
        for x in self._runs:
            x.flags.writeable = False

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = np.bincount(self.edges.ravel(), minlength=self.n)
            self._degrees.flags.writeable = False
        return self._degrees


class KnapsackInstance:
    """Items with positive values and sizes, and a positive capacity."""

    __slots__ = ("n", "values", "sizes", "capacity")

    def __init__(self, values, sizes, capacity):
        v = np.asarray(values, dtype=float)
        s = np.asarray(sizes, dtype=float)
        if v.ndim != 1 or v.shape != s.shape or v.size < 1:
            raise ValueError("values and sizes must be equal-length nonempty vectors")
        if not (np.isfinite(v).all() and np.isfinite(s).all() and math.isfinite(capacity)):
            raise ValueError("values, sizes, and capacity must be finite")
        if (v <= 0).any() or (s <= 0).any() or capacity <= 0:
            raise ValueError("values, sizes, and capacity must be positive")
        self.n = int(v.size)
        self.values = v
        self.sizes = s
        self.capacity = float(capacity)


def mask_cost(mask: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Solution value of each mask along the last axis: the one sum of a
    greedy value, so scalar runs and vectorized pieces agree bit for bit."""
    return np.where(mask, payload, 0.0).sum(axis=-1)


# ---------------------------------------------------------------------------
# Greedy execution
# ---------------------------------------------------------------------------


def _mwis_log_keys(instance: MwisInstance, rho: float, deg: np.ndarray) -> np.ndarray:
    return np.log(instance.weights) - float(rho) * np.log1p(deg)


def _exact_groups(instance: MwisInstance, rho: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """The vertices in exact score order, cut where the score changes.

    Requires every (1 + degree) to be an integer power of `exact_base`, which
    holds for the nested-interval constructions this mode exists for.  The
    (exponent, degree) classes do not depend on rho and are kept on the
    instance; each run ranks only the classes.  Returns (order, bounds):
    group g is order[bounds[g]:bounds[g + 1]], the groups by decreasing
    score, each group's members by increasing id, so `order` is the score
    order with ties to the smaller id.
    """
    if instance._exact_classes is None:
        base = instance.exact_base
        sizes, size_of = np.unique(instance.degrees + 1, return_inverse=True)
        ks = [round(math.log(d, base)) if d > 1 else 0 for d in sizes.tolist()]
        if any(base**k != d for k, d in zip(ks, sizes.tolist())):
            raise ValueError("exact mode requires (1 + degree) to be a power of the base")
        # Hash each distinct exponent object once, not one Fraction per vertex
        # (a window repeats three objects); equal values share one code.
        exponents, values = instance.exact_exponents, {}
        _, first, object_of = np.unique(np.fromiter(map(id, exponents), np.intp, instance.n),
                                        return_index=True, return_inverse=True)
        codes = np.array([values.setdefault(exponents[i], len(values)) for i in first.tolist()])
        pairs, class_of = np.unique(codes[object_of] * len(ks) + size_of, return_inverse=True)
        values = list(values)
        classes = [(values[p // len(ks)], ks[p % len(ks)]) for p in pairs.tolist()]
        instance._exact_classes = (classes, class_of)
    classes, class_of = instance._exact_classes
    keys = [e - rho * k for e, k in classes]
    rank = {key: r for r, key in enumerate(sorted(set(keys), reverse=True))}
    group_of = np.array([rank[key] for key in keys])[class_of]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(group_of, minlength=len(rank)))])
    return np.argsort(group_of, kind="stable"), bounds


def _first_fit(vertices, instance: MwisInstance, chosen: np.ndarray, blocked: np.ndarray) -> None:
    """Take each of `vertices` in turn unless it is blocked, and block its neighbours."""
    indptr, indices = instance._indptr, instance._indices
    for v in vertices:
        if not blocked[v]:
            chosen[v] = True
            blocked[indices[indptr[v]:indptr[v + 1]]] = True


def _run_cover(runs, vertices: np.ndarray, n: int) -> np.ndarray:
    """Mask of the n ids adjacent to any of `vertices`, from the neighbour
    runs (`MwisInstance._build_runs`): +1 at each run's first id, -1 past its
    last, and an id is covered where the running sum is positive."""
    run_ptr, run_lo, run_hi = runs
    first, count = run_ptr[vertices], run_ptr[vertices + 1] - run_ptr[vertices]
    k = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    depth = np.cumsum(np.bincount(run_lo[k], minlength=n + 1) - np.bincount(run_hi[k], minlength=n + 1))
    return depth[:n] > 0


def _greedy_mwis_nonadaptive(instance: MwisInstance, rho) -> np.ndarray:
    """First fit in score order: a vertex is taken unless a taken neighbour blocks it.

    Exact runs go one group of equal score at a time (`_exact_groups`).  When
    no edge joins a group's unblocked members, first fit takes them all, and
    blocks the union of their neighbourhoods in one step over the neighbour
    runs; a group with an inner edge, or with one unblocked member, goes
    vertex by vertex.  The hard instances' groups are whole layers, whose
    neighbour lists are a few runs each.
    """
    instance._build_csr()
    chosen = np.zeros(instance.n, dtype=bool)
    blocked = np.zeros(instance.n, dtype=bool)
    if not (isinstance(rho, Fraction) and instance.exact_base is not None):
        keys = _mwis_log_keys(instance, rho, instance.degrees.astype(float))
        _first_fit(np.argsort(-keys, kind="stable").tolist(), instance, chosen, blocked)
        return chosen
    order, bounds = _exact_groups(instance, rho)
    instance._build_runs()
    ids, done = order.tolist(), 0
    for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        _first_fit(ids[done:lo], instance, chosen, blocked)
        done, members = hi, order[lo:hi]
        free = members[~blocked[members]]
        if free.size > 1:
            cover = _run_cover(instance._runs, free, instance.n)
            if not cover[free].any():
                chosen[free] = True
                blocked |= cover
                continue
        _first_fit(free.tolist(), instance, chosen, blocked)
    _first_fit(ids[done:], instance, chosen, blocked)
    return chosen


def _greedy_mwis_adaptive(instance: MwisInstance, rho) -> tuple[np.ndarray, tuple[float, float]]:
    """Adaptive greedy at `rho`: (chosen mask, open window (a, b) where the run is fixed).

    Each pick v beats every live rival u on a half-line of rho ending at
    (ln w_v - ln w_u) / (ln(1 + d_v) - ln(1 + d_u)) for their residual
    degrees, the float expression of `_own_crossings`; (a, b) intersects them.
    """
    instance._build_csr()
    indptr, indices = instance._indptr, instance._indices
    n = instance.n
    rho_f = float(rho)
    deg = instance.degrees.copy()
    logw = np.log(instance.weights)
    logd = np.log(1.0 + np.arange(deg.max() + 1, dtype=float))
    alive = np.ones(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    a, b = -math.inf, math.inf
    live = np.arange(n)
    while live.size:
        v = int(live[np.argmax(logw[live] - rho_f * np.log1p(deg[live]))])
        dd, dp = logd[deg[v]] - logd[deg[live]], logw[v] - logw[live]
        up, down = dd > 0, dd < 0
        b = min(b, float(np.min(dp[up] / dd[up], initial=b)))
        a = max(a, float(np.max(dp[down] / dd[down], initial=a)))
        chosen[v] = True
        nbrs = indices[indptr[v]:indptr[v + 1]]
        removed = np.concatenate([[v], nbrs[alive[nbrs]]])
        alive[removed] = False
        live = np.flatnonzero(alive)
        # Residual degrees drop by the number of removed neighbours.
        lost = np.concatenate([indices[indptr[r]:indptr[r + 1]] for r in removed])
        deg -= np.bincount(lost, minlength=n)
    return chosen, (a, b)


def _greedy_knapsack(instance: KnapsackInstance, rho) -> np.ndarray:
    keys = np.log(instance.values) - float(rho) * np.log(instance.sizes)
    order = np.argsort(-keys, kind="stable")
    chosen = np.zeros(instance.n, dtype=bool)
    resid = instance.capacity
    for i in order:
        if instance.sizes[i] <= resid:
            chosen[i] = True
            resid -= instance.sizes[i]
    return chosen


def run_greedy(family: ParamGreedyFamily, rho, instance):
    """Run one family member; returns (sorted solution ids, CostValue).

    Objects are assigned in nonincreasing score order, ties broken toward the
    smaller object id; assignments respect feasibility (independence or
    residual capacity).
    """
    if not family.contains(rho):
        raise ValueError(f"rho={rho} outside family interval {family.interval}")
    if family.kind == "knapsack":
        if not isinstance(instance, KnapsackInstance):
            raise TypeError("knapsack family needs a KnapsackInstance")
        mask = _greedy_knapsack(instance, rho)
        value = mask_cost(mask, instance.values)
    else:
        if not isinstance(instance, MwisInstance):
            raise TypeError("MWIS family needs an MwisInstance")
        if family.kind == "mwis":
            mask = _greedy_mwis_nonadaptive(instance, rho)
        else:
            mask, _ = _greedy_mwis_adaptive(instance, rho)
        value = mask_cost(mask, instance.weights)
    solution = tuple(np.flatnonzero(mask).tolist())
    return solution, CostValue(float(value))


def greedy_cost(family: ParamGreedyFamily, rho, instance) -> float:
    return run_greedy(family, rho, instance)[1].value


# ---------------------------------------------------------------------------
# Batched greedy runs over many instances and parameter values
# ---------------------------------------------------------------------------

_GRID_MAX_N = 63  # vertex bitmasks live in one uint64 lane
_BLOCK_ROOTS = 1 << 18  # cells in the largest arrays of one batch


def _graph_lanes(n: int, graphs: int, edges: np.ndarray, edge_graph: np.ndarray):
    """Degrees (graphs, n) and neighbourhood bitmasks (graphs * n,), one uint64
    lane per vertex, of graphs on n vertices; edges[e] is in graph edge_graph[e]."""
    if n > _GRID_MAX_N:
        raise ValueError(f"grid evaluator supports n <= {_GRID_MAX_N}")
    ends = np.concatenate([edge_graph * n + edges[:, 0], edge_graph * n + edges[:, 1]])
    others = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.uint64)
    adj_bits = np.zeros(graphs * n, dtype=np.uint64)
    np.bitwise_or.at(adj_bits, ends, np.uint64(1) << others)
    return np.bincount(ends, minlength=graphs * n).reshape(-1, n), adj_bits


def _nonadaptive_masks(logw: np.ndarray, degrees: np.ndarray, adj_bits: np.ndarray,
                       owner: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Non-adaptive greedy solutions for rows drawn from several graphs of one
    size (log weights and `_graph_lanes`): row i runs rho = rhos[i] on graph
    owner[i].  Shape (rows, n) bool.  A row's taken vertices are one bitmask.
    """
    n, m = logw.shape[1], rhos.size
    keys = logw[owner] - rhos[:, None] * np.log1p(degrees.astype(float))[owner]
    order = np.argsort(-keys, axis=1, kind="stable")
    vertex_bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    base = owner * n
    taken_bits = np.zeros(m, dtype=np.uint64)
    chosen = np.zeros((m, n), dtype=bool)
    rows = np.arange(m)
    for pos in range(n):
        cur = order[:, pos]
        feasible = (taken_bits & adj_bits[base + cur]) == 0
        taken_bits |= np.where(feasible, vertex_bit[cur], np.uint64(0))
        chosen[rows[feasible], cur[feasible]] = True
    return chosen


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, as int64 (np.bitwise_count needs numpy 2)."""
    m1, m2, m4 = (np.uint64(0x5555555555555555), np.uint64(0x3333333333333333),
                  np.uint64(0x0F0F0F0F0F0F0F0F))
    bits = bits - ((bits >> np.uint64(1)) & m1)
    bits = (bits & m2) + ((bits >> np.uint64(2)) & m2)
    bits = (bits + (bits >> np.uint64(4))) & m4
    return ((bits * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _adaptive_masks(logw: np.ndarray, degrees: np.ndarray, adj_bits: np.ndarray,
                    owner: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive greedy solutions for rows as `_nonadaptive_masks` takes them,
    and the open window (a, b) where each row's run is fixed: shapes (rows, n)
    bool, (rows,) and (rows,).  Every live row picks one vertex per round, in
    lockstep; the scores, crossings and residual degrees (live neighbours, one
    bitmask popcount) are `_greedy_mwis_adaptive`'s float expressions, so all
    three equal its runs bit for bit.
    """
    n, m = logw.shape[1], rhos.size
    vertex_bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    logd = np.log(1.0 + np.arange(n, dtype=float))
    chosen, a, b = np.zeros((m, n), dtype=bool), np.full(m, -np.inf), np.full(m, np.inf)
    # The live rows: their ids, graphs' log weights and lanes, rhos, live vertices and degrees.
    rows, logw, lanes = np.arange(m), logw[owner], adj_bits.reshape(-1, n)[owner]
    live_bits, deg = np.full(m, (1 << n) - 1, dtype=np.uint64), degrees[owner]
    while rows.size:
        alive, k = (live_bits[:, None] & vertex_bit) != 0, np.arange(rows.size)
        v = np.where(alive, logw - rhos[:, None] * np.log1p(deg), -np.inf).argmax(axis=1)
        dd, dp = logd[deg[k, v]][:, None] - logd[deg], logw[k, v][:, None] - logw
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = dp / dd
        a[rows] = np.maximum(a[rows], np.where(alive & (dd < 0), ratios, -np.inf).max(axis=1))
        b[rows] = np.minimum(b[rows], np.where(alive & (dd > 0), ratios, np.inf).min(axis=1))
        chosen[rows, v] = True
        live_bits &= ~(vertex_bit[v] | lanes[k, v])
        keep = live_bits != 0
        rows, logw, lanes, rhos, live_bits = (x[keep] for x in (rows, logw, lanes, rhos, live_bits))
        deg = _popcount(lanes & live_bits[:, None])
    return chosen, a, b


def _knapsack_masks(logv: np.ndarray, logs: np.ndarray, sizes: np.ndarray, capacity: np.ndarray,
                    owner: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """First-fit knapsack solutions for rows drawn from item sets of one size
    (log values, log sizes, sizes and capacities, one row per set): row i runs
    rho = rhos[i] on set owner[i].  Shape (rows, n) bool.  One residual
    capacity per row, with `_greedy_knapsack`'s float operations."""
    keys = logv[owner] - rhos[:, None] * logs[owner]
    order = np.argsort(-keys, axis=1, kind="stable")
    sizes, resid = sizes[owner], capacity[owner]
    chosen = np.zeros(keys.shape, dtype=bool)
    rows = np.arange(rhos.size)
    for pos in range(keys.shape[1]):
        cur = order[:, pos]
        size = sizes[rows, cur]
        fits = size <= resid
        resid = np.where(fits, resid - size, resid)
        chosen[rows[fits], cur[fits]] = True
    return chosen


def _stacked_lanes(graphs) -> tuple[np.ndarray, np.ndarray]:
    """`_graph_lanes` of MWIS instances on one number of vertices."""
    edge_graph = np.repeat(np.arange(len(graphs)), [len(x.edges) for x in graphs])
    return _graph_lanes(graphs[0].n, len(graphs), np.concatenate([x.edges for x in graphs]), edge_graph)


def _batched_runs(family: ParamGreedyFamily, group):
    """`_runners`' run function for samples of one size, batched."""
    knapsack = family.kind == "knapsack"
    payload = np.stack([x.values if knapsack else x.weights for x in group])
    if knapsack:
        sizes = np.stack([x.sizes for x in group])
        data = (np.log(payload), np.log(sizes), sizes, np.array([x.capacity for x in group]))
    else:
        data = (np.log(payload), *_stacked_lanes(group))
    masks_of = {"knapsack": _knapsack_masks, "mwis": _nonadaptive_masks,
                "mwis-adaptive": _adaptive_masks}[family.kind]
    step = max(1, _BLOCK_ROOTS // group[0].n)

    def runs(owner, rhos):
        rhos = np.asarray(rhos, dtype=float)
        values, ends = np.empty(rhos.size), np.full(rhos.size, np.inf)
        for part in (slice(start, start + step) for start in range(0, rhos.size, step)):
            masks = masks_of(*data, owner[part], rhos[part])
            if family.kind == "mwis-adaptive":
                masks, _, ends[part] = masks
            values[part] = mask_cost(masks, payload[owner[part]])
        return values, ends
    return runs


def _scalar_runs(family: ParamGreedyFamily, group, owner, rhos):
    """`_runners`' run function for MWIS graphs it does not batch: one scalar run per row."""
    values, ends = np.empty(len(rhos)), np.full(len(rhos), np.inf)
    for i, (k, rho) in enumerate(zip(owner.tolist(), rhos)):
        if family.kind == "mwis-adaptive":
            mask, (_, ends[i]) = _greedy_mwis_adaptive(group[k], rho)
            values[i] = mask_cost(mask, group[k].weights)
        else:
            values[i] = greedy_cost(family, rho, group[k])
    return values, ends


def _runners(family: ParamGreedyFamily, samples):
    """The samples grouped for runs, as (group, runs) pairs, `group` a list
    of sample indices, all of one size.  `runs(owner, rhos)` runs sample
    group[owner[i]] at rhos[i] for every row i, and returns each row's value
    and the upper end b of the window where its run is fixed
    (`_greedy_mwis_adaptive`; inf for the other kinds).

    Samples of one size run together, at most `_BLOCK_ROOTS` row-object cells
    at a time (`_knapsack_masks`, `_nonadaptive_masks`, `_adaptive_masks`).
    MWIS graphs beyond one lane (n > 63) and graphs with exact weights take
    one scalar run per row, as `run_greedy` does, in groups of their own.
    """
    groups = {}
    for k, x in enumerate(samples):
        batched = family.kind == "knapsack" or (x.n <= _GRID_MAX_N and x.exact_base is None)
        groups.setdefault((x.n, batched), []).append(k)
    for (_, batched), group in groups.items():
        members = [samples[k] for k in group]
        yield group, _batched_runs(family, members) if batched else partial(_scalar_runs, family, members)


def cost_matrix(family: ParamGreedyFamily, samples, rhos) -> np.ndarray:
    """Greedy value of every rho on every sample, shape (len(rhos), len(samples)).

    Each cell equals `greedy_cost` of that rho and sample bit for bit, and
    rhos outside the interval fail with `run_greedy`'s error; the samples run
    in batches (`_runners`).
    """
    for rho in rhos:
        if not family.contains(rho):
            raise ValueError(f"rho={rho} outside family interval {family.interval}")
    need = KnapsackInstance if family.kind == "knapsack" else MwisInstance
    if not all(isinstance(x, need) for x in samples):
        raise TypeError(f"{family.kind} family needs {need.__name__} samples")
    rhos = np.asarray(rhos)
    costs = np.empty((rhos.size, len(samples)))
    for group, runs in _runners(family, samples):
        owner = np.tile(np.arange(len(group)), rhos.size)
        costs[:, group] = runs(owner, np.repeat(rhos, len(group)))[0].reshape(rhos.size, len(group))
    return costs


@lru_cache(maxsize=None)
def _log_ratios(n: int) -> np.ndarray:
    """ln(k1) - ln(k2) at [k1, k2] for k1 != k2 in {2..n}, NaN elsewhere.  The
    ratio is reduced first, so equal denominators are bitwise equal."""
    k = np.arange(2, n + 1)
    g = np.gcd.outer(k, k)
    logs = np.array([0.0] + [math.log(v) for v in range(1, n + 1)])  # math.log, one call per integer
    table = np.full((n + 1, n + 1), np.nan)
    table[2:, 2:] = logs[k[:, None] // g] - logs[k // g]
    np.fill_diagonal(table, np.nan)
    table.flags.writeable = False  # cached and shared by every caller
    return table


@lru_cache(maxsize=8)  # a run draws graphs of a few sizes
def _vertex_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, k=1)`: the pairs u < v of n vertices (or other
    objects) in row-major order."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False  # cached and shared by every caller
    return pairs


def _pair_crossings(logp: np.ndarray, i: np.ndarray, j: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Where the score curves ln p - rho * ln d of caller-chosen object pairs
    cross, row by row of logp (rows, objects): rho = (ln p_i - ln p_j) /
    (ln d_i - ln d_j), over denominators given per row and pair (NaN where a
    pair never crosses) or over one 1-D array of candidates for every pair,
    a trailing axis.  `_rows_within` keeps a window of each row."""
    x = logp[:, i] - logp[:, j]
    return x / denominators if denominators.ndim > 1 else x[:, :, None] / denominators


def _nonadaptive_crossings(logw: np.ndarray, degrees: np.ndarray, edges: np.ndarray,
                           edge_graph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's crossings (log w_i - log w_j) / (ln k_i - ln k_j), k = 1 +
    degree, over the vertex pairs i < j (NaN where k_i = k_j or a vertex is
    isolated), and which pairs are edges of its graph (edges[e] lies in graph
    edge_graph[e]): shapes (rows, pairs).

    First fit takes a vertex exactly when no earlier neighbour was taken, so
    a run depends only on which end of each edge comes first (Blelloch,
    Fineman and Shun, SPAA 2012): only edge crossings change it."""
    n = logw.shape[1]
    i, j = _vertex_pairs(n)
    edge = np.zeros((len(logw), i.size), dtype=bool)
    edge[edge_graph, edges[:, 0] * (2 * n - edges[:, 0] - 1) // 2 + edges[:, 1] - edges[:, 0] - 1] = True
    return _pair_crossings(logw, i, j, _log_ratios(n)[degrees[:, i] + 1, degrees[:, j] + 1]), edge


def _rows_within(roots: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distinct values in [lo, hi], sorted in place, as flat points
    and offsets: row i owns `points[offsets[i]:offsets[i + 1]]`."""
    roots[~((roots >= lo) & (roots <= hi))] = np.inf  # NaN too
    roots.sort(axis=1)
    keep = np.isfinite(roots)
    keep[:, 1:] &= roots[:, 1:] != roots[:, :-1]
    offsets = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return roots[keep], offsets


# ---------------------------------------------------------------------------
# Crossings, step functions and constructive ERM
# ---------------------------------------------------------------------------


def _inside(interval) -> tuple[float, float]:
    """Closed bounds for the roots inside the interval by more than float noise;
    the endpoint runs of `piece_costs` cover both sides of the others."""
    lo, hi = interval
    return np.nextafter([lo + 1e-9 * max(1.0, lo), hi - 1e-9 * max(1.0, hi)], [np.inf, -np.inf])


def _own_crossings(family: ParamGreedyFamily, x) -> np.ndarray:
    """One knapsack or adaptive MWIS sample's distinct crossings `_inside` the
    interval, sorted: the curves p / d^rho of two attribute pairs cross at
    rho = ln(p1/p2) / ln(d1/d2) when d1 != d2.  Adaptive MWIS takes one pair
    per vertex and residual degree 0..deg(v), a superset of what runs reach."""
    if family.kind == "knapsack":
        p, d = x.values, x.sizes
    else:
        p = np.repeat(x.weights, x.degrees + 1)
        d = np.concatenate([1.0 + np.arange(c + 1.0) for c in x.degrees])
    logd = np.log(d)
    i, j = _vertex_pairs(logd.size)
    crossing = logd[i] != logd[j]
    i, j = i[crossing], j[crossing]
    return _rows_within(_pair_crossings(np.log(p)[None], i, j, (logd[i] - logd[j])[None]), *_inside(family.interval))[0]


def _edge_cuts(logw: np.ndarray, degrees: np.ndarray, edges: np.ndarray, edge_graph: np.ndarray,
               interval) -> tuple[np.ndarray, np.ndarray]:
    """Where the non-adaptive MWIS step functions of graphs on n vertices
    (as `_nonadaptive_crossings` takes them) are cut, as `_rows_within` gives
    them: the crossings `_inside` the interval that lie in a cluster (a run
    of sorted crossings of one graph, each within `near` of the next) with
    an edge crossing of the interval widened by `near`.

    Only edge crossings change a run, but a piece is valued at its midpoint,
    and rounding may move an edge's swap a few ulps off its crossing, where
    another pair's crossing may sit.  Every crossing left out lies more than
    `near` from every edge crossing, so it lies in a piece whose midpoint
    and whose neighbours' midpoints are more than `near` / 2 (far above
    rounding and the margin `_inside` leaves) from every swap: the change
    points and values are exactly those of cutting at every pair's
    crossing."""
    lo, hi = interval
    near = 4e-9 * max(1.0, abs(lo), abs(hi))
    roots, edge = _nonadaptive_crossings(logw, degrees, edges, edge_graph)
    edge &= (roots >= lo - near) & (roots <= hi + near)
    rows, order = np.arange(len(roots))[:, None], np.argsort(roots, axis=1)  # NaN last
    roots, edge = roots[rows, order], edge[rows, order]
    starts = np.ones(roots.shape, dtype=bool)  # a cluster starts each row and after each gap over `near` or NaN
    starts[:, 1:] = ~(np.diff(roots, axis=1) <= near)
    cluster = np.cumsum(starts).reshape(roots.shape) - 1
    with_edge = np.bincount(cluster[edge], minlength=roots.size) > 0
    return _rows_within(np.where(with_edge[cluster], roots, np.nan), *_inside(interval))


def _crossing_rows(family: ParamGreedyFamily, group) -> tuple[np.ndarray, np.ndarray]:
    """The cuts `_inside` the interval of samples of one size, as flat points
    and offsets (`_rows_within`).  Non-adaptive MWIS graphs take
    `_edge_cuts`, as many at once as `_BLOCK_ROOTS` roots allow; the other
    kinds take `_own_crossings`, one sample at a time."""
    if family.kind != "mwis":
        rows = [_own_crossings(family, x) for x in group]
        return np.concatenate(rows + [np.empty(0)]), np.cumsum([0] + [r.size for r in rows])
    n = group[0].n
    size = max(1, _BLOCK_ROOTS // max(1, n * (n - 1) // 2))
    points, counts = [], [[0]]
    for part in (group[start:start + size] for start in range(0, len(group), size)):
        edge_graph = np.repeat(np.arange(len(part)), [len(x.edges) for x in part])
        own, offsets = _edge_cuts(np.log(np.stack([x.weights for x in part])), np.stack([x.degrees for x in part]),
                                  np.concatenate([x.edges for x in part]), edge_graph, family.interval)
        points.append(own)
        counts.append(np.diff(offsets))
    return np.concatenate(points), np.cumsum(np.concatenate(counts))


def step_functions(family: ParamGreedyFamily, samples) -> StepFunctions:
    """Each sample's greedy value between its own crossings, as a row of one batch.

    Each group of `_runners` is cut at its own crossings (`_crossing_rows`)
    and run at the midpoint of every piece, in one call.  For
    "mwis-adaptive" one run serves every piece in its window (see
    `_greedy_mwis_adaptive`) and the next run is at the first piece past it:
    one run per distinct execution, and the walks of one group advance in
    lockstep, one call per round.
    """
    lo, hi = family.interval
    points, values = [None] * len(samples), [None] * len(samples)
    for group, runs in _runners(family, samples):
        own, offsets = _crossing_rows(family, [samples[k] for k in group])
        mids, owner = piece_midpoints(own, offsets, lo, hi)
        starts = offsets + np.arange(offsets.size)  # each row's first piece, and one past the last
        if family.kind != "mwis-adaptive":
            pieces = runs(owner, mids)[0]
        else:
            right = np.insert(own, offsets[1:], hi)  # each piece's right end
            pieces, first, live = np.empty(mids.size), starts[:-1].copy(), np.arange(len(group))
            while live.size:
                run_values, ends = runs(live, mids[first[live]])
                for i, value, b in zip(live.tolist(), run_values.tolist(), ends.tolist()):
                    # The run is fixed on the pieces first .. end - 1, which end at or before b.
                    ahead = int(np.searchsorted(right[starts[i]:starts[i + 1]], b, side="right"))
                    end = max(first[i] + 1, starts[i] + ahead)
                    pieces[first[i]:end] = value
                    first[i] = end
                live = live[first[live] < starts[live + 1]]
        for i, k in enumerate(group):
            points[k], values[k] = own[offsets[i]:offsets[i + 1]], pieces[starts[i]:starts[i + 1]]
    return StepFunctions(np.concatenate(points + [np.empty(0)]), np.cumsum([0] + [p.size for p in points]),
                         np.concatenate(values + [np.empty(0)]))


def piece_costs(family: ParamGreedyFamily, samples) -> tuple[np.ndarray, np.ndarray]:
    """The offline candidate set and its cost matrix: (rhos, costs), with costs
    of shape (len(rhos), len(samples)).

    The union of the samples' value-change points (`step_functions(...).points`,
    near-duplicates merged) cuts the interval into open pieces on which every
    sample's value is constant.  `rhos` holds, in increasing order, the
    endpoint `lo`, the midpoint of every piece and the endpoint `hi` (so the
    union has rhos.size - 3 points if lo < hi); each column is read off one
    sample's row of the batch, with a real run at each endpoint.  The claim is
    about open pieces: a change point itself is not a candidate, since what a
    run does there rests on an exact float tie and the id order.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    lo, hi = family.interval
    functions = step_functions(family, samples)
    points = merge_close(np.unique(functions.points), _BREAKPOINT_MERGE_RTOL)
    mids, _ = piece_midpoints(points, np.array([0, points.size]), lo, hi)
    rhos = np.unique(np.concatenate([[lo], mids, [hi]]))
    costs = functions.at(rhos)
    # A crossing can sit on an endpoint: run there.
    for end, row in zip((lo, hi), cost_matrix(family, samples, [lo, hi])):
        costs[rhos == end] = row
    return rhos, costs


def erm_breakpoint(family: ParamGreedyFamily, rhos: np.ndarray, costs: np.ndarray, holdout=None):
    """Best single parameter over the training candidates (rhos, costs) that
    `piece_costs` gives for the samples.

    Exact over every rho outside the finite set of value-change points
    (open-piece semantics).  With a nonempty holdout, `holdout_mean` is the
    mean of real runs at rho_star on the holdout (`cost_matrix`), which holds
    even where rho_star is a held-out change point, and `estimated_error` its
    gap to the best held-out mean over the interval (the best row of the
    holdout's own `piece_costs`).  Returns (rho_star, ErrorReport); ties break
    toward the smaller rho.
    """
    report = erm_costs(rhos.tolist(), costs, MAXIMIZE)
    rho = report.chosen
    if not holdout:
        return rho, report
    chosen = float(np.mean(cost_matrix(family, holdout, [rho])[0]))
    best = float(piece_costs(family, holdout)[1].mean(axis=1).max())
    return rho, ErrorReport(rho, report.train_mean, chosen, abs(chosen - best))


# ---------------------------------------------------------------------------
# Instance generators and file formats
# ---------------------------------------------------------------------------


class _ErdosRenyi:
    """G(n, p): a vertex pair u < v (row-major) is an edge if its draw is below p."""

    def __init__(self, n: int, p: float):
        self.n, self.p, self.pairs = n, p, _vertex_pairs(n)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self.edges(rng.random((1, self.pairs[0].size)))[0]

    def edges(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges of graphs with pair draws `draws` (one row each) and each edge's row."""
        row, pair = np.nonzero(draws < self.p)
        return np.stack([self.pairs[0][pair], self.pairs[1][pair]], axis=1), row


def erdos_renyi_generator(n: int, p: float) -> Callable[[np.random.Generator], np.ndarray]:
    """Edge lists of G(n, p) graphs, one per call with the caller's generator."""
    if not 0.0 <= p <= 1.0:  # NaN fails the comparison too
        raise ValueError(f"edge probability must be finite and in [0, 1], got {p}")
    return _ErdosRenyi(n, p)


def random_mwis_instance(n: int, edge_prob: float, rng: np.random.Generator,
                         weight_choices=None) -> MwisInstance:
    """Erdos-Renyi graph; weights uniform in (0, 1] or drawn from a palette."""
    edges = erdos_renyi_generator(n, edge_prob)(rng)
    if weight_choices is None:
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[weights == 0.0] = 0.5
    else:
        weights = rng.choice(np.asarray(weight_choices, dtype=float), size=n, replace=False)
    return MwisInstance(n, edges, weights)


def random_knapsack_instance(n: int, rng: np.random.Generator,
                             value_choices=None, size_choices=None) -> KnapsackInstance:
    values = rng.choice(np.asarray(value_choices if value_choices is not None
                                   else np.arange(1, 13), dtype=float), size=n)
    sizes = rng.choice(np.asarray(size_choices if size_choices is not None
                                  else np.arange(1, 9), dtype=float), size=n)
    return KnapsackInstance(values, sizes, max(1.0, _KNAPSACK_CAPACITY_SHARE * float(sizes.sum())))


def mwis_to_dict(instance: MwisInstance) -> dict:
    """The JSON record of an instance, exact weight exponents (as strings) included."""
    payload = {"n": instance.n, "edges": instance.edges.tolist(), "weights": instance.weights.tolist()}
    if instance.exact_base is not None:
        payload["exact_base"] = instance.exact_base
        payload["exact_exponents"] = [str(e) for e in instance.exact_exponents]
    return payload


def mwis_from_dict(payload: dict) -> MwisInstance:
    if not isinstance(payload, dict) or not {"n", "edges", "weights"} <= payload.keys():
        raise ValueError("an MWIS instance must be a JSON object with the fields 'n', 'edges' and 'weights'")
    exponents = payload.get("exact_exponents")
    return MwisInstance(payload["n"], payload["edges"], payload["weights"],
                        exact_base=payload.get("exact_base"),
                        exact_exponents=None if exponents is None else tuple(map(Fraction, exponents)))


def save_mwis(instance: MwisInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mwis_to_dict(instance), fh)


def load_mwis(path: str) -> MwisInstance:
    with open(path) as fh:
        try:
            return mwis_from_dict(json.load(fh))
        except (ValueError, TypeError) as exc:  # a malformed field's own message names it
            raise ValueError(f"{path}: {exc}") from exc


def save_knapsack(instance: KnapsackInstance, path: str) -> None:
    """A `capacity=C` line, then `value,size` rows ended by the csv module's \\r\\n."""
    with open(path, "w", newline="") as fh:
        fh.write(f"capacity={instance.capacity!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["value", "size"])
        for v, s in zip(instance.values, instance.sizes):
            writer.writerow([repr(float(v)), repr(float(s))])


def load_knapsack(path: str) -> KnapsackInstance:
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("capacity="):
            raise ValueError(f"{path}:1: expected 'capacity=<C>' header")
        capacity = float(first.split("=", 1)[1])
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["value", "size"]:
            raise ValueError(f"{path}:2: expected 'value,size' column header")
        values, sizes = [], []
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            values.append(float(row[0]))
            sizes.append(float(row[1]))
    return KnapsackInstance(values, sizes, capacity)
