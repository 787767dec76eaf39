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
of the union of the samples' value-change points, read off that batch; ERM,
best-of-q and the shattering probe all reduce that one cost matrix.  For
"mwis-adaptive", whose crossings range over all residual degrees, a sample's
step function takes one run per execution, not one per piece.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import MAXIMIZE, CostValue, ErrorReport, StepFunctions, erm_costs, merge_close

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

    `edges` is an int64 array of shape (E, 2) owned by the instance: the
    unique (u, v) pairs with u < v, in increasing order of u * n + v.  Input
    already in that form is kept as given; any other order, reversed pairs
    and repeats are canonicalized.  `n` and the endpoints must be whole
    numbers.  The neighbour lists the greedy runs walk are sorted by vertex id.

    Instances whose weights are exact powers of an integer base >= 2 may carry
    (`exact_base`, `exact_exponents`): weight_v proportional to
    base**exponent_v with rational exponents.  Greedy runs with a Fraction
    parameter then compare scores exactly, which keeps selections correct even
    when parameter windows are far below float resolution.
    """

    __slots__ = ("n", "edges", "weights", "exact_base", "exact_exponents",
                 "_indptr", "_indices", "_degrees", "_exact_classes")

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
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must have one entry per vertex")
        if (w <= 0).any() or (w > 1).any() or not np.isfinite(w).all():
            raise ValueError("weights must lie in (0, 1]")
        if (exact_base is None) != (exact_exponents is None):
            raise ValueError("exact_base and exact_exponents must be given together")
        if exact_base is not None:
            if not isinstance(exact_base, numbers.Integral) or exact_base < 2:
                raise ValueError(f"exact_base must be an integer >= 2, got {exact_base!r}")
            exact_exponents = tuple(exact_exponents)
            if len(exact_exponents) != n:
                raise ValueError("need one exact exponent per vertex")
            # One isinstance check per distinct type, not per exponent.
            if not all(issubclass(t, numbers.Rational) for t in set(map(type, exact_exponents))):
                raise ValueError("exact exponents must be rational numbers")
        self.n = n
        self.edges = edge_arr
        self.weights = w
        self.exact_base = None if exact_base is None else int(exact_base)
        self.exact_exponents = exact_exponents
        self._indptr = None
        self._indices = None
        self._degrees = None
        self._exact_classes = None

    def _build_csr(self):
        """Degrees and sorted neighbour lists from one bincount and one key sort."""
        if self._indptr is not None:
            return
        n, e = self.n, self.edges
        counts = np.bincount(e.ravel(), minlength=n)
        # Neighbour v of u as the key u * n + v, sorted (a stable sort reuses the sorted
        # first half); subtracting u * n decodes each vertex's neighbours in order.
        keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]])
        keys.sort(kind="stable")
        self._indices = keys - np.repeat(np.arange(n, dtype=np.int64) * n, counts)
        self._indptr = np.concatenate([[0], np.cumsum(counts)])
        self._degrees = counts

    @property
    def degrees(self) -> np.ndarray:
        self._build_csr()
        return self._degrees

    def adjacency_matrix(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        if self.edges.size:
            adj[self.edges[:, 0], self.edges[:, 1]] = True
            adj[self.edges[:, 1], self.edges[:, 0]] = True
        return adj

    def total_weight(self) -> float:
        return float(math.fsum(self.weights))


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


def mask_cost(mask: np.ndarray, payload: np.ndarray) -> float:
    """Solution value with a reduction that is bitwise identical between the
    scalar and the row-vectorized evaluation paths."""
    return float(np.where(mask, payload, 0.0).sum(axis=-1))


def is_independent_set(instance: MwisInstance, solution: Sequence[int]) -> bool:
    """Direct edge scan, independent of any greedy code path."""
    chosen = set(int(v) for v in solution)
    return not any(u in chosen and v in chosen for u, v in instance.edges.tolist())


def knapsack_feasible(instance: KnapsackInstance, solution: Sequence[int]) -> bool:
    return sum(float(instance.sizes[i]) for i in solution) <= instance.capacity + 1e-12


# ---------------------------------------------------------------------------
# Greedy execution
# ---------------------------------------------------------------------------


def _mwis_log_keys(instance: MwisInstance, rho: float, deg: np.ndarray) -> np.ndarray:
    return np.log(instance.weights) - float(rho) * np.log1p(deg)


def _exact_order(instance: MwisInstance, rho: Fraction) -> list[int]:
    """Score order with exact per-pair comparisons.

    Requires every (1 + degree) to be an integer power of `exact_base`, which
    holds for the nested-interval constructions this mode exists for.  The
    (exponent, degree) classes do not depend on rho and are kept on the
    instance; each run ranks only the classes.  Ties go to the smaller id.
    """
    if instance._exact_classes is None:
        base = instance.exact_base
        sizes, size_of = np.unique(instance.degrees + 1, return_inverse=True)
        ks = [round(math.log(d, base)) if d > 1 else 0 for d in sizes.tolist()]
        if any(base**k != d for k, d in zip(ks, sizes.tolist())):
            raise ValueError("exact mode requires (1 + degree) to be a power of the base")
        classes = {}
        class_of = [classes.setdefault((e, ks[s]), len(classes))
                    for e, s in zip(instance.exact_exponents, size_of.tolist())]
        instance._exact_classes = (list(classes), np.array(class_of))
    classes, class_of = instance._exact_classes
    keys = [e - rho * k for e, k in classes]
    rank = {key: r for r, key in enumerate(sorted(set(keys), reverse=True))}
    return np.argsort(np.array([rank[key] for key in keys])[class_of], kind="stable").tolist()


def _greedy_mwis_nonadaptive(instance: MwisInstance, rho) -> np.ndarray:
    """First fit in score order: a vertex is taken unless a taken neighbour blocks it."""
    if isinstance(rho, Fraction) and instance.exact_base is not None:
        order = _exact_order(instance, rho)
    else:
        keys = _mwis_log_keys(instance, rho, instance.degrees.astype(float))
        order = np.argsort(-keys, kind="stable").tolist()
    instance._build_csr()
    indptr, indices = instance._indptr, instance._indices
    chosen = np.zeros(instance.n, dtype=bool)
    blocked = np.zeros(instance.n, dtype=bool)
    for v in order:
        if not blocked[v]:
            chosen[v] = True
            blocked[indices[indptr[v]:indptr[v + 1]]] = True
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
    solution = tuple(int(v) for v in np.flatnonzero(mask))
    return solution, CostValue(value)


def greedy_cost(family: ParamGreedyFamily, rho, instance) -> float:
    return run_greedy(family, rho, instance)[1].value


# ---------------------------------------------------------------------------
# Vectorized non-adaptive MWIS over many graphs and parameter values
# ---------------------------------------------------------------------------

_GRID_MAX_N = 63  # vertex bitmasks live in one uint64 lane


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


# ---------------------------------------------------------------------------
# Breakpoints and constructive ERM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakpointSet:
    """Parameter values where two object scores of one sample cross.

    `points` is the union over the samples of each sample's own crossings,
    strictly inside the open interval.  They cut the interval into open pieces
    on each of which every greedy member behaves identically on every sample.
    """

    points: np.ndarray

    @property
    def count(self) -> int:
        return int(self.points.size)


def _sample_attributes(family: ParamGreedyFamily, x) -> tuple[np.ndarray, np.ndarray]:
    """One sample's (primary, denominator-base) attribute pairs.

    For the adaptive MWIS rule every vertex contributes one pair per residual
    degree 0..deg(v): a superset of what executions can reach, which is sound
    for crossing enumeration; most of its pieces share an execution.
    """
    if family.kind == "knapsack":
        return x.values, x.sizes
    if family.kind == "mwis":
        return x.weights, 1.0 + x.degrees.astype(float)
    counts = x.degrees + 1
    return np.repeat(x.weights, counts), np.concatenate([1.0 + np.arange(c, dtype=float) for c in counts])


def _own_crossings(family: ParamGreedyFamily, x) -> np.ndarray:
    """One sample's distinct crossing points strictly inside the interval, sorted."""
    lo, hi = family.interval
    logp, logd = (np.log(a) for a in _sample_attributes(family, x))
    i, j = np.triu_indices(logp.size, k=1)
    dden = logd[i] - logd[j]
    crossing = dden != 0
    r = (logp[i] - logp[j])[crossing] / dden[crossing]
    return np.unique(r[(r > lo + 1e-9 * max(1.0, abs(lo))) & (r < hi - 1e-9 * max(1.0, abs(hi)))])


def breakpoints(family: ParamGreedyFamily, samples) -> BreakpointSet:
    """Closed-form crossing points of each sample's own attribute score curves.

    For score p / d^rho the curves of two attributes cross where
    rho = ln(p1/p2) / ln(d1/d2), defined only when d1 != d2; equal attributes
    never cross (ties are broken lexicographically, so the comparison outcome
    is constant).  Only pairs within one sample are solved: a greedy run
    compares the objects of one instance, so a crossing between attributes of
    two samples cannot change any run.  Roots closer to an interval endpoint
    than float noise can resolve are dropped; the endpoint runs and the
    boundary pieces of `piece_costs` cover both sides of such a crossing.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    points = merge_close(np.unique(np.concatenate([_own_crossings(family, x) for x in samples])),
                         _BREAKPOINT_MERGE_RTOL)
    return BreakpointSet(points)


def step_functions(family: ParamGreedyFamily, samples) -> StepFunctions:
    """Each sample's greedy value between its own crossings, from runs at piece
    midpoints, as a row of one batch.

    For "mwis-adaptive" one run serves every piece in its window (see
    `_greedy_mwis_adaptive`) and the next run is at the first piece past it:
    one run per distinct execution, not one per piece of the superset.
    """
    lo, hi = family.interval
    points = [_own_crossings(family, x) for x in samples]
    values = []
    for x, own in zip(samples, points):
        grid = np.concatenate([[lo], own, [hi]])
        mids = (grid[:-1] + grid[1:]) / 2.0
        if family.kind != "mwis-adaptive":
            values.append([greedy_cost(family, r, x) for r in mids])
            continue
        row, k = np.empty(mids.size), 0
        while k < mids.size:
            mask, (_, b) = _greedy_mwis_adaptive(x, mids[k])
            # The run is fixed on the pieces k .. end - 1, which end at or before b.
            end = max(k + 1, int(np.searchsorted(grid, b, side="right")) - 1)
            row[k:end] = mask_cost(mask, x.weights)
            k = end
        values.append(row)
    return StepFunctions(np.concatenate(points + [np.empty(0)]), np.cumsum([0] + [p.size for p in points]),
                         np.concatenate(values + [np.empty(0)]))


def piece_costs(family: ParamGreedyFamily, samples) -> tuple[np.ndarray, np.ndarray]:
    """The offline candidate set and its cost matrix: (rhos, costs), with costs
    of shape (len(rhos), len(samples)).

    The union of the samples' value-change points (`step_functions(...).points`,
    near-duplicates merged as in `breakpoints`) cuts the interval into open
    pieces on which every sample's value is constant.  `rhos` holds, in
    increasing order, the endpoint `lo`, the midpoint of every piece and the
    endpoint `hi`; each column is read off one sample's row of the batch, with a
    real run at each endpoint.  The claim is about open pieces: a change point
    itself is not a candidate, since what a run does there rests on an exact
    float tie and the id order.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    lo, hi = family.interval
    functions = step_functions(family, samples)
    points = merge_close(np.unique(functions.points), _BREAKPOINT_MERGE_RTOL)
    edges = np.concatenate([[lo], points, [hi]])
    rhos = np.unique(np.concatenate([[lo], (edges[:-1] + edges[1:]) / 2.0, [hi]]))
    costs = functions.at(rhos)
    for end in (lo, hi):  # a crossing can sit on an endpoint: run there
        costs[rhos == end] = [greedy_cost(family, end, x) for x in samples]
    return rhos, costs


def scalar_costs(family: ParamGreedyFamily, samples, rhos) -> np.ndarray:
    """`greedy_cost` of every rho on every sample, shape (len(rhos), len(samples)):
    one scalar run per cell, the oracle for `piece_costs`."""
    costs = [[greedy_cost(family, r, x) for x in samples] for r in rhos]
    return np.asarray(costs, dtype=float).reshape(len(rhos), len(samples))


def erm_breakpoint(family: ParamGreedyFamily, samples, holdout=None):
    """Best single parameter on the samples over the candidates of `piece_costs`.

    Exact over every rho outside the finite set of value-change points
    (open-piece semantics).  With a nonempty holdout, `holdout_mean` is the
    mean of real runs at rho_star on the holdout (`scalar_costs`), which holds
    even where rho_star is a held-out change point, and `estimated_error` its
    gap to the best held-out mean over the interval (the best row of the
    holdout's own `piece_costs`).  Returns (rho_star, ErrorReport); ties break
    toward the smaller rho.
    """
    rhos, costs = piece_costs(family, samples)
    report = erm_costs(rhos.tolist(), costs, MAXIMIZE)
    rho = report.chosen
    if not holdout:
        return rho, report
    chosen = float(np.mean(scalar_costs(family, holdout, [rho])[0]))
    best = float(piece_costs(family, holdout)[1].mean(axis=1).max())
    return rho, ErrorReport(rho, report.train_mean, chosen, abs(chosen - best))


def best_of_q(family: ParamGreedyFamily, rhos, instance) -> CostValue:
    """Best solution value over q greedy runs with the given parameters."""
    if len(rhos) == 0:
        raise ValueError("need at least one rho")
    return CostValue(max(greedy_cost(family, r, instance) for r in rhos))


_BEST_OF_Q_CAP = 3


def erm_best_of_q(family: ParamGreedyFamily, samples, q: int):
    """Exhaustive ERM over q-subsets of the `piece_costs` candidates.

    A subset's cost on an instance is the best of its members' costs.
    Returns (rho_tuple, ErrorReport).  `q` is capped to keep the subset
    enumeration tractable and may not exceed the number of candidates.
    """
    if not 1 <= q <= _BEST_OF_Q_CAP:
        raise ValueError(f"q must be in 1..{_BEST_OF_Q_CAP}")
    rhos, costs = piece_costs(family, samples)
    if rhos.size < q:
        raise ValueError(f"q={q} exceeds the {rhos.size} probe(s) of the interval")
    combos = np.asarray(list(combinations(range(rhos.size), q)))
    combo_costs = reduce(np.maximum, (costs[column] for column in combos.T))
    chosen = [tuple(float(rhos[i]) for i in c) for c in combos]
    report = erm_costs(chosen, combo_costs, MAXIMIZE)
    return report.chosen, report


# ---------------------------------------------------------------------------
# Instance generators and file formats
# ---------------------------------------------------------------------------


class _ErdosRenyi:
    """G(n, p): a vertex pair u < v (row-major) is an edge if its draw is below p."""

    def __init__(self, n: int, p: float):
        self.n, self.p, self.pairs = n, p, np.triu_indices(n, k=1)

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
    exponents = payload.get("exact_exponents")
    return MwisInstance(payload["n"], payload["edges"], payload["weights"],
                        exact_base=payload.get("exact_base"),
                        exact_exponents=None if exponents is None else tuple(map(Fraction, exponents)))


def save_mwis(instance: MwisInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mwis_to_dict(instance), fh)


def load_mwis(path: str) -> MwisInstance:
    with open(path) as fh:
        return mwis_from_dict(json.load(fh))


def save_knapsack(instance: KnapsackInstance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(knapsack_to_csv(instance))


def knapsack_to_csv(instance: KnapsackInstance) -> str:
    out = io.StringIO()
    out.write(f"capacity={instance.capacity!r}\n")
    writer = csv.writer(out)
    writer.writerow(["value", "size"])
    for v, s in zip(instance.values, instance.sizes):
        writer.writerow([repr(float(v)), repr(float(s))])
    return out.getvalue()


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
