"""Online selection of greedy MWIS heuristics: regret, adversaries, smoothing.

The learner picks a parameter rho each round, then observes the cost of every
net point on the revealed instance (full information).  Two instance models
are provided:

* `adversary_sequence` draws nested parameter windows of width n^-j inside
  (0, 1/2] and emits one three-layer graph per window; only parameters inside
  the final window score well at every step, and every other parameter scores
  O(n^-1/6) there.  Window endpoints are exact rationals, so the construction
  stays sound long after the widths drop below float resolution; the graphs
  carry exact weight exponents for the same reason.
* `smooth_sequence` draws vertex weights from bounded-density distributions
  over [0, 1] on arbitrary graphs.  Costs are then piecewise constant in rho
  with pieces delimited by the closed-form `transition_points`, which is what
  makes a finite net competitive with the whole continuum.  Because this
  sequence does not depend on the learner, `run_smoothed_online` builds the
  run's step functions before Hedge starts, in blocks sized by one memory
  budget: one `rng.random` call draws a block, and offline ERM's non-adaptive
  MWIS code cuts each step at its own crossings and values each piece, into
  one `StepFunctions` batch.  The superset of transition points is built
  only for the few steps where a sliver test flags a point of it within
  rounding reach of a crossing (their sliver cuts), and for
  `RegretTrace.min_comparator_gap`, which is computed when first read.
  Only Hedge runs per step, skipping constant updates.
  It runs over cells, not net points: net points that no change point of the
  run separates gain the same at every step, so they share one weight and one
  total (`_cells` over the union of the batch's change points).

Costs are normalized to [0, 1] (smoothed instances divide by total vertex
weight, which preserves the per-instance ranking of parameters).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator

import numpy as np

from .core import StepFunctions
# `erdos_renyi_generator` is re-exported as the graph model of smoothed runs.
from .greedy import (_BLOCK_ROOTS, _GRID_MAX_N, MwisInstance, _ErdosRenyi, _graph_lanes,  # noqa: F401
                     _log_ratios, _nonadaptive_crossings, _piece_values, _rows_within, _vertex_pairs,
                     erdos_renyi_generator, mwis_from_dict, mwis_to_dict)
from .utils import labeled_rng


# ---------------------------------------------------------------------------
# Hard instances: a window (r, s] scores 1, everything else <= m^(r-1) + 1/(m-1)
# ---------------------------------------------------------------------------


def _hard_size(m: int) -> int:
    """Vertex count of the m graph: the layer sizes m^2-2, m^3-1 and m^2+m+1 summed."""
    return m**3 + 2 * m**2 + m - 2


@dataclass(frozen=True)
class HardInstanceParams:
    """Three-layer graph sizes and weights derived from (m, r, s).

    Layer sizes are m^2-2 (hubs), m^3-1 (mass), m^2+m+1 (stars); hub weight
    t*m^r, mass weight t, star weight t*m^-s with t = 1/(m^3-1), so the mass
    layer's total weight is exactly 1.  Greedy selection returns exactly the
    mass layer iff rho lies in (r, s].  Outside the window it returns the hubs
    and stars, worth (m^2-2)*t*m^r + (m^2+m+1)*t*m^-s < m^(r-1) + m^-s/(m-1):
    small only while r stays bounded away from 1.
    """

    m: int
    r: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "r", Fraction(self.r))
            object.__setattr__(self, "s", Fraction(self.s))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"r and s must be finite rationals, got {self.r!r}, {self.s!r}") from exc
        if not isinstance(self.m, numbers.Integral) or self.m < 3:
            raise ValueError(f"need an integer m >= 3, got {self.m!r}")
        if not 0 < self.r < self.s < 1:
            raise ValueError("need 0 < r < s < 1")

    @property
    def size_a(self) -> int:
        return self.m**2 - 2

    @property
    def size_b(self) -> int:
        return self.m**3 - 1

    @property
    def size_c(self) -> int:
        return self.m**2 + self.m + 1

    @property
    def n(self) -> int:
        return _hard_size(self.m)

    @property
    def t(self) -> float:
        return 1.0 / self.size_b

    @property
    def weight_a(self) -> float:
        return self.t * self.m ** float(self.r)

    @property
    def weight_c(self) -> float:
        return self.t * self.m ** -float(self.s)

    def inside_cost(self) -> float:
        """Total mass-layer weight, within a few ulps of a run's all-vertex `mask_cost` sum."""
        return float(np.full(self.size_b, self.t).sum())

    def outside_cost(self) -> float:
        """Hub plus star total weight, the value of any parameter outside (r, s]
        up to a few ulps of the run's all-vertex `mask_cost` sum."""
        return self.size_a * self.weight_a + self.size_c * self.weight_c


@lru_cache(maxsize=1)
def _hard_graph(m: int) -> MwisInstance:
    """The graph of every window of size m, checked once, with its degrees,
    neighbour lists and neighbour runs built and read-only; the last one stays
    in memory."""
    a, b, n = m**2 - 2, m**3 - 1, _hard_size(m)
    ids_b = a + np.arange(b, dtype=np.int64)
    # Canonical order (hub rows, then mass-star rows), which MwisInstance keeps as given.
    edges = np.empty((a * b + b, 2), dtype=np.int64)
    hub_edges = edges[:a * b].reshape(a, b, 2)
    hub_edges[:, :, 0] = np.arange(a, dtype=np.int64)[:, None]
    hub_edges[:, :, 1] = ids_b
    edges[a * b:, 0] = ids_b
    edges[a * b:, 1] = a + b + np.arange(b, dtype=np.int64) // (m - 1)
    graph = MwisInstance(n, edges, np.ones(n))
    graph._build_runs()
    return graph


def build_hard_instance(params: HardInstanceParams) -> MwisInstance:
    """Materialize the graph: hubs complete to the mass layer, stars of size m-1.

    Vertex order is hubs, then mass, then stars.  The instance carries exact
    weight exponents in base m so greedy runs with Fraction parameters compare
    scores exactly.  The graph depends on m alone: it is built once per m, with
    the neighbour runs its exact runs block groups with, and shared read-only
    by every window's instance (`MwisInstance.reweighted`),
    which adds only the window's weights and exponents.  The graph of the last
    m stays in memory until a window of another m replaces it.
    """
    a, b, c = params.size_a, params.size_b, params.size_c
    weights = np.concatenate([
        np.full(a, params.weight_a),
        np.full(b, params.t),
        np.full(c, params.weight_c),
    ])
    exponents = (params.r,) * a + (Fraction(0),) * b + (-params.s,) * c
    return _hard_graph(params.m).reweighted(weights, exact_base=params.m, exact_exponents=exponents)


def largest_hard_size(n_budget: int) -> int:
    """Largest m >= 3 whose graph fits in n_budget vertices (at least half of it)."""
    m = 3
    while _hard_size(m + 1) <= n_budget:
        m += 1
    size = _hard_size(m)
    if size > n_budget:
        raise ValueError(f"budget {n_budget} below the minimum construction size {size}")
    if 2 * size < n_budget:
        raise ValueError(f"budget {n_budget} not realizable within a factor of 2 (got {size})")
    return m


# Upper end of the range holding every adversarial window (see `adversary_sequence`).
ADVERSARY_WINDOW_HI = Fraction(1, 2)


def adversary_sequence(n_budget: int, T: int, seed: int) -> list[HardInstanceParams]:
    """Nested parameter windows, width n^-j at step j, drawn uniformly inside
    the previous window; the first is drawn inside (0, ADVERSARY_WINDOW_HI].

    The range keeps the construction separating: every window has
    0 < r < s <= 1/2, so a parameter outside it scores less than
    m^(r-1) + m^-s/(m-1) <= m^-1/2 + 1/(m-1) = O(n^-1/6), while the window
    scores 1.  Windows near r = 1 would leave the outside value near 1 and
    separate nothing.  Endpoints are exact rationals, so nesting is sound for
    any horizon; instances are descriptors (`build_hard_instance` materializes
    the graphs on demand).
    """
    if T < 1:
        raise ValueError("need T >= 1")
    m = largest_hard_size(n_budget)
    n = _hard_size(m)
    rng = labeled_rng(seed, "adversary-intervals")
    lo, hi = Fraction(0), ADVERSARY_WINDOW_HI
    out = []
    for j in range(1, T + 1):
        width = Fraction(1, n**j)
        u = Fraction(int(rng.integers(1, 2**53)), 2**53)
        lo = lo + u * ((hi - lo) - width)
        hi = lo + width
        out.append(HardInstanceParams(m, lo, hi))
    return out


# ---------------------------------------------------------------------------
# Smoothed instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformUnion:
    """Uniform distribution over a union of disjoint subintervals of [0, 1]."""

    intervals: tuple

    def __post_init__(self) -> None:
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("need at least one interval")
        last = -1.0
        for lo, hi in ivs:
            if not 0.0 <= lo < hi <= 1.0:
                raise ValueError(f"bad interval ({lo}, {hi}); need 0 <= lo < hi <= 1")
            if lo < last:
                raise ValueError("intervals must be disjoint and sorted")
            last = hi

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    @property
    def density(self) -> float:
        return 1.0 / self.total_length

    def _walk(self, u):
        """(u <= length, lo + u) per interval, u a unit uniform (float or array)
        scaled to the total length, then less each interval's length in turn."""
        u = self.total_length * u
        for lo, hi in self.intervals:
            yield u <= hi - lo, lo + u
            u = u - (hi - lo)

    def sample(self, rng: np.random.Generator) -> float:
        return next((pick for hit, pick in self._walk(rng.random()) if hit), self.intervals[-1][1])

    def place(self, u: np.ndarray) -> np.ndarray:
        """`sample` at each of the unit uniforms u."""
        return np.select(*zip(*self._walk(u)), self.intervals[-1][1])


@dataclass(frozen=True)
class SmoothSpec:
    """Per-vertex weight distributions with density at most 1/sigma."""

    sigma: float
    distributions: tuple

    def __post_init__(self) -> None:
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must be in (0, 1)")
        dists = tuple(self.distributions)
        object.__setattr__(self, "distributions", dists)
        if not dists:
            raise ValueError("need at least one vertex distribution")
        for d in dists:
            if d.density > 1.0 / self.sigma + 1e-12:
                raise ValueError(
                    f"distribution density {d.density} exceeds the bound 1/sigma = {1 / self.sigma}"
                )

    @property
    def n(self) -> int:
        return len(self.distributions)


def uniform_smooth_spec(n: int, sigma: float, intervals=((0.0, 1.0),)) -> SmoothSpec:
    return SmoothSpec(sigma, (UniformUnion(tuple(intervals)),) * n)


def _instances(spec: SmoothSpec, graph_generator, rng) -> Iterator[MwisInstance]:
    """Endless smoothed instances drawn with `rng`, graph first, then weights."""
    while True:
        edges = graph_generator(rng)
        weights = np.empty(spec.n)
        for v, dist in enumerate(spec.distributions):
            w = dist.sample(rng)
            while w <= 0.0:  # probability-zero corner of a closed interval at 0
                w = dist.sample(rng)
            weights[v] = w
        yield MwisInstance(spec.n, edges, weights)


def smooth_sequence(spec: SmoothSpec, graph_generator, T: int, seed: int) -> list[MwisInstance]:
    """The first T smoothed instances of `seed`; identical seeds give identical sequences."""
    return list(islice(_instances(spec, graph_generator, labeled_rng(seed, "smooth-sequence")), T))


def _draw_block(spec: SmoothSpec, graph_generator, rng: np.random.Generator, steps: int):
    """The next `steps` instances of `_instances` as (steps, n) weights, all
    edges in step order and each edge's step.  Erdos-Renyi graphs with
    `UniformUnion` weights take one `rng.random` call (for PCG64 the same
    doubles); other models, or a weight outside (0, 1], go step by step."""
    if (isinstance(graph_generator, _ErdosRenyi) and graph_generator.n == spec.n
            and all(isinstance(d, UniformUnion) for d in spec.distributions)):
        state, pairs = rng.bit_generator.state, graph_generator.pairs[0].size
        draws = rng.random((steps, pairs + spec.n))
        weights = np.column_stack([d.place(u) for d, u in zip(spec.distributions, draws[:, pairs:].T)])
        if ((weights > 0.0) & (weights <= 1.0)).all():
            return (weights, *graph_generator.edges(draws[:, :pairs]))
        rng.bit_generator.state = state
    block = list(islice(_instances(spec, graph_generator, rng), steps))
    step = np.repeat(np.arange(steps), [len(x.edges) for x in block])
    return np.stack([x.weights for x in block]), np.concatenate([x.edges for x in block]), step


# ---------------------------------------------------------------------------
# Transition points
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _canonical_denominators(n: int) -> tuple:
    table = _log_ratios(n)
    return tuple(sorted(set(table[~np.isnan(table)].tolist())))


def _check_distinct(weights: np.ndarray) -> None:
    ordered = np.sort(weights, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("transition points require distinct vertex weights")


def _transition_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`transition_points` of every row of a (steps, n) weight matrix at once,
    as the flat points and offsets of `greedy._rows_within`."""
    _check_distinct(weights)
    steps, n = weights.shape
    denoms = np.asarray(_canonical_denominators(n))
    logw = np.log(weights)
    i, j = _vertex_pairs(n)
    return _rows_within(((logw[:, i] - logw[:, j])[:, :, None] / denoms).reshape(steps, -1), 0.0, 1.0)


_SLIVER = 1e-9  # far above a crossing's rounding, 1e-16 |log w| / |ln(k_i / k_j)|


def _needs_slivers(logw: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The rows whose `_sliver_points` may change a piece value: a
    `_transition_rows` point other than the crossing itself lies within
    2 `_SLIVER` of one of the row's own crossings in [0, 1] (`roots`, as
    `greedy._nonadaptive_crossings` gives them) or of 0, or an own crossing
    lies within 2 `_SLIVER` of 0 or 1.  In any other row a sliver cut lies
    more than 2 `_SLIVER` from every crossing, so each piece it splits off has
    its midpoint far beyond rounding from every crossing and keeps the value
    of the piece it came from.  May flag a row that needs no sliver cut;
    misses none.

    A superset point is |x| / d, x = log w_i - log w_j over the vertex pairs
    and d a positive canonical denominator, so one within 2 `_SLIVER` of a
    crossing c has d in [|x| / (c + 3 _SLIVER), |x| / (c - 3 _SLIVER)] (the
    extra `_SLIVER` covers rounding): one search of the sorted denominators
    per crossing and pair, where the crossing itself is one hit."""
    n = logw.shape[1]
    denoms = np.asarray(_canonical_denominators(n))
    denoms = denoms[denoms > 0.0]
    i, j = _vertex_pairs(n)
    size = np.abs(logw[:, i] - logw[:, j])
    flag = ((np.abs(roots) <= 2 * _SLIVER) | (np.abs(roots - 1.0) <= 2 * _SLIVER)
            | (size <= 2 * _SLIVER * denoms.max(initial=0.0))).any(axis=1)
    row, pair = np.nonzero((roots >= 0.0) & (roots <= 1.0))
    c = roots[row, pair][:, None]
    size = np.sort(size, axis=1)[row]  # runs of increasing keys search faster
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = size / (c + 3 * _SLIVER), size / np.maximum(c - 3 * _SLIVER, 0.0)
    hits = np.searchsorted(denoms, hi, side="right") - np.searchsorted(denoms, lo)
    flag[row[hits.sum(axis=1) > 1]] = True
    return flag


def _sliver_points(weights: np.ndarray) -> np.ndarray:
    """Each row's `_transition_rows` points next to a piece narrower than
    `_SLIVER`, where rounding may put a crossing either side: shape
    (rows, k), padded with inf."""
    points, offsets = _transition_rows(weights)
    row, pos = np.repeat(np.arange(len(weights)), np.diff(offsets)), np.arange(points.size)
    narrow = np.insert(points, offsets[1:], 1.0) - np.insert(points, offsets[:-1], 0.0) < _SLIVER
    near = narrow[pos + row] | narrow[pos + row + 1]  # the pieces left and right of a point
    extra = np.full((len(weights), np.diff(offsets).max()), np.inf)
    extra[row[near], (pos - offsets[row])[near]] = points[near]
    return extra


def transition_points(instance: MwisInstance) -> np.ndarray:
    """Every parameter in [0, 1] where two score curves w / k^rho can cross.

    The returned set is a superset of the parameters at which the greedy
    output actually changes, for both degree variants.  Weights must be
    distinct and positive (almost sure under smoothing).
    """
    return _transition_rows(instance.weights[None, :])[0]


def theoretical_m(n: int, sigma: float) -> int:
    return math.ceil(n * math.log(1.0 / sigma))


def theoretical_q(n: int, sigma: float) -> float:
    if n < 2:
        raise ValueError(f"theoretical q needs n >= 2 (it divides by ln n), got n={n}")
    m = theoretical_m(n, sigma)
    return 1.0 / (n * 4.0 * (1.0 / sigma) * m**2 * n**8 * math.log(n))


# ---------------------------------------------------------------------------
# Multiplicative-weights learner (Hedge with gains)
# ---------------------------------------------------------------------------


class HedgeLearner:
    """Full-information exponential weights over a finite net of parameters,
    kept per cell: a group of net points whose gains are always equal.

    `cells` gives each net point's cell id (every id from 0 to the largest
    used).  Gains in [0, 1], one per cell; update multiplies each weight by
    exp(eta * gain), with the rate eta = sqrt(8 ln K / T) set by the net size
    K (not the cell count) and the horizon T.  Weights are kept in log space
    and renormalized, so they stay positive and finite at any horizon.
    `sample` draws a net point by one uniform: first a run of consecutive net
    points of one cell, by the run's total weight, then a point inside it from
    the same uniform.  It keeps its CDF until the next `update`.
    """

    def __init__(self, cells, T: int):
        self.cells = np.asarray(cells)
        if self.cells.ndim != 1 or self.cells.size == 0:
            raise ValueError("empty net")
        if T < 1:
            raise ValueError(f"the rate needs a horizon T >= 1, got {T}")
        if (self.cells.dtype.kind not in "iu" or self.cells.min() < 0
                or not np.bincount(self.cells).all()):
            raise ValueError("cell ids must be integers from 0 up, every one used")
        self.eta = math.sqrt(8.0 * math.log(max(self.cells.size, 2)) / T)
        self._starts = np.flatnonzero(np.diff(self.cells, prepend=-1))  # one per run
        self._run_cell = self.cells[self._starts]
        self._run_size = np.diff(self._starts, append=self.cells.size)
        self._log_w = np.zeros(int(self.cells.max()) + 1)
        self._cdf = None

    def probabilities(self) -> np.ndarray:
        """One probability per net point."""
        w = np.exp(self._log_w)[self.cells]  # the largest log weight is 0 (see `update`)
        return w / w.sum()

    def sample(self, rng: np.random.Generator) -> int:
        if self._cdf is None:
            w = np.exp(self._log_w)[self._run_cell]
            self._cdf = w, np.cumsum(self._run_size * w)
        w, cdf = self._cdf
        x = rng.random() * cdf[-1]
        run = int(np.searchsorted(cdf, x, side="right"))
        if run == cdf.size:  # rounding put x at the very top
            return self.cells.size - 1
        inside = int((x - (cdf[run - 1] if run else 0.0)) / w[run])
        return int(self._starts[run]) + min(inside, int(self._run_size[run]) - 1)

    def update(self, gains: np.ndarray) -> None:
        gains = np.asarray(gains, dtype=float)
        if gains.shape != self._log_w.shape:
            raise ValueError("one gain per cell required")
        self._log_w += self.eta * gains
        self._log_w -= self._log_w.max()
        self._cdf = None


def _cells(cuts: np.ndarray, net: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the net points that no cut separates, counting a point on a cut
    as right of it: (the first net point of each cell, each point's cell id),
    ids dense from 0 in the order of the cells along the line."""
    _, first, cells = np.unique(np.searchsorted(cuts, net, side="right"),
                                return_index=True, return_inverse=True)
    return first, cells


# ---------------------------------------------------------------------------
# Regret traces and online runs
# ---------------------------------------------------------------------------


@dataclass
class RegretTrace:
    """Per-step record of an online run over the learner's `net` plus two
    hindsight comparators.

    `best_net_*` is the best fixed net point; `best_ref_*` is the reference
    comparator: the exact best piece of the summed step functions for
    smoothed runs (`StepFunctions.argmax_sum`), the surviving-window optimum for
    adversarial runs.  Average regret is (comparator total - collected total) / T.
    For smoothed runs `min_comparator_gap` is the smallest distance between
    two transition points of the same step (None when no step has two);
    points of different steps are not compared.  A smoothed run keeps its
    weights and computes the gap from them the first time it is read.
    """

    net: np.ndarray
    chosen_rho: np.ndarray
    costs: np.ndarray
    cum_best: np.ndarray
    best_net_rho: float
    best_net_total: float
    best_ref_rho: float
    best_ref_total: float
    min_comparator_gap: float | None = None

    @property
    def T(self) -> int:
        return int(self.costs.size)

    @property
    def cum_cost(self) -> np.ndarray:
        return np.cumsum(self.costs)

    @property
    def avg_regret(self) -> float:
        return (self.best_net_total - float(self.cum_cost[-1])) / self.T

    @property
    def avg_regret_ref(self) -> float:
        return (self.best_ref_total - float(self.cum_cost[-1])) / self.T

    def to_csv(self) -> str:
        cum_cost = self.cum_cost
        regret = (self.cum_best - cum_cost) / np.arange(1, self.T + 1)
        columns = (self.chosen_rho, self.costs, cum_cost, self.cum_best, regret)
        rows = zip(range(1, self.T + 1), *(np.asarray(c, float).tolist() for c in columns))
        lines = ["step,chosen_rho,cost,cum_cost,cum_best,avg_regret"]
        lines.extend(f"{i},{rho!r},{cost!r},{cum!r},{best!r},{r!r}" for i, rho, cost, cum, best, r in rows)
        return "\n".join(lines) + "\n"

    def _read_gap(self) -> float | None:
        if self._gap_weights is not None:
            self._gap, self._gap_weights = _min_transition_gap(self._gap_weights), None
        return self._gap

    def _write_gap(self, gap: float | None) -> None:
        self._gap, self._gap_weights = gap, None


# Replaces the field's class default after the dataclass is built, so
# `__init__` still takes the gap and a smoothed run can leave it to the
# first read (its weight blocks in `_gap_weights`).
RegretTrace.min_comparator_gap = property(RegretTrace._read_gap, RegretTrace._write_gap)


def _min_transition_gap(blocks) -> float | None:
    """The smallest gap between two `_transition_rows` points of one row of
    the (steps, n) weight blocks; None when no row has two."""
    gap = math.inf
    for weights in blocks:
        points, offsets = _transition_rows(weights)
        step_of = np.repeat(np.arange(len(weights)), np.diff(offsets))
        gap = min(gap, np.diff(points)[step_of[1:] == step_of[:-1]].min(initial=math.inf))
    return float(gap) if gap < math.inf else None


def _block_steps(n: int) -> int:
    """Steps per block: at least one, and as many as `_BLOCK_ROOTS` floats hold
    of each step's largest array, the sliver test's own crossings x vertex
    pairs (`_needs_slivers`) at most, plus its weights.  A flagged step's
    superset (pairs x denominators) is about 1.2 times that, but few steps
    are flagged: 1 in 24,000 of uniform weights."""
    pairs = n * (n - 1) // 2
    return max(1, _BLOCK_ROOTS // (pairs * (pairs + 1) + n))


def _step_functions(weights: np.ndarray, edges: np.ndarray, edge_step: np.ndarray):
    """Step functions of a block of instances as `_draw_block` gives them, as
    unmerged flat points, offsets and values (`core.StepFunctions`' layout).

    Each step is cut at its own crossings in [0, 1]
    (`greedy._nonadaptive_crossings`), and only the steps `_needs_slivers`
    flags also at their `_sliver_points`; once equal neighbouring pieces are
    merged, that is the function that cutting every step at its sliver points
    gives.  Pieces are valued by `greedy._piece_values` over the total vertex
    weight (in [0, 1])."""
    _check_distinct(weights)
    steps, n = weights.shape
    lanes = _graph_lanes(n, steps, edges, edge_step)
    logw = np.log(weights)
    roots = _nonadaptive_crossings(logw, lanes[0])
    flagged = np.flatnonzero(_needs_slivers(logw, roots))
    if flagged.size:
        extra = _sliver_points(weights[flagged])
        pad = np.full((steps, extra.shape[1]), np.inf)
        pad[flagged] = extra
        roots = np.hstack([roots, pad])
    points, offsets = _rows_within(roots, 0.0, 1.0)
    totals = np.repeat(list(map(math.fsum, weights.tolist())), np.diff(offsets) + 1)
    pieces = _piece_values(weights, logw, lanes, points, offsets, 0.0, 1.0) / totals
    return points, offsets, pieces


def _run_hedge(net_arr: np.ndarray, cells: np.ndarray, step_gains, T: int, seed: int) -> RegretTrace:
    """Hedge over `net_arr`, grouped into `cells` (see `HedgeLearner`), for T
    steps of gains from `step_gains`: one per cell, or a float when every
    point gains the same (a pure shift of the log weights, so no update).
    Totals are kept per cell, and each is the same running sum as at any of
    its points, so `cum_best` and `best_net_*` (the first best point in net
    order) are those of a per-point run.  The caller fills in the reference
    comparator."""
    learner = HedgeLearner(cells, T)
    rng_learner = labeled_rng(seed, "mw-learner")
    chosen_rho, costs, cum_best = (np.empty(T) for _ in range(3))
    totals = np.zeros(cells.max() + 1)
    for t, gains in enumerate(step_gains):
        idx = learner.sample(rng_learner)
        if not isinstance(gains, float):
            learner.update(gains)
        costs[t] = gains if isinstance(gains, float) else gains[cells[idx]]
        totals += gains
        chosen_rho[t] = net_arr[idx]
        cum_best[t] = totals.max()
    net_totals = totals[cells]
    best = int(np.argmax(net_totals))
    return RegretTrace(net_arr, chosen_rho, costs, cum_best, float(net_arr[best]),
                       float(net_totals[best]), best_ref_rho=math.nan, best_ref_total=math.nan)


def run_smoothed_online(spec: SmoothSpec, graph_generator, T: int, seed: int, net) -> RegretTrace:
    """Hedge over a parameter net against a smoothed instance sequence.

    `net` is a point count (a uniform net on [0, 1]) or the points themselves
    (finite, in [0, 1], any order).  The paper's net of spacing
    `theoretical_q` is a proof device, about 2e8 points at n = 4, so it is
    not built here.  The trace reports the smallest gap between two
    transition points of one step (`min_comparator_gap`, computed from the
    run's weights when first read), so a net too coarse to separate them can
    be detected.

    The instance sequence does not depend on the learner, so the whole run is
    drawn and cut first, in blocks as long as `_BLOCK_ROOTS` allows
    (`_draw_block`, bit-equal to `smooth_sequence`), each block's step
    functions from one vectorized pass, and the run's steps form one
    `core.StepFunctions` batch.  The union of its change points cuts the net
    into cells (`_cells`); every row reads the same value at every net point
    of a cell, so each step's gains are read at one point per cell.  Then
    Hedge runs over the cells, one step at a time, and a constant step skips
    its update.  `best_ref_*` is the exact best piece of the rows' sum
    (`StepFunctions.argmax_sum`).
    """
    if T < 1:
        raise ValueError("need T >= 1")
    n = spec.n
    if n > _GRID_MAX_N:  # checked before the first block is drawn and cut
        raise ValueError(f"smoothed runs support n <= {_GRID_MAX_N} (vertex bitmasks), got n={n}")
    if isinstance(net, bool):
        raise ValueError(f"net must be a point count or the points, got {net!r}")
    if isinstance(net, numbers.Integral) and net < 0:
        raise ValueError(f"net size must be a point count >= 1, got {net}")
    net_arr = np.linspace(0.0, 1.0, net) if isinstance(net, numbers.Integral) else np.asarray(net, float)
    # NaN and inf fail the range test too.
    if net_arr.ndim != 1 or net_arr.size == 0 or not ((net_arr >= 0.0) & (net_arr <= 1.0)).all():
        raise ValueError("net must be a nonempty 1-D array of points in [0, 1]")
    rng = labeled_rng(seed, "smooth-sequence")
    size = _block_steps(n)
    weights, rows = [], []
    for start in range(0, T, size):
        block = _draw_block(spec, graph_generator, rng, min(size, T - start))
        weights.append(block[0])
        rows.append(_step_functions(*block))
    points, offsets, values = zip(*rows)
    offsets = np.cumsum(np.concatenate([[0]] + [np.diff(o) for o in offsets]))
    functions = StepFunctions(np.concatenate(points), offsets, np.concatenate(values))
    first, cells = _cells(np.unique(functions.points), net_arr)
    trace = _run_hedge(net_arr, cells, functions._rows(net_arr[first]), T, seed)
    trace.best_ref_rho, trace.best_ref_total = functions.argmax_sum(0.0, 1.0)
    trace._gap_weights = weights
    return trace


def run_adversary_online(n_budget: int, T: int, seed: int) -> RegretTrace:
    """Hedge over the grid k/n, k = 0..n, against the nested-window adversary.

    Per-step costs come from the closed-form window evaluation with exact
    rational containment tests: k/n lies in (r, s] iff floor(r n) < k <=
    floor(s n).  The ends of all windows cut the grid into cells, so Hedge
    gets one gain per cell.  The reference comparator is any parameter in the final
    window, which scores the inside value at every step.
    """
    params_list = adversary_sequence(n_budget, T, seed)
    n = params_list[0].n
    k = np.arange(n + 1)
    # Window j holds the grid indices [floor(r n) + 1, floor(s n) + 1).
    ends = np.array([[math.floor(p.r * n) + 1, math.floor(p.s * n) + 1] for p in params_list])
    first, cells = _cells(np.unique(ends), k)
    step_gains = (np.where((first >= a) & (first < b), p.inside_cost(), p.outside_cost())
                  for p, (a, b) in zip(params_list, ends))
    trace = _run_hedge(k / n, cells, step_gains, T, seed)
    final = params_list[-1]
    trace.best_ref_rho = float((final.r + final.s) / 2)
    # cumsum adds in step order, like a running total.
    trace.best_ref_total = float(np.cumsum([p.inside_cost() for p in params_list])[-1])
    return trace


# ---------------------------------------------------------------------------
# Replay serialization (JSON lines, one instance per line)
# ---------------------------------------------------------------------------


def instance_to_jsonl(obj) -> str:
    if isinstance(obj, HardInstanceParams):
        return json.dumps({"kind": "hard", "m": obj.m, "r": str(obj.r), "s": str(obj.s)})
    if isinstance(obj, MwisInstance):
        return json.dumps({"kind": "mwis", **mwis_to_dict(obj)})
    raise TypeError(f"cannot serialize {type(obj)!r}")


def instance_from_jsonl(line: str):
    payload = json.loads(line)
    if payload["kind"] == "hard":
        return HardInstanceParams(payload["m"], payload["r"], payload["s"])
    if payload["kind"] == "mwis":
        return mwis_from_dict(payload)
    raise ValueError(f"unknown instance kind {payload['kind']!r}")
