"""Learning model core: cost values, sample-size bounds, step functions, finite ERM,
and shattering probes.

A finite candidate set is its cost matrix: one row per candidate (an
algorithm index), one column per instance, with one optimization orientation
shared by all rows.  ERM (`erm_costs`) and the shattering probe
(`shatter_probe`) reduce such matrices.  Over a continuous parameter, each
instance's cost is piecewise constant, and a batch of instances is one
`StepFunctions`: `at` reads it into such a matrix on a grid, and
`argmax_sum` finds the best piece of its sum.  Everything here treats costs
as plain floats in [0, H]; the families that produce the matrices (greedy
heuristics, gradient descent) and the sorter live in the sibling modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


@dataclass(frozen=True)
class CostValue:
    """A single performance measurement."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"cost must be finite and >= 0, got {self.value!r}")


def sample_size(epsilon: float, delta: float, H: float, d: float) -> int:
    """Number of samples sufficient for uniform convergence to error epsilon.

    `d` is the pseudo-dimension of the family (or log2 of its size for a
    finite family) and `H` the cost range bound.  Evaluates
    ceil((H / epsilon)^2 * (d + ln(1/delta))), clamped to >= 1; the leading
    constant, which theory leaves unspecified, is taken as 1.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if H <= 0:
        raise ValueError("H must be > 0")
    if d < 0:
        raise ValueError("d must be >= 0")
    return max(1, math.ceil((H / epsilon) ** 2 * (d + math.log(1.0 / delta))))


@dataclass(frozen=True)
class ErrorReport:
    """Outcome of an ERM run: the chosen index and its empirical means.

    `erm_costs` has no held-out set: it reports the training mean as
    `holdout_mean` and 0 as `estimated_error`.  A caller with held-out samples
    fills both in (`greedy.erm_breakpoint`: the held-out mean at the choice
    and its gap to the best held-out mean over the whole interval).
    """

    chosen: object
    train_mean: float
    holdout_mean: float
    estimated_error: float


def _best_index(means: np.ndarray, orientation: str) -> int:
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation: {orientation!r}")
    # argmax/argmin return the first optimum, which is the smallest index.
    return int(np.argmax(means) if orientation == MAXIMIZE else np.argmin(means))


@dataclass(frozen=True, eq=False)
class StepFunctions:
    """Costs on a batch of fixed instances, each a piecewise-constant function of rho.

    Row i has the sorted change points `points[offsets[i]:offsets[i + 1]]` and
    the values `values[offsets[i] + i:offsets[i + 1] + i + 1]`, one per open
    piece between them (the end pieces are unbounded).  Equal neighbouring
    pieces of a row are merged when built, never across rows.  Reads are
    right-continuous.  A value taken only exactly at a change point is not
    represented: claims built on this type are about the open pieces.
    """

    points: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        offsets = np.asarray(self.offsets, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        rows = offsets.size - 1
        if (points.ndim != 1 or offsets.ndim != 1 or rows < 0 or offsets[0] != 0
                or offsets[-1] != points.size or (np.diff(offsets) < 0).any()):
            raise ValueError("need 1-D points and nondecreasing offsets from 0 to len(points)")
        if values.shape != (points.size + rows,):
            raise ValueError("need one value per piece (len(points) + rows)")
        owner = np.repeat(np.arange(rows), np.diff(offsets))  # the row of each change point
        if (np.diff(points)[owner[1:] == owner[:-1]] <= 0).any():
            raise ValueError("change points must be strictly increasing within a row")
        right = np.arange(points.size) + owner + 1  # the value just right of each change point
        change = values[right] != values[right - 1]
        object.__setattr__(self, "points", points[change])
        object.__setattr__(self, "offsets", np.concatenate([[0], np.cumsum(change)])[offsets])
        # Each row's first value is kept; it lands at offsets[i] + i.
        object.__setattr__(self, "values", values[np.insert(change, offsets[:-1], True)])

    def _rows(self, grid: np.ndarray):
        """Row by row, `values_i[np.searchsorted(points_i, grid, side="right")]`
        (a float for a row without change points); `grid` in any order."""
        offsets, values = self.offsets, self.values
        order = np.argsort(grid, kind="stable")
        rank = None if (order[1:] > order[:-1]).all() else np.argsort(order)
        ends = np.searchsorted(grid[order], self.points)  # one search; a row repeats a value per grid point
        runs = np.insert(ends, offsets[1:], grid.size) - np.insert(ends, offsets[:-1], 0)
        bounds = (offsets + np.arange(offsets.size)).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            row = float(values[a]) if b - a == 1 else np.repeat(values[a:b], runs[a:b])
            yield row if rank is None or b - a == 1 else row[rank]

    def at(self, grid) -> np.ndarray:
        """Every row at every grid point: a C-ordered (len(grid), rows) matrix."""
        grid = np.asarray(grid, dtype=float)
        costs = np.empty((grid.size, self.offsets.size - 1))
        for i, row in enumerate(self._rows(grid)):
            costs[:, i] = row
        return costs

    def argmax_sum(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact best piece of [lo, hi] for the sum of the rows.

        The union of the change points cuts [lo, hi] into pieces, each totalled
        over the rows in row order: bit-equal to a running `+=` of the same
        values at any rho inside the piece.  The first maximum (the smallest
        rho) wins.  Returns (midpoint of the best piece, its total).
        """
        union = np.unique(self.points)
        left_ends = np.concatenate([[-np.inf], union])
        totals = np.zeros(left_ends.size)
        for row in self._rows(left_ends):
            totals += row
        best = int(np.argmax(totals))
        mids, _ = piece_midpoints(union, np.array([0, union.size]), lo, hi)
        return float(mids[best]), float(totals[best])


def piece_midpoints(points: np.ndarray, offsets: np.ndarray, lo: float, hi: float):
    """The midpoint of every piece of [lo, hi] that each row's sorted points
    (`points[offsets[i]:offsets[i + 1]]`) cut it into, and each piece's row:
    (mids, owner), in the layout of `StepFunctions.values`."""
    mids = (np.insert(points, offsets[:-1], lo) + np.insert(points, offsets[1:], hi)) / 2.0
    return mids, np.repeat(np.arange(offsets.size - 1), np.diff(offsets) + 1)


def merge_close(points: np.ndarray, rtol: float) -> np.ndarray:
    """Sorted `points` less near-duplicates: each point is kept only if it lies
    more than rtol * max(1, |p|) above the last point kept.  Only a point that
    close to its predecessor can be dropped, so the scan visits just those."""
    tol = rtol * np.maximum(1.0, np.abs(points))
    keep = np.ones(points.size, dtype=bool)
    for i in (np.flatnonzero(np.diff(points) <= tol[1:]) + 1).tolist():
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = points[i] - points[last] > tol[i]
    return points[keep]


def erm_costs(indices: Sequence, train: np.ndarray, orientation: str) -> ErrorReport:
    """ERM over a finite candidate set, given as its cost matrix (len(indices) x samples).

    Means are taken over axis 1 of the C-ordered matrix; the first optimum
    (the smallest index) wins.
    """
    train = np.asarray(train, dtype=float)
    if len(indices) == 0 or train.ndim != 2 or train.shape[0] != len(indices):
        raise ValueError(f"need at least one index and one cost row per index, got shape "
                         f"{train.shape} for {len(indices)} indices")
    if not np.isfinite(train).all():
        raise ValueError("costs must be finite")
    if train.shape[1] == 0:
        raise ValueError("need at least one sample")
    train_means = train.mean(axis=1)
    best = _best_index(train_means, orientation)
    return ErrorReport(indices[best], float(train_means[best]), float(train_means[best]), 0.0)


@dataclass(frozen=True)
class ShatterReport:
    """Result of probing one instance set for pseudo-shattering."""

    set_size: int
    shattered: bool
    witnesses: tuple | None
    labeling_count: int


def _witness_grids(costs: np.ndarray) -> list[np.ndarray]:
    """Candidate witnesses per instance: midpoints between consecutive distinct costs.

    Binary labelings only change as the witness crosses a realized cost value,
    so midpoints cover every achievable labeling column.  An instance on which
    all candidates agree gets its single cost value as a placeholder witness
    (it can never split the candidates).
    """
    grids = []
    for j in range(costs.shape[1]):
        distinct = np.unique(costs[:, j])
        if distinct.size < 2:
            grids.append(distinct)
        else:
            grids.append((distinct[:-1] + distinct[1:]) / 2.0)
    return grids


def realized_labelings(costs: np.ndarray, witnesses: Sequence[float]) -> int:
    """Number of distinct above/below labelings the candidate rows realize."""
    bits = costs > np.asarray(witnesses, dtype=float)[None, :]
    codes = bits @ (1 << np.arange(costs.shape[1]))
    return int(np.unique(codes).size)


# Most witness vectors `shatter_probe` tries on one instance set.
_WITNESS_SEARCH_LIMIT = 5_000_000

# Largest instance set `shatter_probe` probes.
_SET_SIZE_CAP = 4


def shatter_probe(costs: np.ndarray, column_sets: Sequence[Sequence[int]]) -> list[ShatterReport]:
    """Search witness vectors certifying that each instance set is shattered.

    `costs` is the (candidates x instances) cost matrix of a finite candidate
    set, and each instance set is a list of its column indices.  A set of size
    s is shattered when some witness vector makes the candidates realize all
    2^s labelings.  The search runs over the finite grid of per-instance cost
    midpoints, which is exhaustive for this purpose.  Reported witnesses can
    be re-verified with `realized_labelings`.
    """
    costs = np.asarray(costs, dtype=float)
    reports = []
    for columns in column_sets:
        s = len(columns)
        if s > _SET_SIZE_CAP:
            raise ValueError(f"instance set of size {s} exceeds the cap of {_SET_SIZE_CAP}")
        sub = costs[:, np.asarray(columns, dtype=np.intp)]
        grids = _witness_grids(sub)
        total = math.prod(len(g) for g in grids)
        if total > _WITNESS_SEARCH_LIMIT:
            raise ValueError(f"witness search space of {total} combinations exceeds the cap of "
                             f"{_WITNESS_SEARCH_LIMIT}; reduce the candidate count or the set size")
        target = 2**s
        best_count, best_wit, shattered = 0, None, False
        for wit in product(*grids):
            count = realized_labelings(sub, wit)
            if count > best_count:
                best_count, best_wit = count, tuple(float(w) for w in wit)
            if count == target:
                shattered = True
                break
        reports.append(ShatterReport(s, shattered, best_wit if shattered else None, best_count))
    return reports
