"""Self-improving bucket sort: learned boundaries, per-position search trees.

Training pools the sample arrays and places one bucket boundary at every
s-th order statistic, then builds a weight-balanced search tree per array
position from that position's empirical bucket frequencies (Laplace-smoothed).
Sorting routes each key through its position's tree, insertion-sorts the
buckets, and concatenates.  Positions whose distribution the training data
pinned down well are routed in O(1) comparisons, so well-matched inputs sort
in far fewer comparisons than a comparison-optimal oblivious sort.

A trained sorter is its boundaries and its trees' splits; n, the tree size
cap and the comparison budget follow from the number of trees.  A leaf is
`{}`: the splits above it fix a bucket range, which routing binary-searches.
Every key of one bucket takes the same route, so the sorter builds a routing
table once from its trees: the comparisons a key of bucket b takes at
position i.  A sort finds all buckets with one `searchsorted`, sums its
routing comparisons from the table, and counts each bucket's insertion-sort
comparisons from how many earlier keys of the bucket are greater.  The
counts are exactly those of routing and inserting one key at a time.
When they pass the budget of `_BUDGET_FACTOR * n * log2(n)` comparisons
(an input from another distribution), the learned path stops and the input
is mergesorted, its comparisons counted level by level over the mergesort's
splits: output correctness never depends on the learned structure.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A trained tree has at most n**_NODE_CAP_EXPONENT interior nodes, and a sort
# falls back to mergesort after _BUDGET_FACTOR * n * log2(n) comparisons.
_NODE_CAP_EXPONENT = 0.5
_BUDGET_FACTOR = 4.0
_NODE_KEYS = frozenset({"split", "left", "right"})


@dataclass
class SortStats:
    """Comparison accounting for one sort call."""

    routing_comparisons: int
    insertion_comparisons: int
    merge_comparisons: int
    fallback: bool
    occupancy: np.ndarray

    @property
    def comparisons(self) -> int:
        return self.routing_comparisons + self.insertion_comparisons + self.merge_comparisons


class BucketSorter:
    """Immutable trained sorter: boundaries plus one search tree per position."""

    def __init__(self, boundaries, trees):
        self.boundaries = np.asarray(boundaries, dtype=float)
        if np.isnan(self.boundaries).any() or (np.diff(self.boundaries) <= 0).any():
            raise ValueError("boundaries must be strictly increasing and not NaN")
        self.trees = list(trees)
        self.n = len(self.trees)
        # Entry (i, b): the comparisons a key of bucket b takes at position i.
        self._routing = _routing_table(self.trees, self.bucket_count)

    @property
    def node_cap(self) -> int:
        return _node_cap(self.n)

    @property
    def fallback_threshold(self) -> float:
        return _BUDGET_FACTOR * self.n * math.log2(max(self.n, 2))

    @property
    def bucket_count(self) -> int:
        return self.boundaries.size + 1


def _node_cap(n: int) -> int:
    return max(1, int(n**_NODE_CAP_EXPONENT))


def _routing_table(trees: list, bucket_count: int) -> np.ndarray:
    """Routing comparisons per (position, bucket); rejects a malformed tree.

    Every key of a bucket compares alike with every boundary, so it takes the
    bucket's route: the splits down to the leaf over the bucket, then a binary
    search of the leaf's range.  A tree node must be `{}` or a split k,
    lo <= k < hi, of the node's bucket range lo..hi.
    """
    # Every comparison narrows a route's bucket range, so it makes fewer than bucket_count.
    table = np.empty((len(trees), bucket_count), dtype=np.min_scalar_type(bucket_count))
    for row, tree in zip(table, trees):
        counts = []
        stack = [(tree, 0, bucket_count - 1, 0)]
        while stack:  # leaves come off the stack left to right
            node, lo, hi, depth = stack.pop()
            if node == {}:
                counts += _leaf_routes(hi - lo + 1, depth)
                continue
            split = node.get("split") if isinstance(node, dict) else None
            if type(split) is not int or node.keys() != _NODE_KEYS or not lo <= split < hi:
                raise ValueError(f"tree node over buckets {lo}..{hi} is not {{}} or a split inside them")
            depth += 1
            stack += [(node["right"], split + 1, hi, depth), (node["left"], lo, split, depth)]
        row[:] = counts
    return table


@functools.lru_cache(maxsize=None)
def _leaf_routes(size: int, depth: int) -> tuple:
    """Comparisons to route each bucket of a leaf over `size` buckets at `depth`.

    The leaf's binary search goes on down as splits at the middle would, so
    the counts depend on a bucket's offset in the range, not on its start.
    """
    if size == 1:
        return (depth,)
    mid = (size - 1) // 2
    return _leaf_routes(mid + 1, depth + 1) + _leaf_routes(size - 1 - mid, depth + 1)


def _weight_balanced_tree(weights: np.ndarray, node_cap: int) -> dict:
    """Top-down weight-balanced tree over the bucket range, hot ranges first.

    Interior nodes `{"split": k, "left": ..., "right": ...}` test
    key < boundaries[k]: the left subtree holds the node's buckets up to k,
    the right one those from k + 1.  A leaf is `{}`; the splits above it fix
    its bucket range, which routing binary-searches.  The budget is spent on
    the heaviest ranges, which bounds expected routing depth for skewed
    distributions.
    """
    prefix = [0.0, *np.cumsum(weights).tolist()]
    heap = []

    def leaf(lo, hi):
        """A leaf over buckets lo..hi, queued for splitting by weight if it holds two or more."""
        node = {}
        if lo < hi:
            heapq.heappush(heap, (-(prefix[hi + 1] - prefix[lo]), lo, hi, node))
        return node

    root = leaf(0, weights.size - 1)
    budget = node_cap
    while heap and budget > 0:
        _, lo, hi, node = heapq.heappop(heap)
        # Split at the boundary that best balances the two halves.
        target = (prefix[lo] + prefix[hi + 1]) / 2.0
        first_right = min(bisect.bisect_left(prefix, target, lo + 1, hi + 1), hi)
        node["split"] = first_right - 1
        node["left"], node["right"] = leaf(lo, first_right - 1), leaf(first_right, hi)
        budget -= 1
    return root


def train_sorter(samples: Sequence) -> BucketSorter:
    """Learn boundaries and per-position trees from sample arrays.

    Boundaries are every s-th order statistic of the pooled values (s = number
    of samples), deduplicated; per-position bucket frequencies get +1
    smoothing so unseen buckets stay reachable.
    """
    arrays = [np.asarray(a, dtype=float) for a in samples]
    if not arrays:
        raise ValueError("need at least one sample array")
    n = arrays[0].size
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all sample arrays must share one length")
    stacked = np.stack(arrays)
    if np.isnan(stacked).any():
        raise ValueError("sample values must not be NaN")
    s = len(arrays)
    boundaries = np.unique(np.sort(stacked, axis=None, kind="stable")[s - 1::s])
    width = boundaries.size + 1
    cells = np.arange(n) * width + np.searchsorted(boundaries, stacked, side="right")
    counts = 1.0 + np.bincount(cells.ravel(), minlength=n * width).reshape(n, width)  # Laplace
    return BucketSorter(boundaries, [_weight_balanced_tree(row, _node_cap(n)) for row in counts])


def mergesort_count(values: Sequence[float]) -> tuple[list, int]:
    """Top-down mergesort with exact comparison counting (also the fallback)."""
    values = list(values)
    if len(values) <= 1:
        return values, 0
    mid = len(values) // 2
    left, cl = mergesort_count(values[:mid])
    right, cr = mergesort_count(values[mid:])
    merged, comparisons = [], cl + cr
    i = j = 0
    while i < len(left) and j < len(right):
        comparisons += 1
        if right[j] < left[i]:
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, comparisons


def sort(sorter: BucketSorter, array) -> tuple[np.ndarray, SortStats]:
    """Bucket sort with exact comparison counts and a mergesort safety net.

    The counts are those of routing each key through its position's tree,
    insertion-sorting each bucket and, once they pass the budget, mergesorting
    the original input instead (`fallback` in the stats).  The output is the
    stable sort of the input either way: the concatenated buckets are one, and
    so is the mergesort.
    """
    values = np.asarray(array, dtype=float)
    if values.shape != (sorter.n,):
        raise ValueError(f"expected an array of length {sorter.n}")
    if np.isnan(values).any():
        raise ValueError("keys must not be NaN")
    budget = sorter.fallback_threshold
    buckets = np.searchsorted(sorter.boundaries, values, side="right")
    routed = np.cumsum(sorter._routing[np.arange(sorter.n), buckets])
    # The key whose routing passes the budget is counted but not placed.
    placed = int(np.searchsorted(routed, budget, side="right"))
    routing = int(routed[min(placed, sorter.n - 1)]) if sorter.n else 0
    occupancy = np.bincount(buckets[:placed], minlength=sorter.bucket_count)
    insertion = merge = 0
    if placed == sorter.n:
        insertion = _insertion_comparisons(values, buckets, occupancy, budget - routing)
    fallback = routing + insertion > budget
    if fallback:
        merge = _merge_comparisons(values)
    return np.sort(values, kind="stable"), SortStats(routing, insertion, merge, fallback, occupancy)


def _insertion_comparisons(values: np.ndarray, buckets: np.ndarray, occupancy: np.ndarray,
                           limit: float) -> int:
    """Comparisons to insertion-sort every bucket, or floor(limit) + 1, where
    a one-at-a-time count stops, once they pass `limit`.

    The i-th key of a bucket (from 0) moves past the g earlier keys greater
    than it, one comparison each, then compares once more with the key it
    stops at, if there is one (g < i).
    """
    keys = values[np.argsort(buckets, kind="stable")].tolist()
    ends = np.cumsum(occupancy)
    comparisons = 0
    for b in np.flatnonzero(occupancy >= 2).tolist():
        inserted = []
        for i, key in enumerate(keys[ends[b] - occupancy[b]:ends[b]]):
            at = bisect.bisect_right(inserted, key)
            comparisons += i - at + (at > 0)
            if comparisons > limit:
                return math.floor(limit) + 1
            inserted.insert(at, key)
    return comparisons


def _merge_comparisons(values: np.ndarray) -> int:
    """`mergesort_count`'s comparisons, from the stable ranks of `values`.

    Ties broken by position, no two ranks are equal, and a merge of halves L
    and R compares every key but the tail left once the other half runs out:
    |L| + |R| - #{L > max R} - #{R > max L}.
    """
    positions, cuts, rivals = _merge_plan(values.size)
    if not cuts.size:
        return 0
    ranks = np.empty(values.size, dtype=np.intp)
    ranks[np.argsort(values, kind="stable")] = np.arange(values.size)
    merged = ranks[positions]
    peaks = np.maximum.reduceat(merged, cuts)
    return positions.size - int(np.count_nonzero(merged > peaks[rivals]))


@functools.lru_cache(maxsize=8)
def _merge_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every merge of `mergesort_count`'s top-down splits of n keys, level by
    level: the positions merged, where each half starts among them, and for
    each position the index of the other half."""
    positions, cuts, rivals = [], [], []
    segments = [(0, n)] if n >= 2 else []
    while segments:
        deeper = []
        for start, end in segments:
            mid = start + (end - start) // 2
            left = len(cuts)
            cuts += [len(positions), len(positions) + mid - start]
            positions += range(start, end)
            rivals += [left + 1] * (mid - start) + [left] * (end - mid)
            deeper += [(lo, hi) for lo, hi in ((start, mid), (mid, end)) if hi - lo >= 2]
        segments = deeper
    return tuple(np.array(a, dtype=np.intp) for a in (positions, cuts, rivals))


def expected_route_depth(sorter: BucketSorter, position: int, weights: np.ndarray) -> float:
    """Expected comparisons to route position `position` under bucket weights:
    the weighted mean of its routing-table row."""
    if not (isinstance(position, (int, np.integer)) and 0 <= position < sorter.n):
        raise ValueError(f"position must be an integer in 0..{sorter.n - 1}, got {position!r}")
    weights = np.asarray(weights, dtype=float)
    valid = weights.shape == (sorter.bucket_count,) and (np.isfinite(weights) & (weights >= 0)).all()
    total = weights.sum() if valid else 0.0
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"weights must be {sorter.bucket_count} finite non-negative numbers "
                         "with a positive finite sum")
    return float(np.dot(weights, sorter._routing[position]) / total)


def save_arrays_csv(arrays, path: str) -> None:
    with open(path, "w") as fh:
        for row in arrays:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_arrays_csv(path: str) -> list[np.ndarray]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(np.asarray([float(tok) for tok in line.split(",")]))
    return out
