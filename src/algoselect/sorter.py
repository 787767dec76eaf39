"""Self-improving bucket sort: learned boundaries, per-position search trees.

Training pools the sample arrays and places one bucket boundary at every
s-th order statistic, then builds a weight-balanced search tree per array
position from that position's empirical bucket frequencies (Laplace-smoothed).
Sorting routes each key through its position's tree, insertion-sorts the
buckets, and concatenates.  Positions whose distribution the training data
pinned down well are routed in O(1) comparisons, so well-matched inputs sort
in far fewer comparisons than a comparison-optimal oblivious sort.

A trained sorter is its boundaries and its trees; n, the tree size cap and
the comparison budget follow from the number of trees.  A tree is kept in
leaf form: its leaves left to right, each a bucket range and a depth, which
fix its shape and splits.  Training grows every position's tree in lockstep,
one split per tree per round, each at the heaviest splittable leaf of its
tree, so no step loops over positions or nodes.  `BucketSorter(boundaries,
trees)` takes dict trees (`{"split": k, "left": ..., "right": ...}`, a leaf
`{}`), checks them and builds from their leaves; a trained sorter renders
its `trees` as dicts when they are first read.  Every key of one bucket
takes the same route, so the sorter builds a routing table once from the
leaves: the comparisons a key of bucket b takes at position i, its leaf's
depth plus the binary-search steps inside the leaf's range.  A sort finds
all buckets with one `searchsorted`, sums its routing comparisons from the
table, and counts each bucket's insertion-sort comparisons from how many
earlier keys of the bucket are greater.  The counts are exactly those of
routing and inserting one key at a time.  When they pass the budget of
`_BUDGET_FACTOR * n * log2(n)` comparisons (an input from another
distribution), the learned path stops and the input is mergesorted, its
comparisons counted level by level over the mergesort's splits: output
correctness never depends on the learned structure.
"""

from __future__ import annotations

import bisect
import functools
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
    """Immutable trained sorter: boundaries plus one search tree per position.

    `BucketSorter(boundaries, trees)` takes dict trees and checks every node;
    `train_sorter` builds its sorter from the trees' leaf form instead and
    renders `trees` as dicts only when they are first read.
    """

    def __init__(self, boundaries, trees):
        self.boundaries = np.asarray(boundaries, dtype=float)
        if self.boundaries.ndim != 1:
            raise ValueError(f"boundaries must be a 1-D array, got shape {self.boundaries.shape}")
        if np.isnan(self.boundaries).any() or (np.diff(self.boundaries) <= 0).any():
            raise ValueError("boundaries must be strictly increasing and not NaN")
        self.trees = list(trees)
        self._set_leaves(len(self.trees), *_tree_leaves(self.trees, self.bucket_count))

    @classmethod
    def _from_leaves(cls, boundaries: np.ndarray, n: int, starts: np.ndarray,
                     depths: np.ndarray) -> BucketSorter:
        """A sorter from valid boundaries and n trees in leaf form."""
        sorter = cls.__new__(cls)
        sorter.boundaries = boundaries
        sorter._set_leaves(n, starts, depths)
        return sorter

    def _set_leaves(self, n: int, starts: np.ndarray, depths: np.ndarray) -> None:
        self.n = n
        self._leaves = (starts, depths)
        # Entry (i, b): the comparisons a key of bucket b takes at position i.
        self._routing = _routing_table(n, starts, depths, self.bucket_count)

    @functools.cached_property
    def trees(self) -> list:
        """One dict tree per position (see `_tree_leaves`)."""
        return _leaf_trees(self.n, *self._leaves, self.bucket_count)

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


def _tree_leaves(trees: list, bucket_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaf form of dict trees; rejects a malformed tree.

    An interior node `{"split": k, "left": ..., "right": ...}` tests
    key < boundaries[k]: the left subtree holds the node's buckets up to k,
    the right one those from k + 1.  A node must be `{}` (a leaf) or a split
    k, lo <= k < hi, of its bucket range lo..hi.
    """
    starts, depths = [], []
    for tree in trees:
        stack = [(tree, 0, bucket_count - 1, 0)]
        while stack:  # leaves come off the stack left to right
            node, lo, hi, depth = stack.pop()
            if node == {}:
                starts.append(lo)
                depths.append(depth)
                continue
            split = node.get("split") if isinstance(node, dict) else None
            if type(split) is not int or node.keys() != _NODE_KEYS or not lo <= split < hi:
                raise ValueError(f"tree node over buckets {lo}..{hi} is not {{}} or a split inside them")
            depth += 1
            stack += [(node["right"], split + 1, hi, depth), (node["left"], lo, split, depth)]
    return np.array(starts, dtype=np.intp), np.array(depths, dtype=np.intp)


def _leaf_trees(n: int, starts: np.ndarray, depths: np.ndarray, bucket_count: int) -> list:
    """The dict trees of a leaf form: each tree's leaf depths, left to right,
    fix its shape, and each split is the last bucket of its left subtree."""
    following = np.append(starts[1:], 0)
    lasts = (np.where(following == 0, bucket_count, following) - 1).tolist()
    depths = depths.tolist()
    leaf = 0

    def grow(depth):
        """The subtree at `depth` whose leftmost leaf is `leaf`, and its last bucket."""
        nonlocal leaf
        if depths[leaf] == depth:
            leaf += 1
            return {}, lasts[leaf - 1]
        left, split = grow(depth + 1)
        right, last = grow(depth + 1)
        return {"split": split, "left": left, "right": right}, last

    return [grow(0)[0] for _ in range(n)]


def _routing_table(n: int, starts: np.ndarray, depths: np.ndarray, bucket_count: int) -> np.ndarray:
    """Routing comparisons per (position, bucket), from the trees' leaf form.

    Every key of a bucket compares alike with every boundary, so it takes the
    bucket's route: the splits down to the leaf over the bucket, one per
    level of the leaf's depth, then a binary search of the leaf's range.
    """
    # Leaves tile the table row by row: a tree's first leaf starts at bucket 0.
    first = (np.cumsum(starts == 0) - 1) * bucket_count + starts
    sizes = np.diff(first, append=n * bucket_count)
    lengths, kind = np.unique(sizes, return_inverse=True)
    # Every comparison narrows a route's bucket range, so it makes fewer than bucket_count.
    dtype = np.min_scalar_type(bucket_count)
    searches = np.array([c for m in lengths.tolist() for c in _leaf_routes(m)], dtype=dtype)
    # Each table cell's entry of `searches`: where its leaf's size starts
    # there, plus the cell's offset into the leaf; one cumulative sum, in
    # place, of steps of 1 that jump at each leaf's first cell.
    base = (np.cumsum(lengths) - lengths)[kind]
    cells = np.ones(n * bucket_count, dtype=np.intp)
    cells[first] = base - np.concatenate([[0], (base + sizes - 1)[:-1]])
    table = searches[np.cumsum(cells, out=cells)]
    table += np.repeat(depths.astype(dtype), sizes)
    return table.reshape(n, bucket_count)


@functools.lru_cache(maxsize=None)
def _leaf_routes(size: int) -> tuple:
    """Comparisons to binary-search each bucket of a leaf over `size` buckets.

    The search goes on down as splits at the middle would, so the counts
    depend on a bucket's offset in the range, not on its start.
    """
    if size == 1:
        return (0,)
    mid = (size - 1) // 2
    return tuple(c + 1 for c in _leaf_routes(mid + 1) + _leaf_routes(size - 1 - mid))


def _grow_leaves(counts: np.ndarray, node_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Leaf form of every position's weight-balanced tree, grown in lockstep.

    Row i of `counts` holds position i's bucket weights, whole numbers of at
    least 1.  Each round splits, in every tree at once, the heaviest leaf of
    two or more buckets (ties to the one further left) at the boundary that
    best balances its halves: the right half starts at the first bucket
    whose predecessors in the leaf weigh at least half the leaf, or at the
    leaf's last bucket.  A tree over B buckets has such a leaf until it has
    B leaves, so every tree takes min(node_cap, B - 1) splits: the budget
    goes to the heaviest ranges, which bounds expected routing depth for
    skewed distributions.
    """
    n, width = counts.shape
    slots = min(node_cap, width - 1) + 1
    # Buckets are numbered across rows, row i's from i * width, and one prefix
    # sum runs over all of them, so it rises strictly and a row's weights are
    # differences of it.  A leaf's middle lies strictly inside its own range
    # of the prefix sums, where one search over all rows finds it; as the sums
    # are whole numbers, the first one at least the middle is the first one at
    # least the middle rounded up, an exact integer search.
    prefix = np.zeros(n * width + 1, dtype=np.int64)
    np.cumsum(counts, out=prefix[1:])
    buckets = n * width  # above every bucket number, so -lo only breaks ties of weight

    def rank(lo, hi):
        """Heavier first, then further left; -1 for a leaf of one bucket."""
        return np.where(lo < hi, (prefix[hi + 1] - prefix[lo]) * buckets - lo, -1)

    # Tree i's leaves, in slots i * slots onward: bucket ranges lo..hi and depths.
    lo = np.repeat(np.arange(n) * width, slots)
    hi = lo + width - 1
    depth = np.zeros_like(lo)
    ranks = np.full(n * slots, -1, dtype=np.int64)
    first = np.arange(n) * slots
    ranks[first] = rank(lo[first], hi[first])
    for leaves in range(1, slots):
        pick = first + ranks.reshape(n, slots).argmax(axis=1)
        left, right, level = lo[pick], hi[pick], depth[pick] + 1
        middle = (prefix[left] + prefix[right + 1] + 1) // 2
        first_right = np.minimum(np.searchsorted(prefix, middle), right)
        # The left half stays in the leaf's slot; the right half takes a new one.
        grown = first + leaves
        hi[pick], lo[grown], hi[grown] = first_right - 1, first_right, right
        depth[pick] = depth[grown] = level
        ranks[pick], ranks[grown] = rank(left, first_right - 1), rank(first_right, right)
    order = np.argsort(lo)  # tree by tree, left to right
    return lo[order] % width, depth[order]


def train_sorter(samples: Sequence) -> BucketSorter:
    """Learn boundaries and per-position trees from sample arrays.

    Boundaries are every s-th order statistic of the pooled values (s = number
    of samples), deduplicated; per-position bucket frequencies get +1
    smoothing so unseen buckets stay reachable, and weigh the trees, which
    grow in lockstep (`_grow_leaves`).
    """
    arrays = [np.asarray(a, dtype=float) for a in samples]
    if not arrays:
        raise ValueError("need at least one sample array")
    n = arrays[0].size
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("samples must be 1-D arrays of one length")
    stacked = np.stack(arrays)
    if np.isnan(stacked).any():
        raise ValueError("sample values must not be NaN")
    s = len(arrays)
    # Equal keys are alike to a boundary, so an unstable sort picks the same values.
    boundaries = np.unique(np.sort(stacked, axis=None)[s - 1::s])
    width = boundaries.size + 1
    cells = np.searchsorted(boundaries, stacked, side="right")
    del stacked  # each n x s temporary goes before the next is made
    cells += np.arange(n) * width
    counts = np.bincount(cells.ravel(), minlength=n * width).reshape(n, width)
    del cells
    counts += 1  # Laplace
    leaves = _grow_leaves(counts, _node_cap(n))
    del counts
    return BucketSorter._from_leaves(boundaries, n, *leaves)


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
    if not (isinstance(position, (int, np.integer)) and not isinstance(position, bool)
            and 0 <= position < sorter.n):
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
