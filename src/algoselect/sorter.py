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
When a sort passes the budget of `_BUDGET_FACTOR * n * log2(n)` comparisons
(an input from another distribution), the learned path stops and the input
is mergesorted: output correctness never depends on the learned structure.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A trained tree has at most n**_NODE_CAP_EXPONENT interior nodes, and a sort
# falls back to mergesort after _BUDGET_FACTOR * n * log2(n) comparisons.
_NODE_CAP_EXPONENT = 0.5
_BUDGET_FACTOR = 4.0


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


def _weight_balanced_tree(weights: np.ndarray, node_cap: int) -> dict:
    """Top-down weight-balanced tree over the bucket range, hot ranges first.

    Interior nodes `{"split": k, "left": ..., "right": ...}` test
    key < boundaries[k]: the left subtree holds the node's buckets up to k,
    the right one those from k + 1.  A leaf is `{}`; the splits above it fix
    its bucket range, which routing binary-searches.  The budget is spent on
    the heaviest ranges, which bounds expected routing depth for skewed
    distributions.
    """
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
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
        first_right = int(np.searchsorted(prefix[lo + 1:hi + 1], target) + lo + 1)
        first_right = min(max(first_right, lo + 1), hi)
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


def _route(tree: dict, key: float, boundaries: np.ndarray) -> tuple[int, int]:
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


def _insertion_sort(bucket: list, limit: float) -> int:
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
    """Bucket sort with instrumented comparisons and a mergesort safety net.

    The output is always a sorted permutation of the input; if the comparison
    budget is exhausted mid-flight the learned path is abandoned and the
    original input mergesorted instead (`fallback` in the stats).
    """
    values = np.asarray(array, dtype=float)
    if values.shape != (sorter.n,):
        raise ValueError(f"expected an array of length {sorter.n}")
    if np.isnan(values).any():
        raise ValueError("keys must not be NaN")
    buckets = [[] for _ in range(sorter.bucket_count)]
    budget = sorter.fallback_threshold
    routing = insertion = merge = 0
    for tree, key in zip(sorter.trees, values.tolist()):
        bucket, comparisons = _route(tree, key, sorter.boundaries)
        routing += comparisons
        if routing > budget:
            break
        buckets[bucket].append(key)
    for bucket in buckets:
        if routing + insertion > budget:
            break
        insertion += _insertion_sort(bucket, budget - routing - insertion)
    fallback = routing + insertion > budget
    if fallback:
        output, merge = mergesort_count(values.tolist())
    else:
        output = [key for bucket in buckets for key in bucket]
    occupancy = np.array([len(bucket) for bucket in buckets])
    return np.asarray(output), SortStats(routing, insertion, merge, fallback, occupancy)


def expected_route_depth(sorter: BucketSorter, position: int, weights: np.ndarray) -> float:
    """Expected comparisons to route position `position` under bucket weights.

    Every key of a bucket compares alike with every boundary, so routing the
    bucket's smallest key (-inf, then each boundary) gives its exact count.
    """
    weights = np.asarray(weights, dtype=float)
    keys = np.concatenate([[-math.inf], sorter.boundaries]).tolist()
    counts = [_route(sorter.trees[position], key, sorter.boundaries)[1] for key in keys]
    return float(np.dot(weights, counts) / weights.sum())


def sorter_to_json(sorter: BucketSorter) -> str:
    return json.dumps({"boundaries": sorter.boundaries.tolist(), "trees": sorter.trees})


def _check_tree(node, lo: int, hi: int) -> None:
    """Raise unless `node` is `{}` or a split k, lo <= k < hi, over valid subtrees."""
    if node != {}:
        split = node.get("split") if isinstance(node, dict) else None
        if type(split) is not int or set(node) != {"split", "left", "right"} or not lo <= split < hi:
            raise ValueError(f"tree node over buckets {lo}..{hi} is not {{}} or a split inside them")
        _check_tree(node["left"], lo, split)
        _check_tree(node["right"], split + 1, hi)


def sorter_from_json(text: str) -> BucketSorter:
    payload = json.loads(text)
    for tree in payload["trees"]:
        _check_tree(tree, 0, len(payload["boundaries"]))
    return BucketSorter(payload["boundaries"], payload["trees"])


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
