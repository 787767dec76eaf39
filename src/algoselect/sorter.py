"""Self-improving bucket sort: learned boundaries, per-position search trees.

Training pools the sample arrays and places one bucket boundary at every
s-th order statistic, then builds a weight-balanced search tree per array
position from that position's empirical bucket frequencies (Laplace-smoothed).
Sorting routes each key through its position's tree, insertion-sorts the
buckets, and concatenates.  Positions whose distribution the training data
pinned down well are routed in O(1) comparisons, so well-matched inputs sort
in far fewer comparisons than a comparison-optimal oblivious sort.

Trees are capped in size; searches the capped tree cannot resolve fall back
to plain binary search over the remaining boundary range.  A global
comparison budget of `_BUDGET_FACTOR * n * log2(n)` guards against inputs
from a different distribution: when exceeded, the partial work is abandoned
and the original input is mergesorted (output correctness never depends on
the learned structure).
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

    comparisons: int
    routing_comparisons: int
    insertion_comparisons: int
    merge_comparisons: int
    fallback: bool
    occupancy: np.ndarray


class BucketSorter:
    """Immutable trained sorter; each `sort` call owns its counters."""

    def __init__(self, boundaries, trees, n, node_cap, fallback_threshold):
        self.boundaries = np.asarray(boundaries, dtype=float)
        if (np.diff(self.boundaries) <= 0).any():
            raise ValueError("boundaries must be strictly increasing")
        self.trees = list(trees)
        self.n = int(n)
        self.node_cap = int(node_cap)
        self.fallback_threshold = float(fallback_threshold)
        if len(self.trees) != self.n:
            raise ValueError("need one search tree per array position")

    @property
    def bucket_count(self) -> int:
        return self.boundaries.size + 1


def _weight_balanced_tree(weights: np.ndarray, node_cap: int) -> dict:
    """Top-down weight-balanced tree over the bucket range, hot ranges first.

    Interior nodes test key < boundaries[split]; leaves are [lo, hi] bucket
    ranges left to binary search (a single bucket is [k, k]).  The budget is
    spent on the heaviest ranges, which bounds expected routing depth for
    skewed distributions.
    """
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    heap = []

    def leaf(lo, hi):
        """A range leaf, queued for splitting by weight if it holds two or more buckets."""
        node = {"range": [lo, hi]}
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
        node.clear()
        # Left subtree holds buckets lo..first_right-1, i.e. keys below
        # boundaries[first_right - 1].
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
    s = len(arrays)
    pooled = np.sort(np.concatenate(arrays), kind="stable")
    boundaries = np.unique(pooled[s - 1::s])
    node_cap = max(1, int(n**_NODE_CAP_EXPONENT))
    counts = np.ones((n, boundaries.size + 1))  # Laplace smoothing
    stacked = np.stack(arrays)
    for i in range(n):
        buckets = np.searchsorted(boundaries, stacked[:, i], side="right")
        counts[i] += np.bincount(buckets, minlength=boundaries.size + 1)
    trees = [_weight_balanced_tree(counts[i], node_cap) for i in range(n)]
    threshold = _BUDGET_FACTOR * n * math.log2(max(n, 2))
    return BucketSorter(boundaries, trees, n, node_cap, threshold)


def _route(tree: dict, key: float, boundaries: np.ndarray) -> tuple[int, int]:
    """Walk the tree, then binary-search any unresolved range; returns
    (bucket, comparisons)."""
    comparisons = 0
    node = tree
    while "split" in node:
        comparisons += 1
        node = node["left"] if key < boundaries[node["split"]] else node["right"]
    lo, hi = node["range"]
    # Bucket k holds keys with boundaries[k-1] <= key < boundaries[k].
    low, high = lo, hi
    while low < high:
        mid = (low + high) // 2
        comparisons += 1
        if key < boundaries[mid]:
            high = mid
        else:
            low = mid + 1
    return low, comparisons


class _BudgetExceeded(Exception):
    """Carries the comparisons spent before the abort."""

    def __init__(self, comparisons: int):
        super().__init__(comparisons)
        self.comparisons = comparisons


def _insertion_sort(bucket: list, abort_above: float = math.inf) -> int:
    comparisons = 0
    for i in range(1, len(bucket)):
        key = bucket[i]
        j = i - 1
        while j >= 0:
            comparisons += 1
            if comparisons > abort_above:
                raise _BudgetExceeded(comparisons)
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
    buckets = [[] for _ in range(sorter.bucket_count)]
    routing = insertion = merge = 0
    occupancy = np.zeros(sorter.bucket_count, dtype=int)
    fallback = False
    budget = sorter.fallback_threshold
    try:
        for i, key in enumerate(values):
            bucket, comparisons = _route(sorter.trees[i], float(key), sorter.boundaries)
            routing += comparisons
            if routing > budget:
                raise _BudgetExceeded(0)
            buckets[bucket].append(float(key))
            occupancy[bucket] += 1
        output = []
        for bucket in buckets:
            insertion += _insertion_sort(bucket, abort_above=budget - routing - insertion)
            output.extend(bucket)
        result = np.asarray(output)
    except _BudgetExceeded as stop:
        insertion += stop.comparisons
        fallback = True
        merged, merge = mergesort_count(values.tolist())
        result = np.asarray(merged)
    total = routing + insertion + merge
    return result, SortStats(total, routing, insertion, merge, fallback, occupancy)


def expected_route_depth(sorter: BucketSorter, position: int, weights: np.ndarray) -> float:
    """Expected comparisons to route position `position` under bucket weights."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()

    def walk(node, depth):
        if "split" in node:
            return walk(node["left"], depth + 1) + walk(node["right"], depth + 1)
        lo, hi = node["range"]
        span = hi - lo + 1
        return weights[lo:hi + 1].sum() * (depth + math.ceil(math.log2(span)))

    return walk(sorter.trees[position], 0.0)


def sorter_to_json(sorter: BucketSorter) -> str:
    return json.dumps({
        "n": sorter.n,
        "boundaries": sorter.boundaries.tolist(),
        "trees": sorter.trees,
        "node_cap": sorter.node_cap,
        "fallback_threshold": sorter.fallback_threshold,
    })


def sorter_from_json(text: str) -> BucketSorter:
    payload = json.loads(text)
    return BucketSorter(payload["boundaries"], payload["trees"], payload["n"],
                        payload["node_cap"], payload["fallback_threshold"])


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
