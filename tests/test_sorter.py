import json
import math

import numpy as np
import pytest

from _grid_oracles import route, scalar_sort
from algoselect.sorter import (
    BucketSorter,
    SortStats,
    _merge_comparisons,
    expected_route_depth,
    load_arrays_csv,
    mergesort_count,
    save_arrays_csv,
    sort,
    sorter_from_json,
    sorter_to_json,
    train_sorter,
)


def uniform_samples(rng, count, n):
    return [rng.uniform(0.0, 1.0, n) for _ in range(count)]


def skewed_samples(rng, count, n, spread=0.3):
    """Each position concentrates near its own location: low per-position entropy."""
    centers = (np.arange(n) + 0.5) / n
    half = spread / n
    return [np.clip(centers + rng.uniform(-half, half, n), 0.0, 1.0) for _ in range(count)]


class TestTraining:
    def test_single_sample_boundaries_are_order_statistics(self):
        sample = np.array([0.4, 0.1, 0.9, 0.6])
        sorter = train_sorter([sample])
        assert np.array_equal(sorter.boundaries, np.sort(sample))

    def test_constant_arrays_collapse_boundaries(self):
        sorter = train_sorter([np.full(6, 0.5) for _ in range(10)])
        assert sorter.boundaries.tolist() == [0.5]
        out, stats = sort(sorter, np.full(6, 0.5))
        assert np.array_equal(out, np.full(6, 0.5))
        assert not stats.fallback

    def test_pooled_mass_roughly_even(self):
        rng = np.random.default_rng(0)
        samples = uniform_samples(rng, 200, 32)
        sorter = train_sorter(samples)
        pooled = np.concatenate(samples)
        counts = np.bincount(
            np.searchsorted(sorter.boundaries, pooled, side="right"),
            minlength=sorter.bucket_count,
        )
        # All mass buckets hold about len(samples) values each.
        assert counts[:-1].max() <= 2 * len(samples)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            train_sorter([np.zeros(4), np.zeros(5)])
        with pytest.raises(ValueError):
            train_sorter([])


class TestSortCorrectness:
    def test_matches_reference_sort(self):
        rng = np.random.default_rng(1)
        sorter = train_sorter(uniform_samples(rng, 50, 48))
        for _ in range(50):
            arr = rng.uniform(0, 1, 48)
            out, stats = sort(sorter, arr)
            assert np.array_equal(out, np.sort(arr))
            assert stats.comparisons == (
                stats.routing_comparisons + stats.insertion_comparisons + stats.merge_comparisons
            )
            if not stats.fallback:
                assert stats.merge_comparisons == 0
                assert stats.occupancy.sum() == 48

    def test_sorted_input_is_fixed_point(self):
        rng = np.random.default_rng(2)
        sorter = train_sorter(uniform_samples(rng, 30, 32))
        arr = np.sort(rng.uniform(0, 1, 32))
        out, _ = sort(sorter, arr)
        assert np.array_equal(out, arr)

    def test_out_of_distribution_triggers_fallback_and_stays_correct(self):
        rng = np.random.default_rng(3)
        sorter = train_sorter(uniform_samples(rng, 50, 128))
        # Everything lands in one bucket, descending: quadratic insertion cost.
        adversarial = np.linspace(1e-4, 9e-5, 128)
        out, stats = sort(sorter, adversarial)
        assert stats.fallback
        assert np.array_equal(out, np.sort(adversarial))
        assert stats.merge_comparisons > 0
        budget = sorter.fallback_threshold
        assert stats.routing_comparisons + stats.insertion_comparisons <= budget + 1

    def test_routing_abort_falls_back(self):
        # Every tree is the chain of splits 0..10: a key above every boundary
        # takes 11 comparisons, so the third such key passes the budget of 32.
        def chain(k):
            return {} if k == 11 else {"split": k, "left": {}, "right": chain(k + 1)}

        sorter = BucketSorter(np.linspace(0.05, 0.55, 11), [chain(0) for _ in range(4)])
        assert sorter.fallback_threshold == 32
        arr = np.array([0.99, 0.98, 0.97, 0.96])
        out, stats = sort(sorter, arr)
        assert stats.fallback
        assert stats.insertion_comparisons == 0
        assert stats.routing_comparisons == 33
        assert stats.occupancy.sum() == 2
        assert np.array_equal(out, np.sort(arr))

    def test_nan_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="NaN"):
            train_sorter([np.array([0.1, 0.2]), np.array([0.3, np.nan])])
        sorter = train_sorter(uniform_samples(rng, 5, 4))
        with pytest.raises(ValueError, match="NaN"):
            sort(sorter, np.array([0.5, np.nan, 0.1, 0.2]))
        with pytest.raises(ValueError, match="NaN"):
            BucketSorter([0.2, np.nan, 0.5], [{}])
        with pytest.raises(ValueError, match="NaN"):
            BucketSorter([np.nan], [{}])

    def test_infinite_keys_sort(self):
        rng = np.random.default_rng(12)
        sorter = train_sorter(uniform_samples(rng, 5, 4) + [np.array([-np.inf, 0.5, np.inf, 0.2])])
        arr = np.array([np.inf, 0.3, -np.inf, 0.9])
        out, _ = sort(sorter, arr)
        assert np.array_equal(out, np.sort(arr))

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        sorter = train_sorter(uniform_samples(rng, 5, 16))
        with pytest.raises(ValueError):
            sort(sorter, np.zeros(17))


class TestBucketMonotonicity:
    def test_routing_agrees_with_direct_scan(self):
        rng = np.random.default_rng(5)
        sorter = train_sorter(uniform_samples(rng, 40, 24))
        keys = np.concatenate([rng.uniform(-0.2, 1.2, 500), sorter.boundaries])
        for key in keys:
            for tree in sorter.trees:
                bucket, _ = route(tree, float(key), sorter.boundaries)
                assert bucket == int(np.searchsorted(sorter.boundaries, key, side="right"))


def chain_sorter(n: int, splits: int = 0) -> BucketSorter:
    """Every tree is the chain of splits 0..splits-1: a key of bucket b takes
    min(b + 1, splits) comparisons.  By default the chain is long enough for
    routing alone to pass the budget."""
    splits = splits or 8 * math.ceil(math.log2(max(n, 2)))

    def chain(k):
        return {} if k == splits else {"split": k, "left": {}, "right": chain(k + 1)}

    return BucketSorter(np.linspace(0.05, 0.55, splits), [chain(0) for _ in range(n)])


def assert_sorts_like_the_oracle(sorter, array) -> SortStats:
    out, stats = sort(sorter, array)
    want, expected = scalar_sort(sorter, array)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    for field in ("routing_comparisons", "insertion_comparisons", "merge_comparisons", "fallback"):
        assert getattr(stats, field) == getattr(expected, field), field
        assert type(getattr(stats, field)) is type(getattr(expected, field)), field
    assert stats.occupancy.dtype == expected.occupancy.dtype
    assert np.array_equal(stats.occupancy, expected.occupancy)
    return stats


# Integer budgets 4 * n * log2(n) at n = 4, 8; fractional ones at n = 3, 100.
BUDGET_SIZES = [4, 8, 3, 100]


class TestAgainstScalarSorter:
    """`sort` against the one-key-at-a-time oracle: the same output bytes and
    the same five `SortStats` fields."""

    @pytest.mark.parametrize("n", BUDGET_SIZES)
    def test_tie_heavy_integer_keys(self, n):
        rng = np.random.default_rng(20 + n)
        sorter = train_sorter([rng.integers(0, 5, n).astype(float) for _ in range(20)])
        for _ in range(40):
            assert_sorts_like_the_oracle(sorter, rng.integers(-1, 6, n).astype(float))

    @pytest.mark.parametrize("n", BUDGET_SIZES)
    def test_signed_zeros_and_infinities(self, n):
        rng = np.random.default_rng(30 + n)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        sorter = train_sorter([rng.choice(pool, n) for _ in range(10)])
        for _ in range(40):
            assert_sorts_like_the_oracle(sorter, rng.choice(pool, n))
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        out, _ = sort(sorter, zeros)
        assert np.array_equal(np.signbit(out), np.signbit(zeros))  # equal keys keep their order

    @pytest.mark.parametrize("n", BUDGET_SIZES)
    def test_routing_aborts(self, n):
        rng = np.random.default_rng(40 + n)
        sorter = chain_sorter(n)
        smallest = np.concatenate([[0.0], sorter.boundaries])  # one key per bucket
        aborted = kept = 0
        for _ in range(300):
            keys = smallest[:rng.integers(1, smallest.size + 1)]
            stats = assert_sorts_like_the_oracle(sorter, rng.choice(keys, n))
            aborted += stats.fallback and stats.insertion_comparisons == 0
            kept += not stats.fallback
        assert aborted and kept

    def test_routing_at_the_budget_then_one_insertion(self):
        sorter = chain_sorter(4, splits=11)
        # 11 + 10 + 10 + 1 = 32 routing comparisons, the whole budget: the
        # two keys of bucket 9 then take one insertion comparison too many.
        b9 = sorter.boundaries[8]
        stats = assert_sorts_like_the_oracle(sorter, np.array([0.99, b9, b9, 0.0]))
        assert stats.routing_comparisons == 32
        assert stats.insertion_comparisons == 1 and stats.fallback

    @pytest.mark.parametrize("n", BUDGET_SIZES)
    def test_insertion_aborts(self, n):
        rng = np.random.default_rng(50 + n)
        sorter = chain_sorter(n)
        aborted = 0
        # Every key in one bucket, descending, ascending or tied: the bucket
        # sets the routing cost and so how much budget insertion has left.
        for low in np.concatenate([[0.0], sorter.boundaries]):
            rising = low + np.sort(rng.uniform(0, 1e-3, n))
            for array in (rising[::-1], rising, np.full(n, low)):
                stats = assert_sorts_like_the_oracle(sorter, array)
                aborted += stats.fallback and stats.insertion_comparisons > 0
        assert aborted

    @pytest.mark.parametrize("n", BUDGET_SIZES)
    def test_concentrated_arrays_of_a_trained_sorter(self, n):
        rng = np.random.default_rng(55 + n)
        sorter = train_sorter([rng.uniform(0, 1, n) for _ in range(30)])
        for _ in range(20):
            concentrated = rng.uniform(0.3, 0.7) + np.sort(rng.uniform(0, 1e-4, n))
            assert_sorts_like_the_oracle(sorter, concentrated[::-1])
            assert_sorts_like_the_oracle(sorter, concentrated)

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_lengths(self, n):
        rng = np.random.default_rng(60 + n)
        sorter = train_sorter([rng.uniform(0, 1, n) for _ in range(5)])
        stats = assert_sorts_like_the_oracle(sorter, rng.uniform(0, 1, n))
        assert stats.insertion_comparisons == 0 and not stats.fallback

    def test_json_clone(self):
        rng = np.random.default_rng(70)
        sorter = train_sorter(skewed_samples(rng, 50, 40))
        clone = sorter_from_json(sorter_to_json(sorter))
        assert np.array_equal(clone._routing, sorter._routing)
        for arr in skewed_samples(rng, 20, 40) + uniform_samples(rng, 20, 40):
            assert_sorts_like_the_oracle(clone, arr)

    def test_random_sorters_and_inputs(self):
        rng = np.random.default_rng(80)
        draws = [
            lambda n: rng.uniform(0, 1, n),
            lambda n: rng.integers(0, 4, n).astype(float),
            lambda n: rng.choice([-np.inf, -0.0, 0.0, 1.0, np.inf], n),
            lambda n: skewed_samples(rng, 1, n)[0] if n else np.zeros(0),
        ]
        fallbacks = 0
        for case in range(400):
            n, draw = int(rng.integers(0, 40)), draws[case % len(draws)]
            sorter = train_sorter([draw(n) for _ in range(int(rng.integers(1, 20)))])
            for array in (draw(n), draw(n), rng.uniform(0, 1) - np.sort(rng.uniform(0, 1e-3, n))):
                fallbacks += assert_sorts_like_the_oracle(sorter, array).fallback
        assert fallbacks > 0

    def test_table_matches_routing_each_buckets_smallest_key(self):
        rng = np.random.default_rng(90)
        for sorter in (train_sorter(uniform_samples(rng, 40, 24)),
                       train_sorter(skewed_samples(rng, 60, 50)), chain_sorter(3)):
            smallest = [-math.inf, *sorter.boundaries.tolist()]
            for tree, row in zip(sorter.trees, sorter._routing):
                routed = [route(tree, key, sorter.boundaries) for key in smallest]
                assert routed == [(b, int(count)) for b, count in enumerate(row)]

    def test_level_wise_merge_count_matches_mergesort_count(self):
        rng = np.random.default_rng(100)
        for n in range(301):
            for values in (rng.integers(0, max(1, n // 4), n).astype(float), rng.uniform(0, 1, n)):
                assert _merge_comparisons(values) == mergesort_count(values.tolist())[1], n


class TestEfficiency:
    def test_expected_depth_bound_uniform(self):
        rng = np.random.default_rng(6)
        n = 64
        sorter = train_sorter(uniform_samples(rng, 1000, n))
        weights = np.ones(sorter.bucket_count)
        for position in range(0, n, 7):
            depth = expected_route_depth(sorter, position, weights)
            assert depth <= math.log2(n) + 2

    def test_expected_depth_is_the_weighted_mean_of_routed_counts(self):
        rng = np.random.default_rng(13)
        sorter = train_sorter(skewed_samples(rng, 80, 30))
        smallest = [-math.inf, *sorter.boundaries.tolist()]
        for position in (0, 11, 29):
            weights = rng.uniform(0, 1, sorter.bucket_count)
            counts = [route(sorter.trees[position], key, sorter.boundaries)[1] for key in smallest]
            assert expected_route_depth(sorter, position, weights) == float(
                np.dot(weights, counts) / weights.sum())

    @pytest.mark.parametrize("position", [-1, 30, 2.0, None])
    def test_expected_depth_rejects_a_position_outside_the_array(self, position):
        sorter = train_sorter(uniform_samples(np.random.default_rng(14), 10, 30))
        with pytest.raises(ValueError, match="position"):
            expected_route_depth(sorter, position, np.ones(sorter.bucket_count))

    @pytest.mark.parametrize("fault", ["short", "nan", "inf", "negative", "zero"])
    def test_expected_depth_rejects_bad_weights(self, fault):
        sorter = train_sorter(uniform_samples(np.random.default_rng(15), 10, 30))
        weights = np.ones(sorter.bucket_count)
        if fault == "short":
            weights = weights[1:]
        elif fault == "zero":
            weights[:] = 0.0
        else:
            weights[3] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[fault]
        with pytest.raises(ValueError, match="weights"):
            expected_route_depth(sorter, 0, weights)

    def test_beats_mergesort_on_matched_skewed_inputs(self):
        rng = np.random.default_rng(7)
        n = 128
        sorter = train_sorter(skewed_samples(rng, 300, n))
        tests = skewed_samples(rng, 100, n)
        ours, merge, fallbacks = [], [], 0
        for arr in tests:
            out, stats = sort(sorter, arr)
            assert np.array_equal(out, np.sort(arr))
            ours.append(stats.comparisons)
            merge.append(mergesort_count(arr.tolist())[1])
            fallbacks += stats.fallback
        assert np.mean(ours) <= 3 * n * math.log2(n)
        assert np.mean(ours) <= np.mean(merge)
        assert fallbacks == 0

    def test_mergesort_count_matches_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            arr = rng.uniform(0, 1, 64)
            out, comparisons = mergesort_count(arr.tolist())
            assert out == sorted(arr.tolist())
            assert comparisons <= 64 * math.ceil(math.log2(64))


class TestSerialization:
    def test_json_roundtrip_preserves_behavior(self):
        rng = np.random.default_rng(9)
        sorter = train_sorter(uniform_samples(rng, 30, 20))
        clone = sorter_from_json(sorter_to_json(sorter))
        assert np.array_equal(clone.boundaries, sorter.boundaries)
        arr = rng.uniform(0, 1, 20)
        out_a, stats_a = sort(sorter, arr)
        out_b, stats_b = sort(clone, arr)
        assert np.array_equal(out_a, out_b)
        assert stats_a.comparisons == stats_b.comparisons

    @pytest.mark.parametrize("bad", [
        {"bucket": 0},
        {"range": [0, 4]},
        {"split": 4, "left": {}, "right": {}},
        {"split": -1, "left": {}, "right": {}},
        {"split": 1, "left": {}},
    ], ids=["bucket-leaf", "range-leaf", "split-out-of-range", "split-negative", "child-missing"])
    def test_malformed_tree_rejected_at_load(self, bad):
        payload = {"boundaries": [0.2, 0.4, 0.6, 0.8], "trees": [{}, bad]}
        with pytest.raises(ValueError, match="tree node"):
            sorter_from_json(json.dumps(payload))

    def test_malformed_tree_rejected_at_construction(self):
        # A directly built sorter checks its trees too: a bad root, then a bad
        # node below the root of the second tree.
        with pytest.raises(ValueError, match="tree node over buckets 0..1"):
            BucketSorter([0.5], [{"split": 3, "left": {}, "right": {}}])
        with pytest.raises(ValueError, match="tree node over buckets 2..4"):
            BucketSorter([0.2, 0.4, 0.6, 0.8], [{}, {"split": 1, "left": {}, "right": {"split": 1}}])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        arrays = uniform_samples(rng, 5, 12)
        path = tmp_path / "arrays.csv"
        save_arrays_csv(arrays, str(path))
        loaded = load_arrays_csv(str(path))
        assert len(loaded) == 5
        for a, b in zip(arrays, loaded):
            assert np.array_equal(a, b)

    def test_boundary_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            BucketSorter([0.5, 0.4], [{}, {}])
