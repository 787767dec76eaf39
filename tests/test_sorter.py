import json
import math

import numpy as np
import pytest

from algoselect.sorter import (
    BucketSorter,
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
        from algoselect.sorter import _route

        keys = np.concatenate([rng.uniform(-0.2, 1.2, 500), sorter.boundaries])
        for key in keys:
            for tree in sorter.trees:
                bucket, _ = _route(tree, float(key), sorter.boundaries)
                assert bucket == int(np.searchsorted(sorter.boundaries, key, side="right"))


class TestEfficiency:
    def test_expected_depth_bound_uniform(self):
        rng = np.random.default_rng(6)
        n = 64
        sorter = train_sorter(uniform_samples(rng, 1000, n))
        weights = np.ones(sorter.bucket_count)
        for position in range(0, n, 7):
            depth = expected_route_depth(sorter, position, weights)
            assert depth <= math.log2(n) + 2

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
