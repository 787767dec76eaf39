import math

import numpy as np
import pytest

from algoselect.core import (
    MAXIMIZE,
    MINIMIZE,
    CostValue,
    StepFunctions,
    erm_costs,
    realized_labelings,
    sample_size,
    shatter_probe,
)


def table_costs(costs, samples):
    """Cost matrix (indices x samples) read from a dict[(index, instance)] -> cost table."""
    indices = sorted({i for i, _ in costs})
    return np.array([[costs[(i, x)] for x in samples] for i in indices], dtype=float)


def table_erm(costs, samples, orientation=MAXIMIZE):
    matrix = table_costs(costs, samples)
    return erm_costs(range(matrix.shape[0]), matrix, orientation)


class TestSampleSize:
    def test_unit_case(self):
        # (1)^2 * (0 + ln e) = 1
        assert sample_size(1.0, 1.0 / math.e, 1.0, 0.0) == 1

    def test_hand_evaluated_case(self):
        # 100 * (10 + ln 100) = 1460.517..., ceil -> 1461
        assert sample_size(0.1, 0.01, 1.0, 10.0) == 1461

    def test_doubling_H_quadruples_m(self):
        m = 1.0 * (1.0 / 0.05) ** 2 * (3.0 + math.log(10.0))
        assert sample_size(0.05, 0.1, 1.0, 3.0) == math.ceil(m)
        assert sample_size(0.05, 0.1, 2.0, 3.0) == math.ceil(4.0 * m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, delta=0.5, H=1.0, d=1.0),
            dict(epsilon=-1.0, delta=0.5, H=1.0, d=1.0),
            dict(epsilon=0.1, delta=0.0, H=1.0, d=1.0),
            dict(epsilon=0.1, delta=1.5, H=1.0, d=1.0),
            dict(epsilon=0.1, delta=0.5, H=0.0, d=1.0),
            dict(epsilon=0.1, delta=0.5, H=1.0, d=-1.0),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            sample_size(**kwargs)

    def test_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eps, delta = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            H, d = rng.uniform(0.1, 10.0), rng.uniform(0.0, 20.0)
            m = sample_size(eps, delta, H, d)
            assert sample_size(eps, delta, H, d + 1.0) >= m
            assert sample_size(eps, delta, H * 1.5, d) >= m
            assert sample_size(eps * 1.5, delta, H, d) <= m
            assert sample_size(eps, min(1.0, delta * 1.5), H, d) <= m

    def test_result_at_least_one(self):
        assert sample_size(10.0, 1.0, 0.1, 0.0) == 1


class TestCostValue:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CostValue(-0.5)
        with pytest.raises(ValueError):
            CostValue(float("nan"))


class TestErmFinite:
    def test_single_index(self):
        report = table_erm({(0, "x"): 0.3}, ["x"])
        assert report.chosen == 0
        assert report.estimated_error == 0.0
        assert report.train_mean == pytest.approx(0.3)

    def test_two_indices_maximize(self):
        costs = {(0, s): 1.0 for s in "abc"} | {(1, s): 0.5 for s in "abc"}
        report = table_erm(costs, "abc")
        assert report.chosen == 0
        assert report.train_mean == 1.0

    def test_two_indices_minimize(self):
        costs = {(0, s): 1.0 for s in "abc"} | {(1, s): 0.5 for s in "abc"}
        report = table_erm(costs, "abc", orientation=MINIMIZE)
        assert report.chosen == 1

    def test_tie_breaks_to_smallest_index(self):
        costs = {(i, s): 0.7 for i in range(4) for s in "ab"}
        assert table_erm(costs, "ab").chosen == 0

    def test_matches_exhaustive_recomputation(self):
        rng = np.random.default_rng(123)
        indices = list(range(5))
        samples = list(range(20))
        table = {(i, x): float(rng.uniform(0, 1)) for i in indices for x in samples}
        report = table_erm(table, samples)
        # Independent brute-force oracle: plain Python means, no numpy reuse.
        means = [sum(table[(i, x)] for x in samples) / len(samples) for i in indices]
        best = max(range(5), key=lambda i: (means[i], -i))
        assert report.chosen == best
        assert report.train_mean == pytest.approx(means[best], abs=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            table_erm({(0, "x"): 0.0}, [])

    def test_empty_index_list_rejected(self):
        with pytest.raises(ValueError):
            erm_costs((), np.empty((0, 1)), MAXIMIZE)

    @pytest.mark.parametrize(
        "indices, train, orientation",
        [
            ((0, 1), [[1.0, 1.0], [0.0, 0.0]], "maximise"),
            ((0, 1), [1.0, 0.0], MAXIMIZE),
            ((0, 1), [[[1.0], [0.0]]], MAXIMIZE),
            ((0, 1), [[1.0], [0.0], [0.5]], MAXIMIZE),
            ((0, 1), [[np.nan], [0.0]], MAXIMIZE),
        ],
        ids=["orientation", "1-d", "3-d", "train-rows", "nan"],
    )
    def test_rejects_bad_input(self, indices, train, orientation):
        with pytest.raises(ValueError):
            erm_costs(indices, np.asarray(train, dtype=float), orientation)


class TestShatterProbe:
    def test_equal_costs_not_shattered(self):
        costs = {(i, "x"): 0.5 for i in range(3)}
        (report,) = shatter_probe(table_costs(costs, ["x"]), [[0]])
        assert not report.shattered
        assert report.labeling_count == 1

    def test_two_distinct_costs_shattered(self):
        costs = {(0, "x"): 0.2, (1, "x"): 0.8}
        (report,) = shatter_probe(table_costs(costs, ["x"]), [[0]])
        assert report.shattered
        assert report.labeling_count == 2
        (witness,) = report.witnesses
        assert 0.2 < witness < 0.8
        assert realized_labelings(table_costs(costs, ["x"]), report.witnesses) == 2

    def test_pair_set_shattered_with_reverifiable_witnesses(self):
        # Four indices realizing all four (above/below, above/below) patterns.
        costs = {
            (0, "x"): 0.1, (0, "y"): 0.1,
            (1, "x"): 0.9, (1, "y"): 0.1,
            (2, "x"): 0.1, (2, "y"): 0.9,
            (3, "x"): 0.9, (3, "y"): 0.9,
        }
        matrix = table_costs(costs, ["x", "y"])
        (report,) = shatter_probe(matrix, [[0, 1]])
        assert report.shattered and report.labeling_count == 4
        assert realized_labelings(matrix, report.witnesses) == 4
        # Re-verify each subset is picked out by some index.
        wit = np.asarray(report.witnesses)
        patterns = {tuple(row) for row in (matrix > wit[None, :])}
        assert patterns == {(False, False), (True, False), (False, True), (True, True)}

    def test_monotone_family_not_shattered_at_size_two(self):
        # Costs move together across both instances: (lo, lo) and (hi, hi) only.
        costs = {(i, x): 0.1 * (i + 1) for i in range(4) for x in ("x", "y")}
        (report,) = shatter_probe(table_costs(costs, ["x", "y"]), [[0, 1]])
        assert not report.shattered
        assert report.labeling_count <= 3

    def test_size_cap_enforced(self):
        costs = {(0, x): float(x) for x in range(5)} | {(1, x): float(x) + 0.5 for x in range(5)}
        with pytest.raises(ValueError):
            shatter_probe(table_costs(costs, range(5)), [list(range(5))])

    def test_reports_one_per_set(self):
        costs = {(0, "x"): 0.2, (1, "x"): 0.8, (0, "y"): 0.5, (1, "y"): 0.5}
        reports = shatter_probe(table_costs(costs, ["x", "y"]), [[0], [1]])
        assert [r.shattered for r in reports] == [True, False]


def random_step(rng, lattice=np.arange(1, 8) / 8.0, palette=(0.1, 0.2, 0.7)):
    """Unmerged (points, values) on a small lattice, so neighbouring pieces,
    points of different functions and piece totals tie often."""
    points = np.sort(rng.choice(lattice, size=rng.integers(0, lattice.size + 1), replace=False))
    return points, rng.choice(palette, size=points.size + 1)


def brute_at(points, values, rho):
    return values[sum(p <= rho for p in points)]


def merged_step(points, values):
    """One step function with equal neighbouring pieces merged, as (points, values)."""
    points, values = np.asarray(points, dtype=float), np.asarray(values, dtype=float)
    change = values[1:] != values[:-1]
    return points[change], values[np.concatenate([[True], change])]


def one_row(points, values):
    return StepFunctions(points, [0, len(points)], values)


def batch_of(raw):
    """The `StepFunctions` batch of a list of (points, values) rows."""
    return StepFunctions(np.concatenate([p for p, _ in raw] + [np.empty(0)]),
                         np.cumsum([0] + [len(p) for p, _ in raw]),
                         np.concatenate([v for _, v in raw] + [np.empty(0)]))


def list_argmax_sum(raw, lo, hi):
    """`argmax_sum` by one search of each merged row into the union's left ends,
    totals added row by row."""
    rows = [merged_step(p, v) for p, v in raw]
    union = np.unique(np.concatenate([p for p, _ in rows] + [np.empty(0)]))
    left_ends = np.concatenate([[-np.inf], union])
    totals = np.zeros(left_ends.size)
    for points, values in rows:
        totals += values[np.searchsorted(points, left_ends, side="right")]
    best = int(np.argmax(totals))
    edges = np.concatenate([[lo], union, [hi]])
    return float((edges[best] + edges[best + 1]) / 2.0), float(totals[best])


class TestStepFunction:
    def test_merging_and_right_continuous_evaluation(self):
        rng = np.random.default_rng(61)
        probes = np.unique(np.concatenate([np.linspace(0.0, 1.0, 97), np.arange(9) / 8.0]))
        for _ in range(300):
            points, values = random_step(rng)
            f = one_row(points, values)
            assert np.isin(f.points, points).all()
            assert (f.values[1:] != f.values[:-1]).all()
            assert f.values.size == f.points.size + 1
            # Probes include every change point exactly, 0 and 1.
            assert f.at(probes)[:, 0].tolist() == [brute_at(points, values, r) for r in probes]

    def test_constant_and_validation(self):
        f = one_row([0.25, 0.5], [3.0, 3.0, 3.0])
        assert f.points.size == 0 and f.values.tolist() == [3.0]
        assert f.at([0.0, 0.25, 1.0])[:, 0].tolist() == [3.0, 3.0, 3.0]
        with pytest.raises(ValueError, match="increasing"):
            one_row([0.5, 0.25], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            one_row([0.5, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="one value per piece"):
            one_row([0.5], [1.0])

    @pytest.mark.parametrize("offsets, message", [
        ([1, 2], "from 0 to len"), ([0, 1], "from 0 to len"), ([0, 3], "from 0 to len"),
        ([], "from 0 to len"), ([0, 2, 1, 2], "nondecreasing"),
    ])
    def test_rejects_a_bad_layout(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            StepFunctions([0.25, 0.5], offsets, np.zeros(2 + max(len(offsets) - 1, 0)))

    def test_rejects_a_bad_row(self):
        with pytest.raises(ValueError, match="one value per piece"):
            StepFunctions([0.25, 0.5], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="one value per piece"):
            StepFunctions([0.25, 0.5], [0, 1, 2], np.zeros(5))
        with pytest.raises(ValueError, match="increasing within a row"):
            StepFunctions([0.1, 0.5, 0.5], [0, 1, 3], np.arange(5.0))
        with pytest.raises(ValueError, match="increasing within a row"):
            StepFunctions([0.1, 0.5, 0.3], [0, 1, 3], np.arange(5.0))

    def test_accepts_a_decrease_across_rows_and_rows_without_points(self):
        f = StepFunctions([0.5, 0.25, 0.75], [0, 0, 1, 1, 3, 3], np.arange(8.0))
        assert f.points.tolist() == [0.5, 0.25, 0.75]
        assert f.offsets.tolist() == [0, 0, 1, 1, 3, 3]
        assert f.at([0.0, 0.5, 1.0]).tolist() == [[0.0, 1.0, 3.0, 4.0, 7.0],
                                                   [0.0, 2.0, 3.0, 5.0, 7.0],
                                                   [0.0, 2.0, 3.0, 6.0, 7.0]]
        empty = StepFunctions([], [0], [])
        assert empty.at([0.5]).shape == (1, 0)
        assert empty.argmax_sum(0.0, 1.0) == (0.5, 0.0)

    def test_merges_within_a_row_but_never_across_rows(self):
        # Row 0 ends in 2.0 and row 1 starts in 2.0; row 1 is constant, row 2 steps down then back.
        f = StepFunctions([0.5, 0.5, 0.25, 0.5, 0.75], [0, 1, 2, 5],
                          [1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 2.0])
        assert f.points.tolist() == [0.5, 0.25, 0.75]
        assert f.offsets.tolist() == [0, 1, 1, 3]
        assert f.values.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0, 2.0]

    def test_at_on_an_unsorted_grid_with_repeats(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            raw = [random_step(rng) for _ in range(rng.integers(0, 6))]
            grid = rng.choice(np.arange(17) / 16.0, size=rng.integers(0, 40))
            got = batch_of(raw).at(grid)
            want = np.array([v[np.searchsorted(p, grid, side="right")] for p, v in raw]).T
            assert got.shape == (grid.size, len(raw)) and got.flags.c_contiguous
            assert np.array_equal(got, want.reshape(grid.size, len(raw)))

    def test_argmax_sum_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            raw = [random_step(rng) for _ in range(rng.integers(1, 6))]
            functions = batch_of(raw)
            rho, total = functions.argmax_sum(0.0, 1.0)
            # Pieces between the merged change points, valued from the raw pieces.
            edges = sorted({0.0, 1.0} | {float(p) for p in functions.points})
            mids = [(a + b) / 2.0 for a, b in zip(edges[:-1], edges[1:])]
            totals = []
            for mid in mids:
                running = 0.0
                for points, values in raw:
                    running += brute_at(points, values, mid)
                totals.append(running)
            best = max(totals)
            assert total == best
            assert rho == mids[totals.index(best)]  # the first (smallest) best piece

    def test_flat_sweep_matches_oracles_on_ties(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            raw = [random_step(rng) for _ in range(rng.integers(1, 6))]
            raw += [raw[i] for i in rng.integers(len(raw), size=rng.integers(0, 4))]  # identical rows
            raw = [raw[i] for i in rng.permutation(len(raw))]
            raw.insert(rng.integers(len(raw) + 1), (np.empty(0), np.array([0.2])))  # an empty row
            functions = batch_of(raw)
            got = functions.argmax_sum(0.0, 1.0)
            assert got == list_argmax_sum(raw, 0.0, 1.0)
            edges = sorted({0.0, 1.0} | set(functions.points.tolist()))
            mids = [(a + b) / 2.0 for a, b in zip(edges[:-1], edges[1:])]
            totals = []
            for mid in mids:
                running = 0.0
                for points, values in raw:
                    running += brute_at(points, values, mid)
                totals.append(running)
            assert got == (mids[totals.index(max(totals))], max(totals))  # the first best piece

    def test_tied_best_pieces_keep_the_first(self):
        rows = (np.array([0.25, 0.75]), np.array([0, 1, 2]), np.array([1.0, 0.0, 0.0, 1.0]))
        assert StepFunctions(*rows).argmax_sum(0.0, 1.0) == (0.125, 1.0)

    def test_argmax_sum_without_change_points(self):
        rho, total = StepFunctions([], [0, 0, 0, 0], [0.1] * 3).argmax_sum(0.0, 2.0)
        assert (rho, total) == (1.0, 0.1 + 0.1 + 0.1)
