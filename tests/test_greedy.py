import math
from fractions import Fraction

import numpy as np
import pytest

from _fixtures import (KNAPSACK_SIZE_PALETTE, KNAPSACK_VALUE_PALETTE, MWIS_WEIGHT_PALETTE,
                       crafted_shatter_pair)
from _grid_oracles import (adjacency_matrix, crossing_superset, grid_costs, grid_masks,
                           is_independent_set, knapsack_feasible, scalar_costs, total_weight)
from algoselect import greedy, online
from algoselect.core import shatter_probe
from algoselect.greedy import (
    KnapsackInstance,
    MwisInstance,
    ParamGreedyFamily,
    erm_breakpoint,
    greedy_cost,
    knapsack_family,
    load_knapsack,
    load_mwis,
    mwis_family,
    piece_costs,
    random_knapsack_instance,
    random_mwis_instance,
    run_greedy,
    save_knapsack,
    save_mwis,
)


def two_item_knapsack():
    return KnapsackInstance([4.0, 3.0], [4.0, 1.0], 4.0)


class TestRunGreedy:
    def test_edgeless_mwis_selects_everything(self):
        inst = MwisInstance(5, [], [0.2, 0.9, 0.4, 0.6, 1.0])
        for rho in (0.0, 0.3, 1.0):
            for adaptive in (False, True):
                sol, cost = run_greedy(mwis_family(5, adaptive=adaptive), rho, inst)
                assert sol == (0, 1, 2, 3, 4)
                assert cost.value == pytest.approx(3.1)

    def test_knapsack_slack_capacity(self):
        inst = KnapsackInstance([4.0, 2.0], [4.0, 2.0], 10.0)
        fam = knapsack_family(2)
        for rho in (0.0, 0.5, 1.0):
            sol, cost = run_greedy(fam, rho, inst)
            assert sol == (0, 1)
            assert cost.value == 6.0

    def test_knapsack_order_flip(self):
        # rho=0 packs by value (item 0, value 4); rho=1 packs by density
        # (item 1 first, after which item 0 no longer fits).
        fam = knapsack_family(2)
        inst = two_item_knapsack()
        sol0, cost0 = run_greedy(fam, 0.0, inst)
        assert sol0 == (0,) and cost0.value == 4.0
        sol1, cost1 = run_greedy(fam, 1.0, inst)
        assert sol1 == (1,) and cost1.value == 3.0
        assert type(cost0.value) is float and type(cost1.value) is float

    def test_rho_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            run_greedy(mwis_family(3), 1.5, MwisInstance(3, [], [0.1, 0.2, 0.3]))

    def test_instance_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            run_greedy(mwis_family(2), 0.5, two_item_knapsack())

    @pytest.mark.parametrize("kind,interval,n", [
        ("value-only", (0.0, 1.0), 3),
        ("mwis", (0.0, math.inf), 3),
        ("mwis", (math.nan, 1.0), 3),
        ("knapsack", (1.0, 0.5), 3),
        ("mwis-adaptive", (-0.5, 1.0), 3),
        ("knapsack", (0.0, 1.0), 0),
    ], ids=["unknown-kind", "inf-hi", "nan-lo", "lo-above-hi", "lo-below-0", "n-0"])
    def test_family_validation(self, kind, interval, n):
        with pytest.raises(ValueError):
            ParamGreedyFamily(kind, interval, n)

    def test_tie_break_is_lexicographic(self):
        # Equal weights and degrees: ids win, so vertex 0 blocks vertex 1.
        inst = MwisInstance(2, [(0, 1)], [0.5, 0.5])
        sol, _ = run_greedy(mwis_family(2), 0.7, inst)
        assert sol == (0,)

    def test_solutions_feasible_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = random_mwis_instance(9, 0.4, rng)
            for adaptive in (False, True):
                sol, cost = run_greedy(mwis_family(9, adaptive=adaptive), rng.uniform(0, 1), inst)
                assert is_independent_set(inst, sol)
                assert cost.value <= total_weight(inst) + 1e-12
            kinst = random_knapsack_instance(7, rng)
            sol, _ = run_greedy(knapsack_family(7), rng.uniform(0, 1), kinst)
            assert knapsack_feasible(kinst, sol)

    def test_adaptive_equals_nonadaptive_on_edgeless(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.05, 1.0, 8)
        inst = MwisInstance(8, [], weights)
        for rho in np.linspace(0, 1, 7):
            sol_a, _ = run_greedy(mwis_family(8, adaptive=True), rho, inst)
            sol_n, _ = run_greedy(mwis_family(8, adaptive=False), rho, inst)
            assert sol_a == sol_n == tuple(range(8))


def _oracle_graph(instance, rho):
    adj = [set() for _ in range(instance.n)]
    for u, v in instance.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    logw = [math.log(w) for w in instance.weights.tolist()]

    def score(v):
        return logw[v] - rho * math.log1p(len(adj[v]))

    return adj, score


def adaptive_picks(instance, rho):
    """The adaptive greedy's picks in order, over Python adjacency sets."""
    adj, score = _oracle_graph(instance, rho)
    chosen, alive = [], set(range(instance.n))
    while alive:
        v = min(alive, key=lambda v: (-score(v), v))
        chosen.append(v)
        removed = {v} | (adj[v] & alive)
        alive -= removed
        for r in removed:
            for x in adj[r]:
                adj[x].discard(r)
    return chosen


def first_fit_oracle(instance, rho, adaptive):
    """Greedy MWIS over Python adjacency sets, scores w / (1 + deg)^rho in
    log space, ties to the smaller id; residual degrees when adaptive."""
    if adaptive:
        return tuple(sorted(adaptive_picks(instance, rho)))
    adj, score = _oracle_graph(instance, rho)
    chosen = set()
    for v in sorted(range(instance.n), key=lambda v: (-score(v), v)):
        if not adj[v] & chosen:
            chosen.add(v)
    return tuple(sorted(chosen))


class TestLargeGraphPath:
    """The scalar path on graphs above the grid evaluators' 63-vertex limit."""

    @pytest.mark.parametrize("n,p", [(64, 0.1), (100, 0.3), (300, 0.02), (300, 0.1)])
    def test_matches_first_fit_oracle(self, n, p):
        rng = np.random.default_rng(n + int(100 * p))
        for palette in (None, MWIS_WEIGHT_PALETTE):
            weights = (rng.uniform(0.05, 1.0, n) if palette is None
                       else rng.choice(palette, size=n))  # repeats: exact ties
            inst = MwisInstance(n, random_mwis_instance(n, p, rng).edges, weights)
            for adaptive in (False, True):
                fam = mwis_family(n, adaptive=adaptive)
                for rho in (0.0, 0.37, 1.0):
                    sol, cost = run_greedy(fam, rho, inst)
                    assert sol == first_fit_oracle(inst, rho, adaptive)
                    assert cost.value == pytest.approx(math.fsum(weights[list(sol)]), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 64, 300])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5])
    def test_csr_matches_adjacency_matrix(self, n, p):
        rng = np.random.default_rng(n)
        inst = MwisInstance(n, random_mwis_instance(n, p, rng).edges, np.full(n, 0.5))
        adj = adjacency_matrix(inst)
        inst._build_csr()
        indptr, indices = inst._indptr, inst._indices
        assert indptr.dtype == indices.dtype == inst.degrees.dtype == np.int64
        assert inst.degrees.tolist() == adj.sum(axis=1).tolist()
        inst._build_runs()
        run_ptr, run_lo, run_hi = inst._runs
        assert run_ptr.dtype == run_lo.dtype == run_hi.dtype == np.int64
        for v in range(n):
            nbrs = indices[indptr[v]:indptr[v + 1]]
            assert nbrs.tolist() == np.flatnonzero(adj[v]).tolist()  # sorted
            # The same list as maximal runs of consecutive ids.
            lo, hi = run_lo[run_ptr[v]:run_ptr[v + 1]], run_hi[run_ptr[v]:run_ptr[v + 1]]
            assert (lo < hi).all() and (lo[1:] > hi[:-1]).all()
            assert [u for a, b in zip(lo.tolist(), hi.tolist()) for u in range(a, b)] == nbrs.tolist()

    def test_degrees_leave_the_csr_unbuilt(self):
        inst = MwisInstance(6, [(4, 1), (1, 3)], np.full(6, 0.5))
        assert inst.degrees.tolist() == [0, 2, 0, 1, 1, 0]
        greedy.cost_matrix(mwis_family(6, adaptive=True), [inst], [0.5])
        assert inst._indptr is None  # only a scalar run needs the neighbour lists
        run_greedy(mwis_family(6), 0.5, inst)
        assert inst._indptr is not None
        assert inst._runs is None  # only an exact run needs the neighbour runs

    def test_vertex_pairs_are_cached_read_only(self):
        pairs = greedy._vertex_pairs(7)
        assert greedy._vertex_pairs(7) is pairs
        assert np.array_equal(pairs, np.triu_indices(7, k=1))
        with pytest.raises(ValueError):
            pairs[0][0] = 1

    def test_csr_with_isolated_vertices(self):
        inst = MwisInstance(6, [(4, 1), (1, 3)], np.full(6, 0.5))
        inst._build_csr()
        assert inst.degrees.tolist() == [0, 2, 0, 1, 1, 0]
        assert inst._indptr.tolist() == [0, 0, 2, 2, 3, 4, 4]
        assert inst._indices.tolist() == [3, 4, 1, 1]


class TestCanonicalEdges:
    @staticmethod
    def canonical(n=300, p=0.05, seed=3):
        return random_mwis_instance(n, p, np.random.default_rng(seed)).edges

    def test_any_input_order_gives_the_canonical_bytes(self):
        canon = self.canonical()
        n, weights = 300, np.full(300, 0.5)
        rng = np.random.default_rng(4)
        flipped = canon.copy()
        flip = rng.random(len(canon)) < 0.5
        flipped[flip] = flipped[flip][:, ::-1]
        inputs = {
            "canonical": canon,
            "shuffled": canon[rng.permutation(len(canon))],
            "reversed": canon[::-1, ::-1],
            "duplicated": np.concatenate([canon, canon[:40], canon[::7, ::-1]]),
            "flipped": flipped,
            "list": canon.tolist(),
            "whole floats": canon.astype(float),
        }
        for name, edges in inputs.items():
            got = MwisInstance(n, edges, weights).edges
            assert got.dtype == np.int64 and got.flags.c_contiguous and got.flags.owndata, name
            assert got.tobytes() == canon.tobytes(), name

    def test_never_aliases_the_callers_array(self):
        canon = self.canonical()
        shuffled = canon[::-1].copy()
        for edges in (canon.copy(), shuffled):
            inst = MwisInstance(300, edges, np.full(300, 0.5))
            assert not np.shares_memory(inst.edges, edges)
            before = inst.edges.tobytes()
            edges[:] = 0
            assert inst.edges.tobytes() == before == canon.tobytes()

    def test_empty_edge_list(self):
        for edges in ([], np.empty((0, 2), dtype=np.int64), np.empty(0)):
            inst = MwisInstance(3, edges, [0.1, 0.2, 0.3])
            assert inst.edges.dtype == np.int64 and inst.edges.shape == (0, 2)


class TestGridEvaluators:
    def test_matches_scalar_path_mwis(self):
        rng = np.random.default_rng(17)
        rhos = np.linspace(0.0, 1.0, 41)
        for adaptive in (False, True):
            fam = mwis_family(8, adaptive=adaptive)
            for _ in range(10):
                inst = random_mwis_instance(8, 0.45, rng)
                masks = grid_masks(fam, rhos, inst)
                costs = grid_costs(fam, rhos, inst)
                for i, rho in enumerate(rhos):
                    sol, cost = run_greedy(fam, rho, inst)
                    assert tuple(np.flatnonzero(masks[i])) == sol
                    assert costs[i] == cost.value  # bitwise, same reduction

    def test_matches_scalar_path_knapsack(self):
        rng = np.random.default_rng(23)
        rhos = np.linspace(0.0, 2.0, 31)
        fam = knapsack_family(6, interval=(0.0, 2.0))
        for _ in range(10):
            inst = random_knapsack_instance(6, rng)
            masks = grid_masks(fam, rhos, inst)
            costs = grid_costs(fam, rhos, inst)
            for i, rho in enumerate(rhos):
                sol, cost = run_greedy(fam, rho, inst)
                assert tuple(np.flatnonzero(masks[i])) == sol
                assert costs[i] == cost.value


class TestBreakpoints:
    def test_knapsack_closed_form(self):
        # (v,s)=(4,4) vs (2,2): rho* = ln 2 / ln 2 = 1.
        fam = knapsack_family(2, interval=(0.0, 2.0))
        inst = KnapsackInstance([4.0, 2.0], [4.0, 2.0], 10.0)
        assert np.isclose(greedy._own_crossings(fam, inst), 1.0).any()

    def test_mwis_closed_form(self):
        # (w, 1+deg) = (0.5, 8) vs (0.25, 2): rho* = ln 2 / ln 4 = 0.5.
        edges = [(0, i) for i in range(1, 8)]  # star: center degree 7, leaves degree 1
        weights = [0.5, 0.25] + [0.25] * 6
        fam, star = mwis_family(8), MwisInstance(8, edges, weights)
        assert np.isclose(greedy._crossing_rows(fam, [star])[0], 0.5).any()
        # The center below 0.5, the seven leaves above.
        assert greedy.step_functions(fam, [star]).values.tolist() == [0.5, 1.75]

    def test_identical_attributes_no_breakpoint(self):
        inst = KnapsackInstance([4.0, 4.0], [4.0, 4.0], 10.0)
        fam = knapsack_family(2, interval=(0.0, 2.0))
        assert greedy._own_crossings(fam, inst).size == 0
        # One open piece: both endpoints and its midpoint.
        assert piece_costs(fam, [inst])[0].tolist() == [0.0, 1.0, 2.0]

    def test_count_bound(self):
        rng = np.random.default_rng(29)
        samples = [random_mwis_instance(7, 0.5, rng) for _ in range(4)]
        for adaptive in (False, True):
            fam = mwis_family(7, adaptive=adaptive)
            own = [greedy._crossing_rows(fam, [x])[0] for x in samples]
            # kappa = 1 crossing per attribute pair; only residual degrees churn (beta = n).
            s, n, beta = len(samples), 7, 7 if adaptive else 1
            assert sum(p.size for p in own) <= (s * n * beta) ** 2
            # Each enumerated point is a crossing of the test-side enumeration.
            superset = crossing_superset(fam, samples)
            assert all(np.abs(superset - r).min() <= 1e-9 for r in np.concatenate(own))

    def test_representatives_strictly_inside_subintervals(self):
        rng = np.random.default_rng(31)
        fam = mwis_family(8)
        samples = [random_mwis_instance(8, 0.4, rng) for _ in range(3)]
        points = np.unique(greedy.step_functions(fam, samples).points)
        assert points.size > 0
        lo, hi = fam.interval
        grid = np.concatenate([[lo], points, [hi]])
        assert (np.diff(grid) > 0).all()
        reps = piece_costs(fam, samples)[0]
        assert reps[0] == lo and reps[-1] == hi
        # One probe strictly inside every open piece, the boundary pieces included.
        assert reps.size == grid.size + 1
        for rep, left, right in zip(reps[1:-1], grid[:-1], grid[1:]):
            assert left < rep < right

    def test_degenerate_interval_single_probe(self):
        # The items cross at rho = ln 2 / ln 4 = 0.5 exactly, here lo = hi: an
        # endpoint, which its own runs cover, so not a crossing of the interval.
        inst = KnapsackInstance([4.0, 2.0], [4.0, 1.0], 4.0)
        assert greedy._own_crossings(knapsack_family(2), inst).tolist() == [0.5]
        fam = knapsack_family(2, interval=(0.5, 0.5))
        assert greedy._own_crossings(fam, inst).size == 0
        assert piece_costs(fam, [inst])[0].tolist() == [0.5]

    @pytest.mark.parametrize("interval", [(0.5, 0.5), (0.0, 0.5), (0.5, 1.0),
                                          (0.0, 0.5 + 1e-10), (0.5 - 1e-10, 1.0)])
    def test_crossing_within_noise_of_an_endpoint_is_left_out(self, interval):
        # The star's center and leaves cross at exactly 0.5 (`test_mwis_closed_form`).
        star = MwisInstance(8, [(0, i) for i in range(1, 8)], [0.5, 0.25] + [0.25] * 6)
        fam = mwis_family(8, interval)
        assert greedy._crossing_rows(fam, [star])[0].size == 0
        assert greedy.step_functions(fam, [star]).values.size == 1

    def test_cross_sample_pairs_are_not_crossings(self):
        # Each sample alone has no crossing; pairing attributes across the
        # two samples would give rho = ln 2 / ln 2 = 1.
        fam = knapsack_family(1, interval=(0.0, 2.0))
        samples = [KnapsackInstance([4.0], [4.0], 5.0), KnapsackInstance([2.0], [2.0], 5.0)]
        assert greedy.step_functions(fam, samples).points.size == 0
        assert piece_costs(fam, samples)[0].tolist() == [0.0, 1.0, 2.0]

    def test_piecewise_constancy(self):
        rng = np.random.default_rng(37)
        samples = [random_mwis_instance(7, 0.45, rng, weight_choices=MWIS_WEIGHT_PALETTE)
                   for _ in range(3)]
        for adaptive in (False, True):
            fam = mwis_family(7, adaptive=adaptive)
            grid = np.concatenate([[0.0], crossing_superset(fam, samples), [1.0]])
            for lo, hi in zip(grid[:-1], grid[1:]):
                probes = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
                for inst in samples:
                    masks = grid_masks(fam, probes, inst)
                    assert (masks == masks[0]).all()


def own_pieces(family, x):
    """A sample's own crossing grid, its piece midpoints, and which pieces are
    wider than the tolerance `piece_costs` merges points within."""
    lo, hi = family.interval
    grid = np.concatenate([[lo], greedy._own_crossings(family, x), [hi]])
    tol = greedy._BREAKPOINT_MERGE_RTOL * np.maximum(1.0, np.abs(grid[1:]))
    return grid, (grid[:-1] + grid[1:]) / 2.0, np.diff(grid) > tol


ADAPTIVE_WEIGHTS = ("palette", "powers-of-two", "uniform", "continuous")


def adaptive_weights(kind, n, rng):
    if kind == "palette":
        return rng.choice(MWIS_WEIGHT_PALETTE, n)
    if kind == "powers-of-two":
        return rng.choice(2.0 ** -np.arange(4), n)
    if kind == "uniform":
        return np.full(n, 0.5)
    return rng.uniform(0.05, 1.0, n)


class TestAdaptiveStepFunction:
    """The adaptive step function takes one run per execution window, not one
    per piece of the residual-degree superset; a scalar run is the oracle."""

    @pytest.mark.parametrize("weights", ADAPTIVE_WEIGHTS)
    def test_matches_scalar_runs_on_tie_heavy_inputs(self, weights):
        rng = np.random.default_rng(ADAPTIVE_WEIGHTS.index(weights))
        compared = 0
        for n in range(2, 11):
            for seed in range(12):
                edges = greedy.erdos_renyi_generator(n, (0.2, 0.4, 0.6)[seed % 3])(rng)
                x = MwisInstance(n, edges, adaptive_weights(weights, n, rng))
                fam = mwis_family(n, ((0.0, 1.0), (0.0, 2.0), (0.25, 0.75))[seed // 4], adaptive=True)
                lo, hi = fam.interval
                grid, mids, wide = own_pieces(fam, x)
                sf = greedy.step_functions(fam, [x])
                # Pieces narrower than the merge tolerance are skipped: their
                # midpoint is within float noise of a crossing.
                for mid in mids[wide]:
                    assert sf.at([mid])[0, 0] == greedy_cost(fam, mid, x)
                compared += int(wide.sum())
                crossings = set(grid.tolist())
                for mid, is_wide in zip(mids, wide):
                    a, b = greedy._greedy_mwis_adaptive(x, mid)[1]
                    picks = adaptive_picks(x, mid)
                    # Each window end with the pieces just inside and just outside it.
                    for end, inside, outside in ((max(a, lo), 0, -1), (min(b, hi), -1, 0)):
                        # An own crossing, an endpoint, or a root `_own_crossings`
                        # drops as float noise beside an endpoint.
                        assert end in crossings or min(end - lo, hi - end) <= 1e-9 * max(1.0, abs(end))
                        if not is_wide or end not in crossings:
                            continue
                        i = int(np.searchsorted(grid, end))
                        for piece, same in ((i + inside, True), (i + outside, False)):
                            if 0 <= piece < mids.size and wide[piece]:
                                assert (adaptive_picks(x, mids[piece]) == picks) == same
        assert compared >= 9 * 12  # at least one piece per sample

    def test_large_graph_needs_few_runs(self, monkeypatch):
        # n > 63, beyond the grid evaluators: over 100k superset pieces.
        rng = np.random.default_rng(41)
        x = random_mwis_instance(100, 0.1, rng)
        fam = mwis_family(100, adaptive=True)
        runs = []
        run = greedy._greedy_mwis_adaptive
        monkeypatch.setattr(greedy, "_greedy_mwis_adaptive", lambda *args: runs.append(1) or run(*args))
        sf = greedy.step_functions(fam, [x])
        monkeypatch.undo()
        grid, mids, wide = own_pieces(fam, x)
        assert len(runs) < 0.01 * mids.size
        for mid in rng.choice(mids[wide], 200, replace=False):
            assert sf.at([mid])[0, 0] == run_greedy(fam, mid, x)[1].value


class TestErmBreakpoint:
    def test_no_breakpoints_returns_midpoint(self):
        inst = KnapsackInstance([4.0, 4.0], [4.0, 4.0], 10.0)
        fam = knapsack_family(2, interval=(0.0, 2.0))
        rho, report = erm_breakpoint(fam, *piece_costs(fam, [inst]))
        assert rho == 0.0  # every probe ties; the smallest rho wins
        assert report.train_mean == 8.0

    def test_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(41)
        fam = mwis_family(8)
        for _ in range(5):
            samples = [random_mwis_instance(8, 0.4, rng, weight_choices=MWIS_WEIGHT_PALETTE)
                       for _ in range(6)]
            rho, report = erm_breakpoint(fam, *piece_costs(fam, samples))
            gaps = np.diff(np.concatenate([[0.0], crossing_superset(fam, samples), [1.0]]))
            spacing = 0.45 * gaps.min()
            grid = np.arange(0.0, 1.0 + spacing / 2, spacing)
            grid = np.concatenate([grid, [1.0]])
            grid_mat = np.stack([grid_costs(fam, grid, x) for x in samples])
            oracle_best = grid_mat.mean(axis=0).max()
            assert report.train_mean == oracle_best

    def test_interval_gadget_optimum_inside_window(self):
        from _fixtures import interval_gadget

        inst = interval_gadget(0.25, 0.75)
        for adaptive in (False, True):
            fam = mwis_family(6, adaptive=adaptive)
            rho, report = erm_breakpoint(fam, *piece_costs(fam, [inst]))
            assert 0.25 < rho < 0.75
            assert report.train_mean == pytest.approx(1.5)

    def test_tie_breaks_to_smaller_rho(self):
        # Constant-cost family: every representative ties, the smallest wins.
        inst = MwisInstance(3, [], [0.3, 0.3, 0.3])
        fam = mwis_family(3)
        rho, _ = erm_breakpoint(fam, *piece_costs(fam, [inst]))
        assert rho == 0.0  # probes 0, 0.5 and 1 tie: the endpoint lo wins

    def test_open_piece_semantics_at_a_crossing(self):
        # Every score ties exactly at rho = 1, where the id tie-break packs
        # 2, 2 and 4 (value 8); every other rho packs 7.  ERM is exact over
        # the open pieces and does not probe the crossing point itself.
        fam = knapsack_family(4, (0.0, 2.0))
        inst = KnapsackInstance([2, 2, 4, 3], [2, 2, 4, 3], 8)
        assert greedy._own_crossings(fam, inst).tolist() == [1.0]
        rho, report = erm_breakpoint(fam, *piece_costs(fam, [inst]))
        assert report.train_mean == 7.0
        assert greedy_cost(fam, 1.0, inst) == 8.0
        assert greedy_cost(fam, rho, inst) == 7.0

    def test_tie_at_lower_endpoint_repro(self):
        # Equal-value items tie exactly at rho = 0, where the tie-break packs
        # the big item of s1 (mean 1.5); any rho in the boundary piece
        # (0, 0.415) packs both small ones.  Probing that piece only at
        # rho = 0 missed it and returned 1.75 from another piece.
        fam = knapsack_family(3, interval=(0.0, 2.0))
        s1 = KnapsackInstance([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], 2.0)
        s2 = KnapsackInstance([2.0, 1.5], [2.0, 1.0], 2.0)
        rho, report = erm_breakpoint(fam, *piece_costs(fam, [s1, s2]))
        assert report.train_mean == 2.0
        assert 0.0 < rho < math.log(2 / 1.5) / math.log(2)
        assert np.mean([greedy_cost(fam, rho, x) for x in (s1, s2)]) == 2.0


def holdout_draws(kind, palette, rng):
    """The family of `kind` on 7 objects and a draw of one instance: palette
    (tie-heavy) attributes, or continuous ones."""
    if kind == "knapsack":
        values = KNAPSACK_VALUE_PALETTE if palette else rng.uniform(0.5, 12.0, 64)
        sizes = KNAPSACK_SIZE_PALETTE if palette else rng.uniform(1.0, 8.0, 64)
        return knapsack_family(7, (0.0, 2.0)), lambda: random_knapsack_instance(7, rng, values, sizes)
    weights = MWIS_WEIGHT_PALETTE if palette else None
    return (mwis_family(7, adaptive=kind == "mwis-adaptive"),
            lambda: random_mwis_instance(7, 0.4, rng, weight_choices=weights))


def dense_probes(family, samples):
    """Both endpoints and three probes inside every piece of the samples'
    crossing union (`crossing_superset`), which no step function is read to
    build: every piece of `piece_costs` holds some of them."""
    lo, hi = family.interval
    edges = np.concatenate([[lo], crossing_superset(family, samples), [hi]])
    inner = edges[:-1, None] + np.diff(edges)[:, None] * np.array([0.25, 0.5, 0.75])
    return np.concatenate([[lo], inner.ravel(), [hi]])


class TestErmBreakpointHoldout:
    @pytest.mark.parametrize("palette", [False, True], ids=["continuous", "palette"])
    @pytest.mark.parametrize("kind", ["mwis", "mwis-adaptive", "knapsack"])
    def test_matches_scalar_greedy_on_the_holdout(self, kind, palette):
        # The held-out mean at rho_star, and its gap to the best held-out mean
        # over the whole interval, from one scalar run per cell.
        rng = np.random.default_rng(23)
        fam, draw = holdout_draws(kind, palette, rng)
        errors = []
        for _ in range(6):
            train, holdout = [draw() for _ in range(5)], [draw() for _ in range(4)]
            rho, report = erm_breakpoint(fam, *piece_costs(fam, train), holdout=holdout)
            held = scalar_costs(fam, holdout, dense_probes(fam, holdout))
            chosen = np.mean([greedy_cost(fam, rho, x) for x in holdout])
            assert report.holdout_mean == chosen
            assert report.estimated_error == abs(chosen - held.mean(axis=1).max())
            errors.append(report.estimated_error)
        assert max(errors) > 0  # some draw's training choice is not the held-out best

    def test_rho_star_on_a_held_out_change_point_repro(self):
        # rho_star = 1.0 is where holdout sample 1's value changes; the step
        # functions read 7.0 there (the piece to its right), the run gives 9.0.
        rng = np.random.default_rng(132)
        sets = [random_knapsack_instance(6, rng, value_choices=[1, 2, 3, 4], size_choices=[1, 2, 4])
                for _ in range(8)]
        fam = knapsack_family(6, (0, 2))
        rho, report = erm_breakpoint(fam, *piece_costs(fam, sets[:4]), holdout=sets[4:])
        assert rho == 1.0
        assert [greedy_cost(fam, rho, x) for x in sets[4:]] == [12.0, 9.0, 10.0, 13.0]
        assert (report.holdout_mean, report.estimated_error) == (11.0, 0.0)

    @pytest.mark.parametrize("kind", ["mwis", "mwis-adaptive", "knapsack"])
    def test_holdout_mean_is_real_runs_on_small_palettes(self, kind):
        # With few distinct attributes, rho_star lands on a held-out change point in some draws.
        rng = np.random.default_rng(5)
        if kind == "knapsack":
            fam = knapsack_family(6, (0.0, 2.0))
            def draw():
                return random_knapsack_instance(6, rng, value_choices=[1, 2, 3, 4], size_choices=[1, 2, 4])
        else:
            fam = mwis_family(7, (0.0, 2.0), adaptive=kind == "mwis-adaptive")
            def draw():
                return random_mwis_instance(7, 0.4, rng, weight_choices=[0.25, 0.5, 0.75, 1.0] * 2)
        for _ in range(40):
            train, holdout = [draw() for _ in range(4)], [draw() for _ in range(4)]
            rho, report = erm_breakpoint(fam, *piece_costs(fam, train), holdout=holdout)
            assert report.holdout_mean == np.mean([greedy_cost(fam, rho, x) for x in holdout])

    def test_empty_holdout_reports_the_training_mean(self):
        fam, samples = knapsack_family(2), [two_item_knapsack()]
        candidates = piece_costs(fam, samples)
        assert erm_breakpoint(fam, *candidates, holdout=[]) == erm_breakpoint(fam, *candidates)


class TestPieceCosts:
    def test_shared_crossing_leaves_no_phantom_piece(self):
        # Two of these three palette-weighted 7-vertex samples share a
        # value-change point near 0.774438 up to one ulp.  Without merging,
        # the two copies bound a 1-ulp piece whose midpoint is one of them:
        # its row mixes the two sides and no rho realizes it (ERM chose it
        # with mean 2.1789; runs there average 2.0889).
        rng = np.random.default_rng(2121)
        fam = mwis_family(7)
        samples = [random_mwis_instance(7, 0.4, rng, MWIS_WEIGHT_PALETTE) for _ in range(3)]
        points = np.unique(greedy.step_functions(fam, samples).points)
        assert (np.diff(points) <= 2 * np.spacing(points[1:])).any()
        rhos, costs = piece_costs(fam, samples)
        assert np.array_equal(costs.mean(axis=1), scalar_costs(fam, samples, rhos).mean(axis=1))
        rho, report = erm_breakpoint(fam, *piece_costs(fam, samples))
        assert np.mean([greedy_cost(fam, rho, x) for x in samples]) == report.train_mean

    @pytest.mark.parametrize("palette", [False, True], ids=["continuous", "palette"])
    @pytest.mark.parametrize("kind", ["mwis", "knapsack"])
    def test_distinct_rows_are_what_scalar_runs_realize(self, kind, palette):
        # The shattering probe depends only on the set of distinct cost rows:
        # the candidates must realize exactly the cost vectors that scalar
        # runs do over a dense grid plus both endpoints.
        rng = np.random.default_rng(59)
        fam, draw = holdout_draws(kind, palette, rng)
        for _ in range(5):
            samples = [draw() for _ in range(3)]
            want = {tuple(row) for row in scalar_costs(fam, samples, dense_probes(fam, samples))}
            assert {tuple(row) for row in piece_costs(fam, samples)[1]} == want


NONADAPTIVE_WEIGHTS = ("continuous", "palette", "repeated")


def nonadaptive_set(weights, sizes, rng):
    """G(n, p) graphs of the given sizes with continuous weights, distinct
    palette weights, or weights repeated within a graph (equal weights at
    equal and at different degrees)."""
    samples = []
    for k, n in enumerate(sizes):
        edges = greedy.erdos_renyi_generator(n, (0.2, 0.4, 0.7)[k % 3])(rng)
        if weights == "continuous":
            w = 1.0 - rng.random(n)
        else:
            w = rng.choice(MWIS_WEIGHT_PALETTE if weights == "palette" else [0.25, 0.5, 1.0], n,
                           replace=weights == "repeated")
        samples.append(MwisInstance(n, edges, w))
    return samples


class TestNonadaptiveStepFunctions:
    """Offline non-adaptive MWIS step functions come from the vectorized
    crossings and piece values the online runner shares; one scalar run per
    cell is the oracle."""

    @staticmethod
    def assert_rows_are_scalar_runs(fam, samples):
        rhos, costs = piece_costs(fam, samples)
        assert np.array_equal(costs, scalar_costs(fam, samples, rhos))
        probes = dense_probes(fam, samples)[1:-1]  # open pieces: the endpoints are runs above
        assert np.array_equal(greedy.step_functions(fam, samples).at(probes),
                              scalar_costs(fam, samples, probes))

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75), (0.1, 3.0)])
    @pytest.mark.parametrize("weights", NONADAPTIVE_WEIGHTS)
    def test_rows_match_scalar_runs(self, weights, interval):
        rng = np.random.default_rng(NONADAPTIVE_WEIGHTS.index(weights))
        for _ in range(3):
            self.assert_rows_are_scalar_runs(mwis_family(8, interval),
                                             nonadaptive_set(weights, [8] * 5, rng))
        # One set mixing several sizes, in no particular order.
        mixed = nonadaptive_set(weights, [5, 12, 1, 8, 2, 12, 5, 3], rng)
        self.assert_rows_are_scalar_runs(mwis_family(12, interval), mixed)

    def test_repeated_weights_from_a_file(self, tmp_path):
        # A loaded instance may repeat weights, which the online transition
        # points reject; the offline step functions take them.
        rng = np.random.default_rng(11)
        samples = []
        for k, x in enumerate(nonadaptive_set("repeated", [7] * 4, rng)):
            save_mwis(x, str(tmp_path / f"g{k}.json"))
            samples.append(load_mwis(str(tmp_path / f"g{k}.json")))
        with pytest.raises(ValueError, match="distinct"):
            online._transition_rows(np.stack([x.weights for x in samples]))
        self.assert_rows_are_scalar_runs(mwis_family(7, (0.0, 2.0)), samples)

    def test_beyond_the_lanes_takes_scalar_runs(self):
        # n = 64 does not fit a uint64 lane: one scalar run per piece, beside
        # graphs that do.
        rng = np.random.default_rng(13)
        samples = [random_mwis_instance(64, 0.1, rng)] + nonadaptive_set("continuous", [8, 8], rng)
        self.assert_rows_are_scalar_runs(mwis_family(64, (0.1, 3.0)), samples)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["nonadaptive", "adaptive"])
    def test_one_size_per_group(self, adaptive):
        # Graphs beyond the lanes, of two sizes, and a small exact-weight graph
        # take scalar runs, each size in a group of its own, beside batched
        # graphs; each row is the one its sample gets alone, and scalar runs
        # give its values.
        rng = np.random.default_rng(17)
        exact = MwisInstance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [2.0**-k for k in range(5)],
                             exact_base=2, exact_exponents=[Fraction(-k) for k in range(5)])
        samples = [random_mwis_instance(70, 0.05, rng), *nonadaptive_set("continuous", [8, 5], rng),
                   random_mwis_instance(64, 0.05, rng), exact, random_mwis_instance(70, 0.05, rng)]
        fam = mwis_family(70, (0.1, 2.0), adaptive=adaptive)
        groups = [[samples[k] for k in group] for group, _ in greedy._runners(fam, samples)]
        assert sorted(len(g) for g in groups) == [1, 1, 1, 1, 2]
        assert all(len({x.n for x in g}) == 1 for g in groups)
        functions = greedy.step_functions(fam, samples)
        for i, x in enumerate(samples):
            alone = greedy.step_functions(fam, [x])
            points = functions.points[functions.offsets[i]:functions.offsets[i + 1]]
            values = functions.values[functions.offsets[i] + i:functions.offsets[i + 1] + i + 1]
            assert points.tobytes() == alone.points.tobytes() and values.tobytes() == alone.values.tobytes()
            grid = np.concatenate([[0.1], points, [2.0]])
            assert np.array_equal(values, scalar_costs(fam, [x], (grid[:-1] + grid[1:]) / 2.0)[:, 0])

    def test_crossings_in_blocks(self, monkeypatch):
        # A budget of 100 roots cuts 8-vertex graphs (28 pairs) three at a time.
        rng = np.random.default_rng(19)
        fam, samples = mwis_family(8), nonadaptive_set("continuous", [8] * 7 + [3], rng)
        want = greedy.step_functions(fam, samples)
        monkeypatch.setattr(greedy, "_BLOCK_ROOTS", 100)
        got = greedy.step_functions(fam, samples)
        for field in ("points", "offsets", "values"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    @pytest.mark.parametrize("n, runs", [(63, False), (64, True)])
    def test_no_scalar_runs_within_the_lanes(self, monkeypatch, n, runs):
        calls = []
        cost, run = greedy.greedy_cost, greedy.run_greedy
        monkeypatch.setattr(greedy, "greedy_cost", lambda *a: calls.append(a) or cost(*a))
        monkeypatch.setattr(greedy, "run_greedy", lambda *a: calls.append(a) or run(*a))
        rng = np.random.default_rng(n)
        samples = [random_mwis_instance(n, 0.05, rng), random_mwis_instance(8, 0.4, rng)]
        greedy.step_functions(mwis_family(n), samples)
        assert bool(calls) == runs


def batched_set(kind, rng):
    """Samples of mixed sizes in no particular order with tie-heavy attributes:
    the knapsack tie repro and item sets from two-value palettes, or graphs
    with repeated or palette weights, an edgeless graph and a single vertex."""
    if kind == "knapsack":
        samples = [KnapsackInstance([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], 2.0),
                   KnapsackInstance([2.0, 1.5], [2.0, 1.0], 2.0)]
        pair = (KNAPSACK_VALUE_PALETTE[:2], KNAPSACK_SIZE_PALETTE[:2])  # equal values and sizes repeat
        return samples + [random_knapsack_instance(n, rng, *pair) for n in (1, 6, 3, 9, 6)]
    samples = [MwisInstance(5, [], rng.choice([0.25, 0.5, 1.0], 5)), MwisInstance(1, [], [0.5])]
    for k, n in enumerate((8, 3, 12, 8, 5)):
        weights = rng.choice(MWIS_WEIGHT_PALETTE, n, replace=False) if k % 2 else rng.choice([0.25, 0.5], n)
        samples.append(MwisInstance(n, greedy.erdos_renyi_generator(n, (0.3, 0.6)[k % 2])(rng), weights))
    return samples


BATCHED_KINDS = ("mwis", "mwis-adaptive", "knapsack")


class TestBatchedRuns:
    """`cost_matrix` and the batched evaluators behind it equal scalar runs bit
    for bit, at the interval's endpoints and at rhos exactly on own crossings."""

    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_cost_matrix_is_scalar_runs(self, kind):
        rng = np.random.default_rng(BATCHED_KINDS.index(kind))
        for interval in ((0.0, 1.0), (0.0, 2.0), (0.25, 0.75)):
            fam = ParamGreedyFamily(kind, interval, 12)
            samples = batched_set(kind, rng)
            own = greedy.step_functions(fam, samples).points
            rhos = [*interval, *rng.choice(own, min(own.size, 40), replace=False), *rng.uniform(*interval, 5)]
            costs = greedy.cost_matrix(fam, samples, rhos)
            assert costs.tobytes() == scalar_costs(fam, samples, rhos).tobytes()

    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_masks_and_windows_are_scalar_runs(self, kind):
        rng = np.random.default_rng(10 + BATCHED_KINDS.index(kind))
        fam = ParamGreedyFamily(kind, (0.0, 2.0), 12)
        for n in (1, 2, 5, 8, 12):
            if kind == "knapsack":
                pair = (KNAPSACK_VALUE_PALETTE[:2], KNAPSACK_SIZE_PALETTE[:2])
                group = [random_knapsack_instance(n, rng, *pair) for _ in range(3)]
            else:
                group = [MwisInstance(n, greedy.erdos_renyi_generator(n, p)(rng),
                                      rng.choice([0.25, 0.5, 1.0], n)) for p in (0.0, 0.3, 0.7)]
            rhos = [np.concatenate([[0.0, 2.0], greedy.step_functions(fam, [x]).points]) for x in group]
            owner, flat = np.repeat(np.arange(3), [r.size for r in rhos]), np.concatenate(rhos)
            if kind == "knapsack":
                values, sizes = np.stack([x.values for x in group]), np.stack([x.sizes for x in group])
                masks = greedy._knapsack_masks(np.log(values), np.log(sizes), sizes,
                                               np.array([x.capacity for x in group]), owner, flat)
            else:
                lanes = greedy._stacked_lanes(group)
                logw = np.log(np.stack([x.weights for x in group]))
                if kind == "mwis":
                    masks = greedy._nonadaptive_masks(logw, *lanes, owner, flat)
                else:
                    masks, a, b = greedy._adaptive_masks(logw, *lanes, owner, flat)
                    for i, (k, rho) in enumerate(zip(owner, flat)):
                        assert (a[i], b[i]) == greedy._greedy_mwis_adaptive(group[k], rho)[1]
            for row, k, rho in zip(masks, owner, flat):
                assert tuple(np.flatnonzero(row)) == run_greedy(fam, rho, group[k])[0]

    @pytest.mark.parametrize("n", [63, 64])
    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_scalar_runs_only_beyond_the_lanes(self, monkeypatch, kind, n):
        # Knapsacks always batch; a graph on 64 vertices does not fit a uint64 lane.
        rng = np.random.default_rng(n)
        if kind == "knapsack":
            samples = [random_knapsack_instance(n, rng) for _ in range(2)]
        else:
            samples = [random_mwis_instance(n, 0.05, rng), random_mwis_instance(8, 0.4, rng)]
        fam = ParamGreedyFamily(kind, (0.0, 1.0), n)
        calls = []
        for name in ("_greedy_knapsack", "_greedy_mwis_nonadaptive", "_greedy_mwis_adaptive"):
            run = getattr(greedy, name)
            monkeypatch.setattr(greedy, name, lambda x, rho, run=run: calls.append(x.n) or run(x, rho))
        rhos, costs = piece_costs(fam, samples)
        monkeypatch.undo()
        assert set(calls) == ({64} if n == 64 and kind != "knapsack" else set())
        rows = np.unique(np.concatenate([[0, rhos.size - 1], rng.choice(rhos.size, min(rhos.size, 30))]))
        assert costs[rows].tobytes() == scalar_costs(fam, samples, rhos[rows]).tobytes()

    def test_exact_weights_take_scalar_runs(self):
        # Exact weights compare Fraction parameters exactly, which only `run_greedy`
        # does: this 46-vertex window is 2.4e-17 wide, below float resolution.
        params = online.adversary_sequence(46, 10, 0)[-1]
        hard = online.build_hard_instance(params)
        rhos = [params.r, (params.r + params.s) / 2, params.s, 0.5]
        for adaptive in (True, False):
            fam = mwis_family(hard.n, adaptive=adaptive)
            costs = greedy.cost_matrix(fam, [hard], rhos)
            assert costs.tobytes() == scalar_costs(fam, [hard], rhos).tobytes()
        assert costs[1:3, 0].tolist() == [1.0, 1.0]  # non-adaptive: the window scores 1

    def test_fails_like_run_greedy(self):
        fam, x = knapsack_family(2), two_item_knapsack()
        for rho in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError) as scalar:
                run_greedy(fam, rho, x)
            with pytest.raises(ValueError) as batched:
                greedy.cost_matrix(fam, [x], [0.5, rho])
            assert str(batched.value) == str(scalar.value)
        with pytest.raises(TypeError, match="MwisInstance"):
            greedy.cost_matrix(mwis_family(2), [x], [0.5])
        assert greedy.cost_matrix(fam, [], [0.5]).shape == (1, 0)


class TestCraftedShatterPair:
    def test_all_four_labelings_shattered(self):
        first, second = crafted_shatter_pair()
        fam = mwis_family(6)
        rhos = piece_costs(fam, [first, second])[0]
        (report,) = shatter_probe(scalar_costs(fam, [first, second], rhos), [[0, 1]])
        assert report.shattered
        assert report.labeling_count == 4
        # Witnesses are re-verifiable against a fresh evaluation.
        matrix = scalar_costs(fam, [first, second], rhos)
        wit = np.asarray(report.witnesses)
        assert len({tuple(row) for row in (matrix > wit[None, :])}) == 4


class TestInstanceFiles:
    def test_mwis_roundtrip(self, tmp_path):
        rng = np.random.default_rng(53)
        inst = random_mwis_instance(7, 0.4, rng)
        path = tmp_path / "graph.json"
        save_mwis(inst, str(path))
        loaded = load_mwis(str(path))
        assert loaded.n == inst.n
        assert np.array_equal(loaded.edges, inst.edges)
        assert np.array_equal(loaded.weights, inst.weights)

    def test_plain_mwis_file_bytes(self, tmp_path):
        path = tmp_path / "graph.json"
        save_mwis(MwisInstance(3, [(1, 0)], [0.5, 0.25, 1.0]), str(path))
        assert path.read_text() == '{"n": 3, "edges": [[0, 1]], "weights": [0.5, 0.25, 1.0]}'

    def test_knapsack_roundtrip(self, tmp_path):
        inst = KnapsackInstance([4.0, 3.0, 2.5], [4.0, 1.0, 2.0], 6.5)
        path = tmp_path / "items.csv"
        save_knapsack(inst, str(path))
        loaded = load_knapsack(str(path))
        assert loaded.capacity == inst.capacity
        assert np.array_equal(loaded.values, inst.values)
        assert np.array_equal(loaded.sizes, inst.sizes)

    def test_knapsack_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value,size\n4.0,4.0\n")
        with pytest.raises(ValueError, match="capacity"):
            load_knapsack(str(path))


class TestInstanceValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            MwisInstance(3, [(1, 1)], [0.1, 0.2, 0.3])

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            MwisInstance(2, [], [0.5, 1.5])
        with pytest.raises(ValueError):
            MwisInstance(2, [], [0.5, 0.0])

    @pytest.mark.parametrize("edges", [[[0, 1.7]], [["0", "1"]], [[0, float("nan")]],
                                       [[0.5, 2]], [[0, None]]])
    def test_rejects_fractional_endpoints(self, edges):
        with pytest.raises(ValueError, match="whole numbers"):
            MwisInstance(3, edges, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("n", [3.5, "3", True, None, float("nan"), float("inf")])
    def test_rejects_vertex_count_not_whole(self, n):
        with pytest.raises(ValueError, match="whole number"):
            MwisInstance(n, [], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("n", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_whole_vertex_counts_accepted(self, n):
        inst = MwisInstance(n, [(0, 2)], [0.1, 0.2, 0.3])
        assert type(inst.n) is int and inst.n == 3

    def test_whole_float_endpoints_accepted(self):
        assert MwisInstance(3, [[2.0, 0.0]], [0.1, 0.2, 0.3]).edges.tolist() == [[0, 2]]

    @pytest.mark.parametrize("base", [0, 1, -2, 2.5, "2", True])
    def test_rejects_bad_exact_base(self, base):
        with pytest.raises(ValueError, match="exact_base"):
            MwisInstance(2, [], [0.5, 0.25], exact_base=base, exact_exponents=[0, -1])

    @pytest.mark.parametrize("bad", ["x", None, 0.5, [1]])
    def test_rejects_non_rational_exact_exponents(self, bad):
        with pytest.raises(ValueError, match="rational"):
            MwisInstance(2, [], [0.5, 0.25], exact_base=2, exact_exponents=[Fraction(0), bad])

    def test_accepts_rational_exact_exponents(self):
        inst = MwisInstance(2, [], [0.5, 0.25], exact_base=np.int64(2),
                            exact_exponents=[Fraction(-1), -2])
        assert inst.exact_base == 2 and inst.exact_exponents == (Fraction(-1), -2)

    def test_rejects_nonpositive_knapsack(self):
        with pytest.raises(ValueError):
            KnapsackInstance([1.0, -1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError):
            KnapsackInstance([1.0], [1.0], 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_knapsack(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KnapsackInstance([bad, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="finite"):
            KnapsackInstance([1.0, 1.0], [1.0, bad], 2.0)
        with pytest.raises(ValueError, match="finite"):
            KnapsackInstance([1.0, 1.0], [1.0, 1.0], bad)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan"), float("inf")])
    def test_random_mwis_rejects_bad_edge_probability(self, p):
        with pytest.raises(ValueError, match="edge probability"):
            random_mwis_instance(5, p, np.random.default_rng(0))

    def test_edges_canonicalized(self):
        inst = MwisInstance(3, [(2, 0), (0, 2), (1, 2)], [0.1, 0.2, 0.3])
        assert inst.edges.tolist() == [[0, 2], [1, 2]]
        assert inst.degrees.tolist() == [1, 1, 2]
        # Many duplicates and reversed pairs, against sort + 2-D row unique.
        rng = np.random.default_rng(59)
        n = 40
        raw = rng.integers(0, n, size=(3000, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        raw = np.concatenate([raw, raw[::-1, ::-1], raw[:500]])
        expected = np.unique(np.sort(raw, axis=1), axis=0)
        edges = MwisInstance(n, raw, np.full(n, 0.5)).edges
        assert edges.dtype == expected.dtype and edges.flags.c_contiguous
        assert edges.tobytes() == expected.tobytes()
        assert edges.shape == expected.shape
