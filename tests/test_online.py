import json
import math
from fractions import Fraction

import numpy as np
import pytest

from algoselect import greedy, online
from algoselect.core import StepFunctions
from algoselect.greedy import (
    MwisInstance,
    _exact_groups,
    _graph_lanes,
    _nonadaptive_crossings,
    _nonadaptive_masks,
    _rows_within,
    mask_cost,
    mwis_family,
    run_greedy,
)
from algoselect.online import (
    HardInstanceParams,
    HedgeLearner,
    RegretTrace,
    SmoothSpec,
    UniformUnion,
    adversary_sequence,
    build_hard_instance,
    erdos_renyi_generator,
    instance_from_jsonl,
    instance_to_jsonl,
    largest_hard_size,
    run_adversary_online,
    run_smoothed_online,
    smooth_sequence,
    theoretical_m,
    theoretical_q,
    transition_points,
    uniform_smooth_spec,
)
from algoselect.utils import labeled_rng

from _fixtures import MWIS_WEIGHT_PALETTE
from _grid_oracles import (NetHedgeLearner, grid_costs, grid_masks, hard_cost_at, min_pairwise_gap,
                           per_vertex_exact_keys, per_vertex_exact_order, per_vertex_first_fit,
                           superset_step_functions, total_weight)


class TestHardInstance:
    def test_layer_degrees(self):
        params = HardInstanceParams(5, Fraction(1, 4), Fraction(3, 4))
        inst = build_hard_instance(params)
        deg = inst.degrees
        a, b = params.size_a, params.size_b
        assert (deg[:a] == params.size_b).all()
        assert (deg[a:a + b] == params.m**2 - 1).all()
        assert (deg[a + b:] == params.m - 1).all()
        assert inst.n == params.n == params.size_a + params.size_b + params.size_c

    def test_mass_layer_weight_is_one(self):
        params = HardInstanceParams(7, Fraction(1, 3), Fraction(2, 3))
        assert params.inside_cost() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_window_interior_returns_mass_layer_exactly(self, adaptive):
        params = HardInstanceParams(5, Fraction(1, 4), Fraction(3, 4))
        inst = build_hard_instance(params)
        fam = mwis_family(inst.n, adaptive=adaptive)
        sol, cost = run_greedy(fam, 0.5, inst)
        expected = tuple(range(params.size_a, params.size_a + params.size_b))
        assert sol == expected
        assert abs(cost.value - 1.0) < 1e-12

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_outside_cost_bound(self, adaptive):
        params = HardInstanceParams(5, Fraction(1, 4), Fraction(3, 4))
        inst = build_hard_instance(params)
        fam = mwis_family(inst.n, adaptive=adaptive)
        m, t = params.m, params.t
        bound = (m**2 - 2) * t * m**0.25 + (m**2 + m + 1) * t * m**-0.75 + (m - 2) * t
        for rho in (0.125, 0.875):
            _, cost = run_greedy(fam, rho, inst)
            assert cost.value <= bound
            # No mass-layer vertex is ever selected outside the window.
            sol, _ = run_greedy(fam, rho, inst)
            assert not any(params.size_a <= v < params.size_a + params.size_b for v in sol)

    def test_closed_form_matches_run_greedy(self):
        params = HardInstanceParams(4, Fraction(3, 10), Fraction(7, 10))
        inst = build_hard_instance(params)
        for rho in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)):
            got = run_greedy(mwis_family(inst.n), rho, inst)[1].value
            assert got == pytest.approx(hard_cost_at(params, rho), abs=1e-12)
        for rho in (0.15, 0.5, 0.95):  # float path, interior of the regions
            got = run_greedy(mwis_family(inst.n, adaptive=True), rho, inst)[1].value
            assert got == pytest.approx(hard_cost_at(params, Fraction(rho)), abs=1e-12)

    @pytest.mark.parametrize("r,s", [(Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 10), Fraction(1, 5)),
                                     (Fraction(2, 5), Fraction(9, 10))])
    def test_closed_forms_within_ulps_of_run_values(self, r, s):
        # The closed forms sum one layer; a run sums all n vertices, so about
        # half the values differ in the last bits.  Adaptive runs take seconds
        # per graph beyond m = 12, so the grid stops there for them.  Exact
        # runs (Fraction rho) take the same windows, which float resolves, so
        # they also choose the float runs' vertices.
        for m in range(3, 23):
            params = HardInstanceParams(m, r, s)
            inst = build_hard_instance(params)
            fam = mwis_family(inst.n)
            for exact in ((r + s) / 2, r / 2, (s + 1) / 2):
                sol, cost = run_greedy(fam, exact, inst)
                want = params.inside_cost() if exact == (r + s) / 2 else params.outside_cost()
                assert abs(cost.value - want) <= 1e-15
                assert sol == run_greedy(fam, float(exact), inst)[0]
            for adaptive in (False, True) if m <= 12 else (False,):
                fam = mwis_family(inst.n, adaptive=adaptive)
                inside = run_greedy(fam, float((r + s) / 2), inst)[1].value
                assert abs(inside - params.inside_cost()) <= 1e-15
                for rho in (float(r / 2), float((s + 1) / 2)):
                    outside = run_greedy(fam, rho, inst)[1].value
                    assert abs(outside - params.outside_cost()) <= 1e-15

    def test_boundary_tie_semantics(self):
        # At rho == r hubs win the tie (outside); at rho == s the mass layer wins.
        params = HardInstanceParams(5, Fraction(1, 4), Fraction(3, 4))
        assert hard_cost_at(params, Fraction(1, 4)) == params.outside_cost()
        assert hard_cost_at(params, Fraction(3, 4)) == params.inside_cost()

    def test_validation(self):
        with pytest.raises(ValueError):
            HardInstanceParams(2, Fraction(1, 4), Fraction(3, 4))
        with pytest.raises(ValueError):
            HardInstanceParams(5, Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            HardInstanceParams(5, Fraction(0), Fraction(3, 4))

    @pytest.mark.parametrize("r,s", [(None, "3/4"), ([1], "3/4"), ("1/4", "x"),
                                     (float("inf"), "3/4"), ("1/4", float("nan"))])
    def test_rejects_non_rational_window(self, r, s):
        with pytest.raises(ValueError, match="rationals"):
            HardInstanceParams(5, r, s)
        line = json.dumps({"kind": "hard", "m": 5, "r": r, "s": s})
        with pytest.raises(ValueError, match="rationals"):
            instance_from_jsonl(line)

    @pytest.mark.parametrize("m", [3.5, "3", 4.0, None])
    def test_rejects_non_integer_m(self, m):
        with pytest.raises(ValueError, match="integer m"):
            HardInstanceParams(m, Fraction(1, 4), Fraction(3, 4))



def _unshared_hard_instance(params):
    """The hard instance with its graph built and checked for this window alone."""
    a, b, c, m = params.size_a, params.size_b, params.size_c, params.m
    ids_b = a + np.arange(b, dtype=np.int64)
    edges = np.empty((a * b + b, 2), dtype=np.int64)
    hub_edges = edges[:a * b].reshape(a, b, 2)
    hub_edges[:, :, 0] = np.arange(a, dtype=np.int64)[:, None]
    hub_edges[:, :, 1] = ids_b
    edges[a * b:, 0] = ids_b
    edges[a * b:, 1] = a + b + np.arange(b, dtype=np.int64) // (m - 1)
    weights = np.concatenate([np.full(a, params.weight_a), np.full(b, params.t), np.full(c, params.weight_c)])
    exponents = (params.r,) * a + (Fraction(0),) * b + (-params.s,) * c
    return MwisInstance(params.n, edges, weights, exact_base=m, exact_exponents=exponents)


class TestSharedHardGraph:
    @staticmethod
    def assert_same_instance(params, got):
        want = _unshared_hard_instance(params)
        want._build_runs()
        assert got.n == want.n
        for name in ("edges", "degrees", "_indptr", "_indices"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        for x, y in zip(got._runs, want._runs):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert got.weights.tolist() == want.weights.tolist()
        assert (got.exact_base, got.exact_exponents) == (want.exact_base, want.exact_exponents)
        fam = mwis_family(got.n)
        width = params.s - params.r
        for rho in (params.r, params.s, (params.r + params.s) / 2, params.s + width):
            (got_sol, got_cost), (want_sol, want_cost) = run_greedy(fam, rho, got), run_greedy(fam, rho, want)
            assert got_sol == want_sol
            assert got_cost.value.hex() == want_cost.value.hex()

    @pytest.mark.parametrize("m", range(3, 13))
    def test_windows_equal_unshared_instances(self, m):
        # Up to the replay's m = 12 (budget 2500); the second window of each
        # m reads the graph the first one built.
        for params in adversary_sequence(online._hard_size(m), 2, seed=m):
            assert params.m == m
            self.assert_same_instance(params, build_hard_instance(params))

    def test_changing_m_rebuilds_the_graph(self):
        made = []
        for m in (5, 3, 5, 5, 4, 3):
            params = HardInstanceParams(m, Fraction(1, 4 + len(made)), Fraction(1, 2))
            inst = build_hard_instance(params)
            if made and made[-1][0].m == m:
                assert inst.edges is made[-1][1].edges
            else:
                assert all(inst.edges is not old.edges for _, old in made)
            made.append((params, inst))
        for params, inst in made:  # instances outlive the cached graph they came from
            self.assert_same_instance(params, inst)

    def test_windows_of_one_m_share_read_only_arrays(self):
        first, second = (build_hard_instance(p) for p in adversary_sequence(200, 2, seed=9))
        for name in ("edges", "degrees", "_indptr", "_indices"):
            assert getattr(first, name) is getattr(second, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, name)[0] = 1
        assert first._runs is second._runs  # (run_ptr, run_lo, run_hi), built with the graph
        for runs in first._runs:
            with pytest.raises(ValueError, match="read-only"):
                runs[0] = 1
        assert first.weights is not second.weights
        assert first.exact_exponents != second.exact_exponents

    @pytest.mark.parametrize("weights,base,exponents", [
        ([0.5, 0.5], None, None),
        ([0.5, 0.0, 0.5], None, None),
        ([0.5, 1.5, 0.5], None, None),
        ([0.5, float("nan"), 0.5], None, None),
        ([0.5, 0.25, 0.5], 2, None),
        ([0.5, 0.25, 0.5], None, [0, -1, 0]),
        ([0.5, 0.25, 0.5], 1, [0, -1, 0]),
        ([0.5, 0.25, 0.5], 2.0, [0, -1, 0]),
        ([0.5, 0.25, 0.5], 2, [0, -1]),
        ([0.5, 0.25, 0.5], 2, [0.0, -1.0, 0.0]),
    ])
    def test_reweighted_rejects_what_the_constructor_rejects(self, weights, base, exponents):
        edges = [(0, 1), (1, 2)]
        graph = MwisInstance(3, edges, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError) as built:
            MwisInstance(3, edges, weights, exact_base=base, exact_exponents=exponents)
        with pytest.raises(ValueError) as reweighted:
            graph.reweighted(weights, exact_base=base, exact_exponents=exponents)
        assert str(reweighted.value) == str(built.value)
        assert graph.weights.tolist() == [1.0, 1.0, 1.0] and graph.exact_base is None


def assert_groups_cut_the_order(inst, rho):
    """`_exact_groups` is the per-vertex score order cut where the score
    changes: each group one key, members by id, keys strictly decreasing."""
    order, bounds = _exact_groups(inst, rho)
    per_vertex = per_vertex_exact_order(inst, rho)
    assert order.tolist() == per_vertex
    assert bounds[0] == 0 and bounds[-1] == inst.n and (np.diff(bounds) > 0).all()
    keys = per_vertex_exact_keys(inst, rho)
    groups = [order[lo:hi].tolist() for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert all(len({keys[v] for v in g}) == 1 and g == sorted(g) for g in groups)
    assert all(keys[g[0]] > keys[h[0]] for g, h in zip(groups, groups[1:]))
    return groups


def assert_first_fit_matches_oracle(inst, rho):
    """The exact run's mask equals the per-vertex first fit, its value bit for bit."""
    want = per_vertex_first_fit(inst, rho)
    sol, cost = run_greedy(mwis_family(inst.n), rho, inst)
    assert sol == tuple(np.flatnonzero(want).tolist())
    assert cost.value.hex() == float(mask_cost(want, inst.weights)).hex()


def base2_tie_graph(rng, k4s, k2s, stars, palette=(Fraction(0), Fraction(-1), Fraction(-2))):
    """Disjoint K4s, K2s and 3-leaf stars in shuffled ids, every 1 + degree a
    power of 2, exponents drawn from a 3-value palette."""
    sizes = [4] * k4s + [2] * k2s + [4] * stars
    kinds = ["k4"] * k4s + ["k2"] * k2s + ["star"] * stars
    n = sum(sizes)
    ids = rng.permutation(n)
    edges, at = [], 0
    for kind, size in zip(kinds, sizes):
        v = ids[at:at + size].tolist()
        if kind == "k4":
            edges += [(v[i], v[j]) for i in range(4) for j in range(i + 1, 4)]
        elif kind == "k2":
            edges.append((v[0], v[1]))
        else:
            edges += [(v[0], leaf) for leaf in v[1:]]
        at += size
    exponents = [palette[i] for i in rng.integers(0, len(palette), size=n).tolist()]
    weights = [2.0 ** float(e) for e in exponents]
    return MwisInstance(n, edges, weights, exact_base=2, exact_exponents=exponents)


class TestExactOrder:
    @pytest.mark.parametrize("n_budget", [200, 1500, 2500])
    def test_matches_per_vertex_sort_on_hard_windows(self, n_budget):
        for params in adversary_sequence(n_budget, 3, seed=5):
            inst = build_hard_instance(params)
            width = params.s - params.r
            for rho in ((params.r + params.s) / 2, params.s + width, params.r, params.s,
                        Fraction(0), Fraction(1, 2)):
                assert_groups_cut_the_order(inst, rho)
                assert_first_fit_matches_oracle(inst, rho)

    def test_tied_classes_keep_id_order(self):
        # Base 2: a star (centre degree 3, leaves degree 1), an isolated
        # vertex and an edge.  At rho = 1/2 five vertices of three different
        # (exponent, log-base degree) classes share the key 1/2.
        edges = [(0, 1), (0, 2), (0, 3), (5, 6)]
        exponents = [Fraction(3, 2), Fraction(1), Fraction(0), Fraction(1), Fraction(1, 2),
                     Fraction(1), Fraction(3, 4)]
        inst = MwisInstance(7, edges, [2.0 ** float(e) / 4 for e in exponents],
                            exact_base=2, exact_exponents=exponents)
        for rho in (Fraction(1, 2), Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)):
            assert_groups_cut_the_order(inst, rho)
            assert_first_fit_matches_oracle(inst, rho)
        assert assert_groups_cut_the_order(inst, Fraction(1, 2))[0] == [0, 1, 3, 4, 5]

    @pytest.mark.parametrize("seed", range(6))
    def test_group_first_fit_on_tie_heavy_graphs(self, seed):
        # Most groups hold several vertices; a group with an inner edge (two
        # vertices of one K4, say) is run vertex by vertex.
        rng = np.random.default_rng(seed)
        inst = base2_tie_graph(rng, k4s=5, k2s=6, stars=4)
        inner_edge = False
        for rho in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(2, 3),
                    Fraction(int(rng.integers(1, 1000)), 1000)):
            group_of = np.empty(inst.n, dtype=np.int64)
            for g, members in enumerate(assert_groups_cut_the_order(inst, rho)):
                group_of[members] = g
            inner_edge |= bool((group_of[inst.edges[:, 0]] == group_of[inst.edges[:, 1]]).any())
            assert_first_fit_matches_oracle(inst, rho)
        assert inner_edge

    def test_group_with_scattered_unblocked_members(self):
        # Vertex 0 comes first and blocks 3, so the group {1, 2, 3, 4, 5}
        # has the unblocked members 1, 2, 4, 5; three of them share the
        # neighbour 6, whose degree 3 makes 1 + degree = 4.
        edges = [(0, 3), (1, 6), (2, 6), (4, 6), (5, 7)]
        exponents = [Fraction(0)] + [Fraction(-1)] * 5 + [Fraction(-2)] * 2
        inst = MwisInstance(8, edges, [2.0 ** float(e) for e in exponents],
                            exact_base=2, exact_exponents=exponents)
        for rho in (Fraction(0), Fraction(1, 4), Fraction(1)):
            assert [1, 2, 3, 4, 5] in assert_groups_cut_the_order(inst, rho)
            assert_first_fit_matches_oracle(inst, rho)
            assert run_greedy(mwis_family(8), rho, inst)[0] == (0, 1, 2, 4, 5)

    def test_cached_classes_at_the_replay_size(self):
        # The replay's window size: exact runs at r, s, the midpoint and one
        # width past s, all on one instance (classes cached by the first
        # run) and each on a fresh instance, against the closed form and the
        # per-vertex order.
        for params in adversary_sequence(2500, 2, seed=300):
            shared = build_hard_instance(params)
            fam = mwis_family(shared.n)
            a, b = params.size_a, params.size_b
            inside = tuple(range(a, a + b))
            outside = tuple(range(a)) + tuple(range(a + b, params.n))
            width = params.s - params.r
            for rho in (params.r, params.s, (params.r + params.s) / 2, params.s + width):
                fresh = build_hard_instance(params)
                order = per_vertex_exact_order(fresh, rho)
                assert _exact_groups(fresh, rho)[0].tolist() == order
                assert _exact_groups(shared, rho)[0].tolist() == order
                want = inside if params.r < rho <= params.s else outside
                for inst in (shared, fresh):
                    sol, cost = run_greedy(fam, rho, inst)
                    assert sol == want
                    assert cost.value == pytest.approx(hard_cost_at(params, rho), abs=1e-12)

    def test_degree_not_a_power_of_the_base_rejected(self):
        inst = MwisInstance(3, [(0, 1), (1, 2)], [0.5, 0.25, 0.5], exact_base=2,
                            exact_exponents=[Fraction(0), Fraction(-1), Fraction(0)])
        with pytest.raises(ValueError, match="power of the base"):
            _exact_groups(inst, Fraction(1, 2))


class TestAdversarySequence:
    def test_sizing(self):
        assert largest_hard_size(200) == 5
        assert largest_hard_size(1500) == 10
        assert largest_hard_size(12000) == 22
        with pytest.raises(ValueError):
            largest_hard_size(40)  # below the m=3 construction
        with pytest.raises(ValueError):
            largest_hard_size(97)  # m=3 graph is less than half the budget

    def test_sizing_is_the_largest_graph_within_a_factor_of_two(self):
        sizes = {}
        for m in range(3, 16):
            params = HardInstanceParams(m, Fraction(1, 4), Fraction(1, 2))
            assert params.n == params.size_a + params.size_b + params.size_c
            sizes[m] = params.n
        for budget in range(40, 3001):
            fits = [m for m, n in sizes.items() if n <= budget <= 2 * n]
            if fits:
                assert largest_hard_size(budget) == max(fits), budget
            else:
                with pytest.raises(ValueError):
                    largest_hard_size(budget)
        assert [largest_hard_size(b) for b in (200, 1500, 2500, 12000)] == [5, 10, 12, 22]
        # A budget of exactly one graph's size gets that graph.
        assert all(adversary_sequence(n, 1, seed=0)[0].n == n for n in sizes.values())

    def test_nested_exact_widths(self):
        seq = adversary_sequence(200, 10, seed=3)
        n = seq[0].n
        prev = (Fraction(0), Fraction(1))
        for j, params in enumerate(seq, start=1):
            assert params.s - params.r == Fraction(1, n**j)  # exact
            assert prev[0] < params.r < params.s < prev[1]
            prev = (params.r, params.s)

    @pytest.mark.parametrize("n_budget", [200, 1500, 12000])
    def test_windows_keep_off_window_value_small(self, n_budget):
        # Every window lies in (0, 1/2], so a parameter outside it scores at
        # most m^(r-1) + m^-s/(m-1) <= m^-1/2 + 1/(m-1).
        for seed in range(8):
            seq = adversary_sequence(n_budget, 5, seed)
            m = seq[0].m
            bound = m**-0.5 + 1 / (m - 1)
            for params in seq:
                assert 0 < params.r < params.s <= Fraction(1, 2)
                assert params.outside_cost() <= bound

    def test_single_step_base_case(self):
        (params,) = adversary_sequence(200, 1, seed=9)
        assert params.s - params.r == Fraction(1, params.n)

    def test_deterministic_under_seed(self):
        a = adversary_sequence(200, 6, seed=11)
        b = adversary_sequence(200, 6, seed=11)
        assert a == b
        c = adversary_sequence(200, 6, seed=12)
        assert a != c

    def test_final_window_scores_one_everywhere(self):
        seq = adversary_sequence(200, 8, seed=5)
        mid = (seq[-1].r + seq[-1].s) / 2
        # Closed form on every step.
        assert all(hard_cost_at(p, mid) == p.inside_cost() for p in seq)
        # Replay through the actual greedy (exact mode); the window width here
        # is ~1e-18, far below float resolution.
        for params in seq:
            inst = build_hard_instance(params)
            cost = run_greedy(mwis_family(inst.n), mid, inst)[1].value
            assert abs(cost - 1.0) < 1e-12


class TestSmoothModel:
    def test_spec_example_distribution(self):
        dist = UniformUnion(((0.6, 0.65), (0.82, 0.87)))
        assert dist.total_length == pytest.approx(0.1)
        SmoothSpec(0.1, (dist,) * 4)  # density exactly 1/sigma is admissible
        with pytest.raises(ValueError):
            SmoothSpec(0.2, (dist,) * 4)  # density 10 > 1/sigma = 5

    def test_sigma_one_limit_is_plain_uniform(self):
        spec = uniform_smooth_spec(5, 0.999)
        assert spec.distributions[0].density == pytest.approx(1.0)

    def test_samples_stay_in_support(self):
        rng = np.random.default_rng(0)
        dist = UniformUnion(((0.6, 0.65), (0.82, 0.87)))
        draws = np.array([dist.sample(rng) for _ in range(4000)])
        inside = ((draws >= 0.6) & (draws <= 0.65)) | ((draws >= 0.82) & (draws <= 0.87))
        assert inside.all()
        share_first = ((draws >= 0.6) & (draws <= 0.65)).mean()
        assert 0.4 < share_first < 0.6  # halves by length

    def test_draws_follow_their_scalar_definitions(self):
        # The block draw reuses these per-step draws, so they are pinned here:
        # pair u < v (row-major) is an edge when its draw is below p, and a
        # weight walks rng.uniform(0, length) through the intervals in order.
        def walk(dist, u):
            for lo, hi in dist.intervals:
                if u <= hi - lo:
                    return lo + u
                u -= hi - lo
            return dist.intervals[-1][1]

        gen, pairs = erdos_renyi_generator(7, 0.4), np.transpose(np.triu_indices(7, k=1))
        dist = UniformUnion(((0.0, 0.3), (0.5, 0.6), (0.9, 1.0)))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            assert np.array_equal(gen(rng), pairs[ref.random(len(pairs)) < 0.4])
            assert dist.sample(rng) == walk(dist, ref.uniform(0.0, dist.total_length))

    def test_weights_distinct_and_nonzero(self):
        rng = np.random.default_rng(1)
        dist = UniformUnion(((0.0, 1.0),))
        draws = np.array([dist.sample(rng) for _ in range(10**6)])
        assert (draws > 0).all()
        assert np.unique(draws).size == draws.size

    def test_sequence_deterministic(self):
        spec = uniform_smooth_spec(6, 0.5)
        gen = erdos_renyi_generator(6, 0.4)
        a = smooth_sequence(spec, gen, 5, seed=7)
        b = smooth_sequence(spec, gen, 5, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.edges, y.edges)
            assert np.array_equal(x.weights, y.weights)

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError):
            UniformUnion(((0.0, 0.5), (0.4, 0.9)))

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan"), float("inf")])
    def test_generator_rejects_bad_edge_probability(self, p):
        with pytest.raises(ValueError, match="edge probability"):
            erdos_renyi_generator(6, p)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_generator_edge_probability_endpoints(self, p):
        edges = erdos_renyi_generator(5, p)(np.random.default_rng(0))
        assert edges.shape == ((0, 2) if p == 0.0 else (10, 2))


class TestTransitionPoints:
    def test_closed_form_membership(self):
        # Weights 0.5 and 0.25 with k-pair (8, 2): ln 2 / ln 4 = 0.5.
        weights = [0.5, 0.25, 0.11, 0.31, 0.41, 0.61, 0.71, 0.81]
        inst = MwisInstance(8, [(0, 1)], weights)
        tau = transition_points(inst)
        assert np.isclose(tau, 0.5, atol=1e-12).any()

    def test_all_points_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = MwisInstance(6, [(0, 1)], rng.uniform(0.01, 1.0, 6))
            tau = transition_points(inst)
            assert ((tau >= 0) & (tau <= 1)).all()
            assert (np.diff(tau) > 0).all()

    def test_duplicate_weights_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            transition_points(MwisInstance(3, [], [0.5, 0.5, 0.2]))

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_solutions_constant_between_points(self, adaptive):
        rng = np.random.default_rng(3)
        spec = uniform_smooth_spec(7, 0.5)
        gen = erdos_renyi_generator(7, 0.4)
        fam = mwis_family(7, adaptive=adaptive)
        for inst in smooth_sequence(spec, gen, 60, seed=13):
            tau = transition_points(inst)
            grid = np.concatenate([[0.0], tau, [1.0]])
            offsets = np.array([0.15, 0.3, 0.5, 0.7, 0.85])
            lo, hi = grid[:-1], grid[1:]
            probes = (lo[:, None] + (hi - lo)[:, None] * offsets[None, :])
            masks = grid_masks(fam, probes.ravel(), inst)
            masks = masks.reshape(lo.size, offsets.size, -1)
            assert (masks == masks[:, :1, :]).all()


def learner_nets():
    """Three 600-point nets and their cells, cut by the same 40 random points:
    a sorted net, a shuffled one, and a shuffled one with repeated points."""
    rng = np.random.default_rng(11)
    cuts = np.sort(rng.random(40))
    sorted_net = np.linspace(0.0, 1.0, 600)
    with_repeats = np.concatenate([sorted_net[:400], rng.choice(sorted_net, 200), cuts[:5]])
    nets = {"sorted": sorted_net, "shuffled": rng.permutation(sorted_net),
            "repeats": rng.permutation(with_repeats)}
    return {name: (net, online._cells(cuts, net)[1]) for name, net in nets.items()}


class TestHedgeLearner:
    def test_single_point_net(self):
        learner = HedgeLearner([0], T=10)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert learner.sample(rng) == 0
            learner.update(np.array([0.7]))
        assert learner.probabilities().tolist() == [1.0]

    def test_distribution_valid_after_many_updates(self):
        learner = HedgeLearner(np.arange(64), T=10**4)
        rng = np.random.default_rng(4)
        for _ in range(2000):
            learner.update(rng.random(64))
        p = learner.probabilities()
        assert (p > 0).all() and np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-9

    def test_constant_gains_low_regret(self):
        # One net point always gains 1, the rest 0.
        T, K = 4000, 16
        bound = math.sqrt(math.log(K) / (2 * T))
        regrets = []
        for seed in range(30):
            learner = HedgeLearner(np.arange(K), T=T)
            rng = np.random.default_rng(seed)
            gains = np.zeros(K)
            gains[5] = 1.0
            got = 0.0
            for _ in range(T):
                got += gains[learner.sample(rng)]
                learner.update(gains)
            regrets.append((T - got) / T)
        assert np.mean(regrets) <= bound + 0.01

    def test_update_drops_the_cached_distribution(self):
        learner = HedgeLearner(np.arange(4), T=1)  # eta = sqrt(8 ln 4) per update
        rng = np.random.default_rng(0)
        assert len({learner.sample(rng) for _ in range(40)}) > 1  # uniform at the start
        for _ in range(20):  # index 3 now has all but about e^-47
            learner.update(np.array([0.0, 0.0, 0.0, 1.0]))
        assert {learner.sample(rng) for _ in range(40)} == {3}

    def test_auto_eta_needs_horizon(self):
        with pytest.raises(ValueError):
            HedgeLearner([0, 1], T=0)

    @pytest.mark.parametrize("net", ["sorted", "shuffled", "repeats"])
    def test_matches_the_full_net_learner(self, net):
        # Per-cell gains, spread to the net for the oracle: the same
        # probabilities and, from equal seeds, the same draws.
        net, cells = learner_nets()[net]
        learner, oracle = HedgeLearner(cells, T=10**4), NetHedgeLearner(net, T=10**4)
        assert learner.eta == oracle.eta
        gains_rng, rng, oracle_rng = (np.random.default_rng(s) for s in (1, 2, 2))
        draws = []
        for _ in range(2000):
            draws.append((learner.sample(rng), oracle.sample(oracle_rng)))
            gains = gains_rng.random(cells.max() + 1)
            learner.update(gains)
            oracle.update(gains[cells])
        mine, want = zip(*draws)
        assert mine == want
        assert len(set(mine)) > 100
        np.testing.assert_allclose(learner.probabilities(), oracle.probabilities(), rtol=1e-12)

    def test_one_cell_spreads_over_the_net(self):
        K, T = 50, 300
        learner = HedgeLearner(np.zeros(K, dtype=np.intp), T=T)
        assert learner.eta == math.sqrt(8 * math.log(K) / T)
        learner.update(np.array([0.9]))
        assert learner.probabilities().tolist() == [1.0 / K] * K
        rng = np.random.default_rng(3)
        assert {learner.sample(rng) for _ in range(2000)} == set(range(K))

    @pytest.mark.parametrize("cells", [[0.0, 1.0], [0, 2], [-1, 0], [[0, 1]], []],
                             ids=["float", "unused-id", "negative", "2-d", "empty"])
    def test_rejects_bad_cells(self, cells):
        with pytest.raises(ValueError):
            HedgeLearner(cells, T=10)

    def test_rejects_one_gain_per_net_point(self):
        learner = HedgeLearner(np.array([0, 0, 1, 2, 2]), T=10)
        with pytest.raises(ValueError, match="one gain per cell"):
            learner.update(np.zeros(5))
        learner.update(np.zeros(3))


class TestSmoothedOnlineRun:
    def test_trace_consistency_and_determinism(self):
        spec = uniform_smooth_spec(6, 0.5)
        gen = erdos_renyi_generator(6, 0.4)
        trace = run_smoothed_online(spec, gen, T=40, seed=21, net=400)
        again = run_smoothed_online(spec, gen, T=40, seed=21, net=400)
        assert np.array_equal(trace.chosen_rho, again.chosen_rho)
        assert np.array_equal(trace.costs, again.costs)
        assert trace.best_net_total == again.best_net_total
        assert ((trace.costs >= 0) & (trace.costs <= 1)).all()
        assert trace.cum_cost[-1] == pytest.approx(trace.costs.sum())
        assert trace.best_ref_total >= trace.best_net_total - 1e-12
        assert trace.avg_regret_ref >= trace.avg_regret - 1e-12

    def test_best_net_matches_independent_recomputation(self):
        spec = uniform_smooth_spec(5, 0.5)
        gen = erdos_renyi_generator(5, 0.5)
        T, net_size, seed = 25, 151, 33
        trace = run_smoothed_online(spec, gen, T=T, seed=seed, net=net_size)
        net = np.linspace(0, 1, net_size)
        fam = mwis_family(5)
        totals = np.zeros(net_size)
        for inst in smooth_sequence(spec, gen, T, seed):
            costs = np.array([run_greedy(fam, r, inst)[1].value for r in net])
            totals += costs / total_weight(inst)
        assert totals.max() == pytest.approx(trace.best_net_total, abs=1e-9)
        assert net[np.argmax(totals)] == pytest.approx(trace.best_net_rho)

    def test_gap_event_makes_net_comparator_exact(self):
        # Fine net relative to the observed transition gaps: the best net
        # point ties the best continuum parameter exactly.
        spec = uniform_smooth_spec(4, 0.5)
        gen = erdos_renyi_generator(4, 0.6)
        probe = run_smoothed_online(spec, gen, T=5, seed=41, net=64)
        gap = probe.min_comparator_gap
        assert gap is not None and gap > 0
        net_size = int(2.0 / gap) + 2
        trace = run_smoothed_online(spec, gen, T=5, seed=41, net=net_size)
        assert trace.best_net_total == trace.best_ref_total

    def test_csv_shape_and_plain_floats(self):
        spec = uniform_smooth_spec(5, 0.5)
        gen = erdos_renyi_generator(5, 0.4)
        trace = run_smoothed_online(spec, gen, T=8, seed=2, net=32)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "step,chosen_rho,cost,cum_cost,cum_best,avg_regret"
        assert len(lines) == 9
        assert "np.float" not in text  # plain round-trippable numbers only
        step, rho, cost, cum, best, regret = lines[3].split(",")
        assert int(step) == 3
        assert float(cum) == pytest.approx(trace.cum_cost[2])
        assert float(regret) == pytest.approx((trace.cum_best[2] - trace.cum_cost[2]) / 3)

    def test_csv_matches_the_per_row_loop(self):
        spec, gen = uniform_smooth_spec(8, 0.25), erdos_renyi_generator(8, 0.3)
        for trace in (run_smoothed_online(spec, gen, T=300, seed=5, net=1000),
                      run_adversary_online(60, 5, 2)):
            assert trace.to_csv() == reference_csv(trace)


def _reference_transition_points(x):
    """Transition points by the per-instance formula: every pair's roots
    against every denominator, kept in [0, 1] and deduplicated by np.unique."""
    denoms = np.asarray(online._canonical_denominators(x.n))
    logw = np.log(x.weights)
    i, j = np.triu_indices(x.n, k=1)
    roots = ((logw[i] - logw[j])[:, None] / denoms[None, :]).ravel()
    return np.unique(roots[(roots >= 0.0) & (roots <= 1.0)])


def _union_oracle(step_functions):
    """Brute-force comparator: every piece of [0, 1] cut by the union of the
    steps' unmerged transition points, totalled at its midpoint in step order.
    Returns (piece midpoints, totals)."""
    edges = np.concatenate([[0.0], np.unique(np.concatenate([tau for tau, _ in step_functions])),
                            [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    totals = np.zeros(mids.size)
    for tau, pieces in step_functions:
        totals += pieces[np.searchsorted(tau, mids, side="right")]
    return mids, totals


def _oracle_total_at(step_functions, rho):
    total = 0.0
    for tau, pieces in step_functions:
        total += pieces[np.searchsorted(tau, rho, side="right")]
    return total


def assert_exact_comparator(trace, step_functions):
    """`best_ref_*` is the first best piece of the unmerged union, exactly."""
    mids, totals = _union_oracle(step_functions)
    best = totals.max()
    assert trace.best_ref_total == best
    assert _oracle_total_at(step_functions, trace.best_ref_rho) == best
    assert trace.best_ref_total >= trace.best_net_total
    # The smallest best rho wins: every oracle piece from the first best one
    # up to the returned rho ties the best total.
    first = mids[np.argmax(totals)]
    assert first <= trace.best_ref_rho
    assert (totals[(mids >= first) & (mids <= trace.best_ref_rho)] == best).all()


def reference_smoothed_run(spec, gen, T, seed, net):
    """`run_smoothed_online` one step at a time: one instance, one step
    function from `transition_points` and `grid_costs`, one Hedge step.
    Returns the trace without its comparator, plus the unmerged per-step
    (transition points, piece values)."""
    net_arr = np.linspace(0.0, 1.0, net) if isinstance(net, int) else np.asarray(net, dtype=float)
    family = mwis_family(spec.n)
    learner = NetHedgeLearner(net_arr, T)
    rng = labeled_rng(seed, "mw-learner")
    chosen, costs, cum_best = (np.empty(T) for _ in range(3))
    net_totals = np.zeros(net_arr.size)
    step_functions, min_gap = [], math.inf
    for t, inst in enumerate(smooth_sequence(spec, gen, T, seed)):
        tau = transition_points(inst)
        grid = np.concatenate([[0.0], tau, [1.0]])
        pieces = grid_costs(family, (grid[:-1] + grid[1:]) / 2.0, inst) / total_weight(inst)
        step_functions.append((tau, pieces))
        if tau.size >= 2:
            min_gap = min(min_gap, float(np.diff(tau).min()))
        gains = pieces[np.searchsorted(tau, net_arr, side="right")]
        idx = learner.sample(rng)
        learner.update(gains)
        net_totals += gains
        chosen[t] = net_arr[idx]
        costs[t] = gains[idx]
        cum_best[t] = net_totals.max()
    best = int(np.argmax(net_totals))
    trace = RegretTrace(net_arr, chosen, costs, cum_best, float(net_arr[best]),
                        float(net_totals[best]), math.nan, math.nan,
                        min_comparator_gap=None if min_gap == math.inf else min_gap)
    return trace, step_functions


def reference_csv(trace):
    """`RegretTrace.to_csv` one row at a time, each value formatted on its own."""
    lines = ["step,chosen_rho,cost,cum_cost,cum_best,avg_regret"]
    cum_cost = trace.cum_cost
    for i in range(trace.T):
        regret = (trace.cum_best[i] - cum_cost[i]) / (i + 1)
        row = (trace.chosen_rho[i], trace.costs[i], cum_cost[i], trace.cum_best[i], regret)
        lines.append(f"{i + 1}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_trace(got, reference):
    want, step_functions = reference
    assert got.to_csv() == reference_csv(want)
    assert (got.best_net_rho, got.best_net_total) == (want.best_net_rho, want.best_net_total)
    assert got.min_comparator_gap == want.min_comparator_gap
    assert_exact_comparator(got, step_functions)


# Steps per block in the block-boundary tests, which shrink the block budget
# to it so that a small T crosses block boundaries.
TEST_BLOCK = 32


def step_floats(n):
    """The floats one step adds to a block: its sliver test's crossings x
    vertex pairs at most, plus its weights."""
    pairs = n * (n - 1) // 2
    return pairs * (pairs + 1) + n


def use_blocks(monkeypatch, n, steps=TEST_BLOCK):
    """Set the block budget so that n-vertex runs take `steps` steps per block."""
    monkeypatch.setattr(online, "_BLOCK_ROOTS", steps * step_floats(n))
    assert online._block_steps(n) == steps
    return steps


class TestBlockedRunner:
    """The blocked runner against the per-step reference loop, byte for byte."""

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "B-1", "B", "B+1", "3B+5"])
    def test_matches_per_step_loop(self, n, blocks, extra, monkeypatch):
        # T = blocks * B + extra for the block size B; n = 2 has no
        # denominators, so each of its steps is a single piece.
        T = blocks * use_blocks(monkeypatch, n) + extra
        spec = uniform_smooth_spec(n, 0.5)
        gen = erdos_renyi_generator(n, 0.4)
        got = run_smoothed_online(spec, gen, T=T, seed=n + T, net=257)
        assert_same_trace(got, reference_smoothed_run(spec, gen, T, n + T, 257))

    @pytest.mark.parametrize("T", [1, TEST_BLOCK + 1, 3 * TEST_BLOCK + 5])
    def test_interval_union_spec(self, T, monkeypatch):
        use_blocks(monkeypatch, 8)
        spec = uniform_smooth_spec(8, 0.05, ((0.6, 0.65), (0.82, 0.87)))
        gen = erdos_renyi_generator(8, 0.3)
        got = run_smoothed_online(spec, gen, T=T, seed=3, net=1001)
        assert_same_trace(got, reference_smoothed_run(spec, gen, T, 3, 1001))

    def test_shuffled_net_with_repeats_keeps_gains(self):
        spec = uniform_smooth_spec(6, 0.5)
        gen = erdos_renyi_generator(6, 0.5)
        T, seed = 45, 8
        # Repeats, both endpoints, and points exactly on transition points.
        on_points = np.concatenate([transition_points(x)[::7]
                                    for x in smooth_sequence(spec, gen, 3, seed)])
        net = np.concatenate([np.linspace(0.0, 1.0, 200), [0.0, 1.0, 0.5, 0.5],
                              on_points, on_points])
        net = np.random.default_rng(9).permutation(net)
        got = run_smoothed_online(spec, gen, T=T, seed=seed, net=net)
        assert_same_trace(got, reference_smoothed_run(spec, gen, T, seed, net))

    @pytest.mark.parametrize("net", [np.array([np.nan, -0.5, 0.3, 1.7]), np.array([0.2, 1.5]),
                                     np.array([-1e-12, 0.5]), np.array([0.1, np.inf]),
                                     np.array([]), np.zeros((2, 2)), 0, True],
                             ids=["nan-and-outside", "above-1", "below-0", "inf", "empty",
                                  "2-d", "size-0", "bool"])
    def test_rejects_bad_net_before_drawing(self, net):
        def gen(rng):
            raise AssertionError("an instance was drawn")

        with pytest.raises(ValueError, match="net"):
            run_smoothed_online(uniform_smooth_spec(4, 0.5), gen, T=3, seed=0, net=net)

    @pytest.mark.parametrize("net", [-5, np.int64(-1)])
    def test_negative_net_size_is_named(self, net):
        with pytest.raises(ValueError, match=r"net size must be a point count >= 1, got -\d"):
            run_smoothed_online(uniform_smooth_spec(4, 0.5), erdos_renyi_generator(4, 0.5),
                                T=3, seed=0, net=net)

    def test_numpy_integer_net_size(self):
        spec, gen = uniform_smooth_spec(5, 0.5), erdos_renyi_generator(5, 0.4)
        got = run_smoothed_online(spec, gen, T=6, seed=4, net=np.int64(16))
        assert np.array_equal(got.net, np.linspace(0.0, 1.0, 16))
        assert_same_trace(got, reference_smoothed_run(spec, gen, 6, 4, got.net))

    def test_rejects_more_than_63_vertices_before_drawing(self):
        def gen(rng):
            raise AssertionError("an instance was drawn")

        with pytest.raises(ValueError, match="n <= 63"):
            run_smoothed_online(uniform_smooth_spec(64, 0.5), gen, T=3, seed=0, net=8)

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError, match="T >= 1"):
            run_smoothed_online(uniform_smooth_spec(4, 0.5), erdos_renyi_generator(4, 0.5),
                                T=0, seed=0, net=8)

    def test_duplicate_weights_mid_block_rejected(self, monkeypatch):
        class RepeatsOnFifthDraw:
            # Uniform draws, except that the fifth is 0.5; two vertices with
            # this distribution tie at step 5, inside the first block.
            density = 1.0

            def __init__(self):
                self.draws = 0

            def sample(self, rng):
                self.draws += 1
                u = rng.uniform(0.0, 1.0)
                return 0.5 if self.draws == 5 else u

        dists = (RepeatsOnFifthDraw(), RepeatsOnFifthDraw()) + (UniformUnion(((0.0, 1.0),)),) * 4
        with pytest.raises(ValueError, match="distinct"):
            run_smoothed_online(SmoothSpec(0.5, dists), erdos_renyi_generator(6, 0.4),
                                T=use_blocks(monkeypatch, 6), seed=0, net=33)

    def test_large_graphs_get_short_blocks(self):
        # The longest block whose arrays fit the budget, one step when even
        # one step does not fit; weights count, so n <= 2 is bounded.
        for n in range(1, 64):
            B, per_step = online._block_steps(n), step_floats(n)
            assert B == 1 or B * per_step <= online._BLOCK_ROOTS
            assert (B + 1) * per_step > online._BLOCK_ROOTS
        assert (online._block_steps(2), online._block_steps(8)) == (65536, 319)
        assert online._block_steps(32) == online._block_steps(63) == 1

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("T", [1, 37, 300])
    def test_trace_is_the_same_for_any_block_length(self, n, T, monkeypatch):
        spec, gen = uniform_smooth_spec(n, 0.5), erdos_renyi_generator(n, 0.4)
        want = run_smoothed_online(spec, gen, T=T, seed=T, net=129)
        # 1-step blocks, 7-step blocks, then one block for the whole run.
        for steps in (1, 7, T):
            monkeypatch.setattr(online, "_block_steps", lambda n, steps=steps: steps)
            got = run_smoothed_online(spec, gen, T=T, seed=T, net=129)
            assert got.to_csv() == want.to_csv()
            assert got.min_comparator_gap == want.min_comparator_gap
            assert (got.best_ref_rho, got.best_ref_total) == (want.best_ref_rho, want.best_ref_total)


class TestComparatorGap:
    """`min_comparator_gap` of a smoothed run, computed when first read."""

    def test_first_read_equals_the_eager_block_minimum(self, monkeypatch):
        spec, gen = uniform_smooth_spec(8, 0.25), erdos_renyi_generator(8, 0.3)
        B = use_blocks(monkeypatch, 8)
        T, seed = 3 * B + 5, 4
        rng = labeled_rng(seed, "smooth-sequence")
        want = min(superset_step_functions(*online._draw_block(spec, gen, rng, min(B, T - start)))[3]
                   for start in range(0, T, B))
        calls = []
        rows = online._transition_rows
        monkeypatch.setattr(online, "_transition_rows", lambda w: calls.append(len(w)) or rows(w))
        trace = run_smoothed_online(spec, gen, T=T, seed=seed, net=501)
        cut = len(calls)  # supersets of the steps flagged for sliver cuts, if any
        assert trace.min_comparator_gap == want
        assert sum(calls[cut:]) == T  # the read built every step's superset once
        assert trace.min_comparator_gap == want
        assert sum(calls[cut:]) == T  # and a second read did not build it again

    def test_gap_is_a_constructor_argument(self):
        fields = (np.zeros(2),) * 4 + (0.0, 1.0, 0.0, 1.0)
        assert RegretTrace(*fields).min_comparator_gap is None
        trace = RegretTrace(*fields, min_comparator_gap=0.25)
        assert trace.min_comparator_gap == 0.25
        trace.min_comparator_gap = 0.5
        assert trace.min_comparator_gap == 0.5
        assert run_adversary_online(60, 3, 0).min_comparator_gap is None


class ZeroInSecondBlock:
    """A generator whose second block draw (a 2-D `random` call with more
    columns than vertex pairs) has its first vertex weight draw replaced by 0;
    everything else delegates."""

    def __init__(self, rng, pairs):
        self.rng, self.pairs, self.blocks = rng, pairs, 0

    def random(self, size=None):
        out = self.rng.random(size)
        if np.ndim(out) == 2 and out.shape[1] > self.pairs:
            self.blocks += 1
            if self.blocks == 2:
                out[0, self.pairs] = 0.0
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


class CountingUniform:
    """A distribution that is not a `UniformUnion`: uniform on (0, 1]."""

    density = 1.0

    def __init__(self):
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return 1.0 - rng.random()


class TestBlockStream:
    """`_draw_block` against `smooth_sequence`, bit for bit."""

    @staticmethod
    def assert_blocks_match(spec, gen, sizes, seed, want):
        rng = labeled_rng(seed, "smooth-sequence")
        start = 0
        for size in sizes:
            weights, edges, step = online._draw_block(spec, gen, rng, size)
            assert weights.shape == (size, spec.n)
            for s, x in enumerate(want[start:start + size]):
                assert weights[s].tobytes() == x.weights.tobytes()
                assert np.array_equal(edges[step == s], x.edges)
            start += size
        assert start == len(want)

    @staticmethod
    def forbid_per_step_draws(monkeypatch):
        def per_step(*args):
            raise AssertionError("a block was drawn one step at a time")

        monkeypatch.setattr(online, "_instances", per_step)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_uniform_spec(self, n, monkeypatch):
        B = use_blocks(monkeypatch, n)
        spec, gen = uniform_smooth_spec(n, 0.5), erdos_renyi_generator(n, 0.4)
        want = smooth_sequence(spec, gen, 2 * B + 2, n)
        self.forbid_per_step_draws(monkeypatch)
        self.assert_blocks_match(spec, gen, [1, B, B + 1], n, want)

    def test_per_vertex_interval_unions(self, monkeypatch):
        # Up to three intervals per vertex, some starting at 0, one ending at 1.
        dists = (UniformUnion(((0.0, 0.3), (0.5, 0.6), (0.9, 1.0))), UniformUnion(((0.2, 0.7),)),
                 UniformUnion(((0.05, 0.1), (0.4, 0.45))), UniformUnion(((0.0, 0.02), (0.6, 0.65),
                                                                        (0.82, 0.87))))
        spec, gen = SmoothSpec(0.05, dists * 2), erdos_renyi_generator(8, 0.3)
        B = use_blocks(monkeypatch, 8)
        want = smooth_sequence(spec, gen, 2 * B + 2, 4)
        self.forbid_per_step_draws(monkeypatch)
        self.assert_blocks_match(spec, gen, [1, B, B + 1], 4, want)

    def test_zero_weight_redraws_the_block_per_step(self, monkeypatch):
        spec, gen = uniform_smooth_spec(6, 0.5), erdos_renyi_generator(6, 0.4)
        T, seed = 3 * use_blocks(monkeypatch, 6) + 2, 13
        reference = reference_smoothed_run(spec, gen, T, seed, 129)
        rngs = []

        def patched(root, label):
            rng = labeled_rng(root, label)
            if label == "smooth-sequence":
                rngs.append(ZeroInSecondBlock(rng, 15))
                return rngs[-1]
            return rng

        monkeypatch.setattr(online, "labeled_rng", patched)
        got = run_smoothed_online(spec, gen, T=T, seed=seed, net=129)
        assert rngs[0].blocks == 4  # the zero forced one redraw; blocks 3 and 4 went whole
        assert_same_trace(got, reference)

    def test_other_distributions_draw_per_step(self, monkeypatch):
        dists = (CountingUniform(),) + (UniformUnion(((0.0, 1.0),)),) * 4
        spec, gen = SmoothSpec(0.5, dists), erdos_renyi_generator(5, 0.4)
        T = use_blocks(monkeypatch, 5) + 3
        reference = reference_smoothed_run(spec, gen, T, 2, 65)
        dists[0].draws = 0
        got = run_smoothed_online(spec, gen, T=T, seed=2, net=65)
        assert dists[0].draws == T
        assert_same_trace(got, reference)


def _reference_own_crossings(x):
    """Crossings of the vertex pairs of x with distinct degrees, neither
    vertex isolated, solved one pair at a time over reduced degree ratios."""
    k, logw, roots = x.degrees + 1, np.log(x.weights), set()
    for i in range(x.n):
        for j in range(i + 1, x.n):
            if k[i] != k[j] and min(k[i], k[j]) >= 2:
                g = math.gcd(int(k[i]), int(k[j]))
                r = (logw[i] - logw[j]) / (math.log(k[i] // g) - math.log(k[j] // g))
                if 0.0 <= r <= 1.0:
                    roots.add(float(r))
    return np.array(sorted(roots))


def batch_row(batch, i):
    """Row i of a `StepFunctions` batch, as its change points and its piece values."""
    points, offsets, values = batch.points, batch.offsets, batch.values
    return points[offsets[i]:offsets[i + 1]], values[offsets[i] + i:offsets[i + 1] + i + 1]


def step_at(points, values, rhos):
    """One step function's values at rhos, right-continuous."""
    return values[np.searchsorted(points, rhos, side="right")]


def merged_step(points, values):
    """One step function with equal neighbouring pieces merged, as (points, values)."""
    change = values[1:] != values[:-1]
    return points[change], values[np.concatenate([[True], change])]


class TestStackedPaths:
    """The stacked transition-point and bitmask paths, row by row."""

    @staticmethod
    def mixed_block(rng, n=8, repeat_weights=False):
        # An edgeless graph, the complete graph and three Erdos-Renyi graphs.
        i, j = np.triu_indices(n, k=1)
        graphs = [np.empty((0, 2), dtype=np.int64), np.stack([i, j], axis=1)]
        for p in (0.2, 0.5, 0.8):
            keep = rng.random(i.size) < p
            graphs.append(np.stack([i[keep], j[keep]], axis=1))
        return [MwisInstance(n, e, rng.choice(MWIS_WEIGHT_PALETTE, size=n, replace=repeat_weights))
                for e in graphs]

    @staticmethod
    def block_arrays(block):
        """A list of instances as `online._draw_block` returns a block."""
        step = np.repeat(np.arange(len(block)), [len(x.edges) for x in block])
        return np.stack([x.weights for x in block]), np.concatenate([x.edges for x in block]), step

    def test_masks_match_scalar_greedy_on_ties(self):
        # Repeated palette weights tie scores exactly (equal weight and
        # degree), and palette crossings tie them at the crossing points.
        rng = np.random.default_rng(5)
        fam = mwis_family(8)
        for _ in range(4):
            block = self.mixed_block(rng, repeat_weights=True)
            logw = np.log(MWIS_WEIGHT_PALETTE)
            dw = (logw[:, None] - logw[None, :]).ravel()
            dk = np.log(np.arange(1.0, 9.0))
            dk = (dk[:, None] - dk[None, :]).ravel()
            roots = (dw[:, None] / dk[dk > 0][None, :]).ravel()
            rhos = np.unique(np.concatenate([[0.0, 0.5, 1.0], roots[(roots >= 0) & (roots <= 1)]]))
            owner = np.repeat(np.arange(len(block)), rhos.size)
            rows = np.tile(rhos, len(block))
            weights, edges, step = self.block_arrays(block)
            lanes = _graph_lanes(8, len(block), edges, step)
            masks = _nonadaptive_masks(np.log(weights), *lanes, owner, rows)
            for mask, i, rho in zip(masks, owner, rows):
                sol, cost = run_greedy(fam, rho, block[i])
                assert tuple(np.flatnonzero(mask)) == sol
                assert mask_cost(mask, block[i].weights) == cost.value

    def test_step_functions_match_per_instance_paths(self):
        rng = np.random.default_rng(6)
        fam = mwis_family(8)
        for _ in range(4):
            block = self.mixed_block(rng)
            weights = np.stack([x.weights for x in block])
            points, offsets = online._transition_rows(weights)
            batch = StepFunctions(*online._step_functions(*self.block_arrays(block)))
            gaps = []
            for i, x in enumerate(block):
                tau = points[offsets[i]:offsets[i + 1]]
                assert np.array_equal(tau, transition_points(x))
                assert np.array_equal(tau, _reference_transition_points(x))
                grid = np.concatenate([[0.0], tau, [1.0]])
                mids = (grid[:-1] + grid[1:]) / 2.0
                want = [run_greedy(fam, r, x)[1].value / total_weight(x) for r in mids]
                assert step_at(*batch_row(batch, i), mids).tolist() == want
                assert np.isin(batch_row(batch, i)[0], tau).all()
                gaps.extend(np.diff(tau))
            assert online._min_transition_gap([weights]) == min(gaps)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_own_crossings_keep_the_superset_step_functions(self, n):
        # Continuous weights: every own crossing is bitwise a superset point,
        # and cutting by the superset instead gives the same merged function.
        rng = np.random.default_rng(n)
        fam = mwis_family(n)
        for _ in range(3):
            block = [MwisInstance(n, x.edges, 1.0 - rng.random(n)) for x in self.mixed_block(rng, n)]
            weights, edges, step = self.block_arrays(block)
            points, offsets = online._transition_rows(weights)
            degrees, _ = _graph_lanes(n, len(block), edges, step)
            own, own_offsets = _rows_within(_nonadaptive_crossings(np.log(weights), degrees), 0.0, 1.0)
            batch = StepFunctions(*online._step_functions(weights, edges, step))
            for i, x in enumerate(block):
                tau = points[offsets[i]:offsets[i + 1]]
                mine = own[own_offsets[i]:own_offsets[i + 1]]
                assert np.array_equal(mine, _reference_own_crossings(x))
                assert np.isin(mine, tau).all()
                grid = np.concatenate([[0.0], tau, [1.0]])
                pieces = grid_costs(fam, (grid[:-1] + grid[1:]) / 2.0, x) / total_weight(x)
                superset = merged_step(tau, pieces)
                assert np.array_equal(batch_row(batch, i)[0], superset[0])
                assert np.array_equal(batch_row(batch, i)[1], superset[1])

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_offline_rows_over_total_weight_are_online_rows(self, n):
        # The same graphs on [0, 1]: at every online piece midpoint the
        # offline row (greedy weight) over the total weight is the online row.
        rng = np.random.default_rng(100 + n)
        block = [MwisInstance(n, x.edges, 1.0 - rng.random(n)) for x in self.mixed_block(rng, n)]
        points, offsets, values = online._step_functions(*self.block_arrays(block))
        offline = greedy.step_functions(mwis_family(n), block)
        for i, x in enumerate(block):
            grid = np.concatenate([[0.0], points[offsets[i]:offsets[i + 1]], [1.0]])
            mids = (grid[:-1] + grid[1:]) / 2.0
            want = values[offsets[i] + i:offsets[i + 1] + i + 1]
            assert (offline.at(mids)[:, i] / total_weight(x)).tolist() == want.tolist()

    def test_batch_gains_match_each_row(self):
        # A block's rows (the edgeless graph's has no change point) and rows
        # with points at 0 and 1, on a sorted net, a shuffled net with
        # repeats, and a net of the change points themselves.
        rng = np.random.default_rng(7)
        block = StepFunctions(*online._step_functions(*self.block_arrays(self.mixed_block(rng))))
        rows = [batch_row(block, i) for i in range(5)]
        assert {p.size == 0 for p, _ in rows} == {True, False}
        rows += [(np.empty(0), np.array([0.3])), (np.array([0.0, 0.25, 1.0]), np.array([0.1, 0.2, 0.1, 0.4]))]
        points = np.concatenate([p for p, _ in rows])
        offsets = np.cumsum([0] + [p.size for p, _ in rows])
        values = np.concatenate([v for _, v in rows])
        batch = StepFunctions(points, offsets, values)
        uniform = np.linspace(0.0, 1.0, 101)
        for net in (uniform, rng.permutation(np.concatenate([uniform, uniform[::3], [0.0, 1.0]])),
                    rng.permutation(np.concatenate([points, points]))):
            gains = list(batch._rows(net))
            assert len(gains) == len(rows)
            for g, (p, v) in zip(gains, rows):
                assert isinstance(g, float) == (p.size == 0)
                assert np.array_equal(np.broadcast_to(g, net.shape), step_at(p, v, net))

    @staticmethod
    def weights_of(kind, n, rng):
        if kind == "continuous":
            return 1.0 - rng.random(n)
        if kind == "palette":  # ratios of small integers: every log ratio is a denominator
            return rng.choice(np.arange(1.0, 13.0) / 12.0, size=n, replace=False)
        base = rng.choice([0.5, 1.0 / 1.17])  # powers of one base repeat every difference
        return base ** rng.choice(12, size=n, replace=False)

    @staticmethod
    def assert_same_functions(got, want):
        got, want = StepFunctions(*got), StepFunctions(*want[:3])
        for name in ("points", "offsets", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("kind", ["continuous", "palette", "repeated-difference"])
    def test_step_functions_equal_the_all_flagged_oracle(self, n, kind):
        # Cutting only the flagged steps at their sliver points gives the
        # merged functions of cutting every step there, bit for bit.
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(4):
            block = [MwisInstance(n, x.edges, self.weights_of(kind, n, rng))
                     for _ in range(4) for x in self.mixed_block(rng, n)]
            arrays = self.block_arrays(block)
            self.assert_same_functions(online._step_functions(*arrays), superset_step_functions(*arrays))

    @staticmethod
    def sliver_block(n, where, rng, rows=40):
        """`rows` Erdos-Renyi graphs with weights that put a sliver at each:
        for "crossing" a transition point of another pair at most 1e-10 from
        an own crossing in (0, 1), for "zero" and "one" an own crossing at
        most 1e-10 from 0 or from 1."""
        i, j = np.triu_indices(n, k=1)
        denoms = [d for d in online._canonical_denominators(n) if d > 0]
        block = []
        while len(block) < rows:
            keep = rng.random(i.size) < 0.5
            k = np.bincount(np.concatenate([i[keep], j[keep]]), minlength=n) + 1
            own = [(a, b) for a, b in zip(i.tolist(), j.tolist()) if k[a] != k[b] and min(k[a], k[b]) > 1]
            if not own:
                continue
            a, b = own[rng.integers(len(own))]
            ratio = greedy._log_ratios(n)[k[a], k[b]]
            delta = rng.choice([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10])
            logw = rng.uniform(-6.0, -3.0, n)  # every weight stays below 1
            if where == "crossing":
                logw[a] = logw[b] + rng.uniform(0.05, 0.95) * ratio
                f = rng.choice([v for v in range(n) if v not in (a, b)])
                e = rng.choice([v for v in range(n) if v != f])
                logw[f] = logw[e] - rng.choice(denoms) * ((logw[a] - logw[b]) / ratio + delta)
            else:
                logw[a] = logw[b] + (delta if where == "zero" else 1.0 + delta) * ratio
            weights = np.exp(logw)
            if np.unique(weights).size == n:
                block.append(MwisInstance(n, np.stack([i[keep], j[keep]], axis=1), weights))
        return block

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("where", ["crossing", "zero", "one"])
    def test_constructed_slivers_equal_the_all_flagged_oracle(self, n, where):
        rng = np.random.default_rng([n, len(where)])
        arrays = self.block_arrays(self.sliver_block(n, where, rng))
        self.assert_same_functions(online._step_functions(*arrays), superset_step_functions(*arrays))

    def test_constructed_slivers_need_their_cuts(self, monkeypatch):
        # Cut by own crossings alone, some constructed rows change, so the
        # test above would catch a sliver test that missed them.
        rng = np.random.default_rng(3)
        blocks = [self.block_arrays(self.sliver_block(n, where, rng))
                  for n in (5, 8, 12) for where in ("crossing", "zero", "one")]
        want = [StepFunctions(*superset_step_functions(*arrays)[:3]) for arrays in blocks]
        monkeypatch.setattr(online, "_needs_slivers", lambda logw, roots: np.zeros(len(logw), bool))
        got = [StepFunctions(*online._step_functions(*arrays)) for arrays in blocks]
        assert any(g.points.tobytes() != w.points.tobytes() or g.values.tobytes() != w.values.tobytes()
                   for g, w in zip(got, want))

    def test_bitmask_lane_limit_kept(self):
        x = MwisInstance(64, [(0, 1)], np.linspace(0.01, 1.0, 64))
        with pytest.raises(ValueError, match="n <= 63"):
            grid_masks(mwis_family(64), [0.5], x)
        with pytest.raises(ValueError, match="n <= 63"):
            _graph_lanes(64, 1, x.edges, np.zeros(1, dtype=np.int64))


class TestTheoreticalQuantities:
    def test_m_and_q_formulas(self):
        assert theoretical_m(8, 0.25) == math.ceil(8 * math.log(4))
        m = theoretical_m(8, 0.25)
        expected_q = 1.0 / (8 * 4 * 4 * m**2 * 8**8 * math.log(8))
        assert theoretical_q(8, 0.25) == pytest.approx(expected_q, rel=1e-12)

    def test_min_gap_helper(self):
        assert min_pairwise_gap(np.array([0.1, 0.4, 0.45])) == pytest.approx(0.05)
        assert min_pairwise_gap(np.array([0.3])) == math.inf


def reference_adversary_run(n_budget, T, seed):
    """`run_adversary_online` one step at a time: each grid point's gain from
    the closed form with exact rationals, one full-net Hedge step."""
    params_list = adversary_sequence(n_budget, T, seed)
    n = params_list[0].n
    grid = [Fraction(k, n) for k in range(n + 1)]
    net = np.arange(n + 1) / n
    learner = NetHedgeLearner(net, T)
    rng = labeled_rng(seed, "mw-learner")
    chosen, costs, cum_best = (np.empty(T) for _ in range(3))
    net_totals = np.zeros(net.size)
    ref_total = 0.0
    for t, p in enumerate(params_list):
        gains = np.array([hard_cost_at(p, rho) for rho in grid])
        idx = learner.sample(rng)
        learner.update(gains)
        net_totals += gains
        ref_total += p.inside_cost()
        chosen[t], costs[t], cum_best[t] = net[idx], gains[idx], net_totals.max()
    best = int(np.argmax(net_totals))
    final = params_list[-1]
    return RegretTrace(net, chosen, costs, cum_best, float(net[best]), float(net_totals[best]),
                       float((final.r + final.s) / 2), ref_total)


class TestAdversaryOnlineRun:
    def test_reference_comparator_and_determinism(self):
        trace = run_adversary_online(200, T=30, seed=17)
        again = run_adversary_online(200, T=30, seed=17)
        assert np.array_equal(trace.costs, again.costs)
        params = adversary_sequence(200, 30, seed=17)
        assert trace.best_ref_total == pytest.approx(sum(p.inside_cost() for p in params))
        assert trace.net.size == params[0].n + 1
        assert trace.avg_regret_ref >= trace.avg_regret - 1e-12

    def test_gains_match_closed_form(self):
        T, seed = 12, 23
        trace = run_adversary_online(200, T=T, seed=seed)
        params = adversary_sequence(200, T, seed=seed)
        n = params[0].n
        totals = np.zeros(n + 1)
        for p in params:
            totals += np.array([hard_cost_at(p, Fraction(k, n)) for k in range(n + 1)])
        assert totals.max() == pytest.approx(trace.cum_best[-1], abs=1e-9)

    @pytest.mark.parametrize("n_budget", [200, 1500])
    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_matches_per_step_loop(self, n_budget, seed):
        T = 40
        got = run_adversary_online(n_budget, T, seed)
        want = reference_adversary_run(n_budget, T, seed)
        assert got.to_csv() == reference_csv(want)
        assert np.array_equal(got.net, want.net)
        assert (got.best_net_rho, got.best_net_total) == (want.best_net_rho, want.best_net_total)
        assert (got.best_ref_rho, got.best_ref_total) == (want.best_ref_rho, want.best_ref_total)

    def test_regret_grows_with_size(self):
        # Bigger constructions leave the learner a smaller escape hatch.
        small = np.mean([run_adversary_online(200, 60, seed=s).avg_regret_ref for s in range(4)])
        large = np.mean([run_adversary_online(1500, 60, seed=s).avg_regret_ref for s in range(4)])
        assert large >= small


class TestReplaySerialization:
    def test_hard_roundtrip(self):
        params = adversary_sequence(200, 4, seed=3)[-1]
        line = instance_to_jsonl(params)
        back = instance_from_jsonl(line)
        assert back == params  # exact rationals survive

    def test_generic_roundtrip(self):
        inst = MwisInstance(4, [(0, 1), (2, 3)], [0.1, 0.2, 0.3, 0.4])
        back = instance_from_jsonl(instance_to_jsonl(inst))
        assert np.array_equal(back.edges, inst.edges)
        assert np.array_equal(back.weights, inst.weights)

    def test_exact_exponents_survive(self):
        # The last window is 1.3e-24 wide: only the exact exponents resolve it.
        params = adversary_sequence(100, 12, seed=0)[-1]
        inst = build_hard_instance(params)
        back = instance_from_jsonl(instance_to_jsonl(inst))
        assert (back.exact_base, back.exact_exponents) == (inst.exact_base, inst.exact_exponents)
        mid, fam = (params.r + params.s) / 2, mwis_family(inst.n)
        assert run_greedy(fam, mid, inst)[1].value == run_greedy(fam, mid, back)[1].value == 1.0
