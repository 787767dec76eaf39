"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The wall-clock budgets asserted here are part of the criteria.  Expect the
full module to take a few minutes; the online regret criterion (07) dominates.
"""

import math
import time
from fractions import Fraction

import numpy as np

from _fixtures import (
    KNAPSACK_SIZE_PALETTE,
    KNAPSACK_VALUE_PALETTE,
    MWIS_WEIGHT_PALETTE,
    crafted_shatter_pair,
)
from _grid_oracles import crossing_superset, grid_costs, grid_masks, min_pairwise_gap, scalar_costs
from algoselect.cli import main as cli_main
from algoselect.core import MINIMIZE, realized_labelings, shatter_probe
from algoselect.epm import FeatureMap, fit_linear_epm, select_per_instance
from algoselect.gdtune import GdFamily, GdInstance, erm_stepsize, knet, run_gd, verify_lemmas
from algoselect.greedy import (
    erm_breakpoint,
    knapsack_family,
    mwis_family,
    piece_costs,
    random_knapsack_instance,
    random_mwis_instance,
    run_greedy,
)
from algoselect.online import (
    HardInstanceParams,
    adversary_sequence,
    build_hard_instance,
    erdos_renyi_generator,
    run_adversary_online,
    run_smoothed_online,
    smooth_sequence,
    theoretical_m,
    theoretical_q,
    transition_points,
    uniform_smooth_spec,
)
from algoselect.sorter import mergesort_count, sort, train_sorter
from algoselect.utils import labeled_rng


def report(number: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s){suffix}")


def test_01_hard_instance_exactness():
    start = time.monotonic()
    r, s = Fraction(1, 4), Fraction(3, 4)
    outside_costs = {False: {0.1: [], 0.9: []}, True: {0.1: [], 0.9: []}}
    ok = True
    for m in (5, 10, 20):
        params = HardInstanceParams(m, r, s)
        inst = build_hard_instance(params)
        mass_ids = tuple(range(params.size_a, params.size_a + params.size_b))
        t = params.t
        bound = (m**2 - 2) * t * m**0.25 + (m**2 + m + 1) * t * m**-0.75 + (m - 2) * t
        for adaptive in (False, True):
            fam = mwis_family(inst.n, adaptive=adaptive)
            sol, cost = run_greedy(fam, 0.5, inst)
            ok &= sol == mass_ids and abs(cost.value - 1.0) <= 1e-12
            for rho in (0.1, 0.9):
                value = run_greedy(fam, rho, inst)[1].value
                ok &= value <= bound
                outside_costs[adaptive][rho].append(value)
    for adaptive in (False, True):
        for rho in (0.1, 0.9):
            seq = outside_costs[adaptive][rho]
            ok &= all(b < a for a, b in zip(seq, seq[1:]))  # decreasing in m
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(1, "hard-instance-exactness", ok, elapsed)
    assert ok


def _erm_batches():
    for batch in range(50):
        rng = labeled_rng(batch, "acceptance-erm")
        mwis = [random_mwis_instance(8, 0.4, rng, weight_choices=MWIS_WEIGHT_PALETTE)
                for _ in range(10)]
        knap = [random_knapsack_instance(6, rng, KNAPSACK_VALUE_PALETTE, KNAPSACK_SIZE_PALETTE)
                for _ in range(10)]
        yield (mwis_family(8), mwis), (knapsack_family(6, (0.0, 2.0)), knap)


def test_02_and_03_breakpoint_erm_oracle_and_piecewise_constancy():
    start = time.monotonic()
    exact_matches = total = 0
    constant_subintervals = probed_subintervals = 0
    for problems in _erm_batches():
        for family, samples in problems:
            lo, hi = family.interval
            _, erm_report = erm_breakpoint(family, *piece_costs(family, samples))
            grid_edges = np.concatenate([[lo], crossing_superset(family, samples), [hi]])
            spacing = 0.45 * min(np.diff(grid_edges).min(), 0.01)
            grid = np.concatenate([np.arange(lo, hi, spacing), [hi]])
            per_sample = np.stack([grid_costs(family, grid, x) for x in samples])
            oracle_best = np.ascontiguousarray(per_sample.T).mean(axis=1).max()
            exact_matches += erm_report.train_mean == oracle_best
            total += 1
            # Criterion 3: identical solutions at 3 probes per subinterval.
            los, his = grid_edges[:-1], grid_edges[1:]
            offsets = np.array([0.25, 0.5, 0.75])
            probes = (los[:, None] + (his - los)[:, None] * offsets[None, :]).ravel()
            for x in samples:
                masks = grid_masks(family, probes, x).reshape(los.size, 3, -1)
                constant_subintervals += int((masks == masks[:, :1, :]).all(axis=(1, 2)).sum())
                probed_subintervals += los.size
    elapsed = time.monotonic() - start
    ok2 = exact_matches == total == 100 and elapsed < 60.0
    report(2, "breakpoint-erm-oracle-equivalence", ok2, elapsed,
           f"{exact_matches}/{total} exact")
    ok3 = constant_subintervals == probed_subintervals
    report(3, "piecewise-constancy", ok3, elapsed,
           f"{constant_subintervals}/{probed_subintervals} subintervals constant")
    assert ok2
    assert ok3


def test_04_gd_lemma_suite():
    start = time.monotonic()
    family = GdFamily(rho_l=0.1, rho_u=0.4, L=4.0, m_sc=1.0, c=0.1, Z=1.0, nu=0.01)
    result = verify_lemmas(family, trials=10_000, seed=101)
    elapsed = time.monotonic() - start
    ok = result.ok and elapsed < 30.0
    report(4, "gd-lemma-suite", ok, elapsed,
           f"violations={len(result.violations)} step_ratio={result.max_single_step_ratio:.3f} "
           f"drift_ratio={result.max_drift_ratio:.3f} cost_gap={result.max_cost_gap}")
    assert ok


def test_05_gd_erm_one_step_optimum():
    start = time.monotonic()
    family = GdFamily(rho_l=0.9, rho_u=1.1, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.04)
    samples = [GdInstance([1.0], [z]) for z in (1.0, -1.0, 1.0, -1.0)]
    # Coarse net where the one-step window holds a single point: the returned
    # parameter is literally the net point nearest 1.
    coarse = [0.9, 0.95, 1.0, 1.05, 1.1]
    rho_coarse, report_coarse = erm_stepsize(family, samples, net=coarse)
    coarse_means = [np.mean([run_gd(family, r, x) for x in samples]) for r in coarse]
    ok = rho_coarse == 1.0 and report_coarse.train_mean == min(coarse_means) == 1.0
    # Full K-net: the chosen point attains the exhaustive-net minimum exactly,
    # which is one-step convergence.
    net = knet(family)
    rho_net, report_net = erm_stepsize(family, samples, net=net)
    net_means = np.array([np.mean([run_gd(family, r, x) for x in samples]) for r in net])
    ok &= report_net.train_mean == net_means.min() == 1.0
    ok &= abs(rho_net - 1.0) <= family.nu  # inside the one-step window
    elapsed = time.monotonic() - start
    report(5, "gd-erm-step-size", ok, elapsed,
           f"coarse={rho_coarse} net={rho_net:.4f} net_size={net.size}")
    assert ok


def test_06_smoothed_gap_lemma():
    start = time.monotonic()
    n, sigma, d_exp = 8, 0.25, 1
    m = theoretical_m(n, sigma)
    q = theoretical_q(n, sigma)
    bound = 1.0 / n**d_exp  # 4 q sigma^-1 m^2 n^8 ln n collapses to this
    spec = uniform_smooth_spec(n, sigma)
    gen = erdos_renyi_generator(n, 0.3)
    collisions = 0
    for draw in range(100):
        instances = smooth_sequence(spec, gen, m, seed=draw)
        union = np.concatenate([transition_points(x) for x in instances])
        collisions += min_pairwise_gap(union) < q
    fraction = collisions / 100.0
    elapsed = time.monotonic() - start
    ok = fraction <= bound and elapsed < 120.0
    report(6, "smoothed-gap-lemma", ok, elapsed,
           f"m={m} q={q:.2e} collision_fraction={fraction} bound={bound}")
    assert ok


def test_07_smoothed_online_regret():
    start = time.monotonic()
    n, sigma, T, net_size = 8, 0.25, 10_000, 10_000
    spec = uniform_smooth_spec(n, sigma)
    gen = erdos_renyi_generator(n, 0.3)
    spacing = 1.0 / (net_size - 1)
    regrets = []
    comparators_consistent = True
    for seed in range(30):
        trace = run_smoothed_online(spec, gen, T=T, seed=seed, net=net_size)
        regrets.append(trace.avg_regret)
        no_collision = trace.min_comparator_gap is None or trace.min_comparator_gap >= spacing
        if no_collision:
            comparators_consistent &= trace.best_net_total == trace.best_ref_total
        comparators_consistent &= trace.best_ref_total >= trace.best_net_total - 1e-9
    mean_regret = float(np.mean(regrets))
    elapsed = time.monotonic() - start
    ok = mean_regret <= 0.05 and comparators_consistent and elapsed < 600.0
    report(7, "smoothed-online-regret", ok, elapsed,
           f"mean_regret={mean_regret:.4f} over 30 seeds")
    assert ok


def test_08_adversary_regret_growth():
    start = time.monotonic()
    means, off_window, hit_rate = [], [], []
    for budget in (200, 1500, 12000):
        regrets, outside, hits = [], [], []
        for seed in range(30):
            trace = run_adversary_online(budget, T=200, seed=seed)
            params = adversary_sequence(budget, 200, seed)
            regrets.append(trace.avg_regret_ref)
            outside.append(np.mean([p.outside_cost() for p in params]))
            hits.append(np.mean([c == p.inside_cost() for c, p in zip(trace.costs, params)]))
        means.append(float(np.mean(regrets)))
        off_window.append(float(np.mean(outside)))
        hit_rate.append(float(np.mean(hits)))
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    large_enough = means[-1] >= 0.8
    elapsed = time.monotonic() - start
    ok = monotone and large_enough
    report(8, "adversary-regret-growth", ok, elapsed,
           f"means={[round(v, 4) for v in means]} monotone={monotone} largest>=0.8={large_enough}")
    # Regret against the surviving window is 1 - (value collected), so at each
    # size it is set by how often the learner hits the window and by what a
    # miss is worth.
    diagnosis = (
        f"per n_budget (200, 1500, 12000): mean off-window value "
        f"{[round(v, 4) for v in off_window]}, in-window hit fraction "
        f"{[round(v, 4) for v in hit_rate]}"
    )
    assert monotone, f"regret means not monotone: {means}; {diagnosis}"
    assert large_enough, f"mean regret at n_budget=12000 is {means[-1]:.4f} < 0.8; {diagnosis}"


def test_09_sorter_correctness_and_efficiency():
    start = time.monotonic()
    n = 256
    rng = labeled_rng(9, "acceptance-sorter")
    permutation = rng.permutation(n)
    centers = ((np.arange(n) + 0.5) / n)[permutation]
    half = 0.3 / n

    def draw(count):
        return [np.clip(centers + rng.uniform(-half, half, n), 0.0, 1.0) for _ in range(count)]

    sorter = train_sorter(draw(500))
    ours, merges, fallbacks, correct = [], [], 0, 0
    for arr in draw(1000):
        out, stats = sort(sorter, arr)
        correct += np.array_equal(out, np.sort(arr))
        ours.append(stats.comparisons)
        merges.append(mergesort_count(arr.tolist())[1])
        fallbacks += stats.fallback
    adversarial_ok = True
    for k in range(20):
        hostile = np.linspace(0.5 + 0.003, 0.5, n) + k * 1e-6
        out, stats = sort(sorter, hostile)
        adversarial_ok &= np.array_equal(out, np.sort(hostile)) and stats.fallback
    mean_ours, mean_merge = float(np.mean(ours)), float(np.mean(merges))
    elapsed = time.monotonic() - start
    ok = (
        correct == 1000
        and mean_ours <= 3 * n * math.log2(n)
        and mean_ours <= mean_merge
        and fallbacks <= 10
        and adversarial_ok
    )
    report(9, "sorter-correctness-efficiency", ok, elapsed,
           f"correct={correct}/1000 mean_cmp={mean_ours:.0f} merge={mean_merge:.0f} "
           f"fallbacks={fallbacks}")
    assert ok


def test_10_epm_exactness():
    start = time.monotonic()
    rng = labeled_rng(10, "acceptance-epm")
    d = 6
    identity = FeatureMap("identity-6", d, lambda x: x)
    planted = [rng.normal(size=d) for _ in range(3)]
    train = [rng.normal(size=d) for _ in range(200)]
    holdout = [rng.normal(size=d) for _ in range(1000)]
    epms = [
        fit_linear_epm(i, train, [float(c @ x) for x in train], identity)
        for i, c in enumerate(planted)
    ]
    recovered = all(np.allclose(e.coef, c, atol=1e-9) for e, c in zip(epms, planted))
    matches = sum(
        select_per_instance(epms, x, identity, MINIMIZE)
        == int(np.argmin([c @ x for c in planted]))
        for x in holdout
    )
    elapsed = time.monotonic() - start
    ok = recovered and matches == 1000
    report(10, "epm-exactness", ok, elapsed, f"selection_matches={matches}/1000")
    assert ok


def test_11_shattering_probe():
    start = time.monotonic()
    first, second = crafted_shatter_pair()
    family = mwis_family(6)
    reps = piece_costs(family, [first, second])[0]
    matrix = scalar_costs(family, [first, second], reps)
    (pair_report,) = shatter_probe(matrix, [[0, 1]])
    reverified = (
        pair_report.shattered
        and realized_labelings(matrix, pair_report.witnesses) == 4
    )
    const_reports = shatter_probe(np.full((4, 4), 0.5), [list(range(size)) for size in (1, 2, 3, 4)])
    never_shattered = all(not r.shattered and r.labeling_count == 1 for r in const_reports)
    elapsed = time.monotonic() - start
    ok = reverified and never_shattered
    report(11, "shattering-probe", ok, elapsed,
           f"pair_labelings={pair_report.labeling_count} witnesses={pair_report.witnesses}")
    assert ok


def test_12_cli_determinism(tmp_path):
    start = time.monotonic()
    instance_dir = tmp_path / "instances"
    instance_dir.mkdir()
    from algoselect.greedy import save_mwis

    rng = labeled_rng(12, "acceptance-cli")
    for i in range(4):
        save_mwis(random_mwis_instance(6, 0.4, rng), str(instance_dir / f"g{i}.json"))
    commands = [
        ("erm-greedy", ["--instances", str(instance_dir)]),
        ("gd-tune", ["--samples", "8", "--dim", "2"]),
        ("online", ["--n", "5", "--T", "10", "--net-size", "32", "--sigma", "0.5"]),
        ("adversary", ["--n-budget", "200", "--T", "5"]),
        ("pdim-probe", ["--family", "mwis", "--n", "5", "--sets", "2", "--set-size", "1"]),
        ("epm", ["--n", "5", "--samples", "20", "--holdout", "5"]),
        ("sort-bench", ["--n", "32", "--train", "20", "--test", "10"]),
    ]
    identical = {}
    for name, extra in commands:
        out_a = tmp_path / f"{name}-a.out"
        out_b = tmp_path / f"{name}-b.out"
        code_a = cli_main([name, *extra, "--seed", "7", "--out", str(out_a)])
        code_b = cli_main([name, *extra, "--seed", "7", "--out", str(out_b)])
        identical[name] = code_a == code_b == 0 and out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.monotonic() - start
    ok = all(identical.values())
    report(12, "cli-determinism", ok, elapsed,
           "all byte-identical" if ok else f"mismatches: {[k for k, v in identical.items() if not v]}")
    assert ok
