import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from algoselect.core import StepFunctions, merge_close
from algoselect.gdtune import (
    GdFamily,
    GdInstance,
    GuaranteedProgressError,
    _net_iterations,
    drift_bound,
    erm_stepsize,
    knet,
    load_gd_instance,
    net_costs,
    random_instance,
    run_gd,
    save_gd_instance,
    step_functions,
    step_map,
    verify_lemmas,
)
from algoselect.utils import labeled_rng

# The family used by the lemma-suite acceptance runs, and the gd-tune defaults.
LEMMA_FAMILY = GdFamily(rho_l=0.1, rho_u=0.4, L=4.0, m_sc=1.0, c=0.1, Z=1.0, nu=0.01)
# The same family on [0.1, 0.105]: a 201-point K-net.
NARROW_FAMILY = dataclasses.replace(LEMMA_FAMILY, rho_u=0.105)


# H = log(nu / Z) / log(1 - c) = 3 exactly, and one step halves the norm: a
# start at Z (1 + 1e-12) runs into the iteration cap.
CAP_FAMILY = GdFamily(rho_l=1.0, rho_u=1.0, L=0.5, m_sc=0.5, c=0.5, Z=1.0, nu=0.125)
CAP_SAMPLE = GdInstance([0.5], [1 + 1e-12])
CAP_ERROR = "no convergence within 3 iterations; guaranteed progress violated"


def unit_family(**overrides):
    base = dict(rho_l=0.5, rho_u=1.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.1)
    return GdFamily(**(base | overrides))


class TestFamilyValidation:
    def test_progress_factor_bound_enforced(self):
        with pytest.raises(ValueError, match="progress factor"):
            GdFamily(rho_l=0.1, rho_u=0.4, L=4.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.01)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(rho_l=0.0),
            dict(rho_l=1.2),  # rho_l > rho_u
            dict(m_sc=0.0),
            dict(m_sc=2.0),  # m_sc > L
            dict(c=0.0),
            dict(c=1.0),
            dict(nu=0.0),
            dict(nu=2.0),  # nu >= Z
            dict(L=math.inf),
            dict(Z=math.inf),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(ValueError):
            unit_family(**overrides)

    def test_H_positive_and_caps_runs(self):
        fam = unit_family()
        assert fam.H == pytest.approx(math.log(0.1) / math.log(0.5))
        assert fam.iteration_cap == 4


class TestStepMap:
    def test_zero_is_fixed_point(self):
        inst = GdInstance([2.0], [1.0])
        assert step_map(0.7, np.zeros(1), inst) == pytest.approx(0.0)

    def test_one_dim_hand_value(self):
        # z=1, lambda=2, rho=0.25 -> 1 - 0.25*2 = 0.5
        inst = GdInstance([2.0], [1.0])
        assert step_map(0.25, np.array([1.0]), inst)[0] == pytest.approx(0.5)

    def test_linearity_in_z(self):
        rng = np.random.default_rng(0)
        inst = GdInstance(rng.uniform(1, 3, 4), rng.normal(size=4))
        z = rng.normal(size=4)
        for alpha in (-1.5, 0.25, 3.0):
            assert np.allclose(step_map(0.3, alpha * z, inst), alpha * step_map(0.3, z, inst))


class TestRunGd:
    def test_already_converged(self):
        fam = unit_family()
        assert run_gd(fam, 0.5, GdInstance([1.0], [0.05])) == 0

    def test_hand_iterated_halving(self):
        # z_k = 0.5^k from z0=1: stops at 0.0625 <= 0.1 after 4 steps.
        fam = unit_family()
        assert run_gd(fam, 0.5, GdInstance([1.0], [1.0])) == 4

    def test_exact_minimizer_step(self):
        fam = unit_family()
        for z0 in (0.11, 0.5, 1.0):
            assert run_gd(fam, 1.0, GdInstance([1.0], [z0])) == 1

    def test_never_exceeds_cap(self):
        rng = np.random.default_rng(1)
        fam = LEMMA_FAMILY
        for _ in range(50):
            inst = random_instance(fam, int(rng.integers(1, 5)), rng)
            rho = rng.uniform(fam.rho_l, fam.rho_u)
            assert run_gd(fam, rho, inst) <= fam.iteration_cap

    def test_progress_invariant_asserted(self):
        # lambda=4 at rho=0.5 maps z to -z: no progress at all, which violates
        # the guaranteed shrink factor even though lambda lies in [m_sc, L].
        fam = GdFamily(rho_l=0.5, rho_u=0.5, L=4.0, m_sc=1.0, c=0.2, Z=1.0, nu=0.001)
        bad = GdInstance([4.0], [1.0])
        with pytest.raises(GuaranteedProgressError):
            run_gd(fam, 0.5, bad)

    def test_rho_outside_interval(self):
        with pytest.raises(ValueError):
            run_gd(unit_family(), 0.4, GdInstance([1.0], [1.0]))

    def test_instance_validation(self):
        fam = unit_family()
        with pytest.raises(ValueError):
            run_gd(fam, 0.5, GdInstance([3.0], [1.0]))  # eigenvalue above L
        with pytest.raises(ValueError):
            run_gd(fam, 0.5, GdInstance([1.0], [2.0]))  # start norm above Z


class TestKnet:
    def test_hand_evaluated_uniform_grid(self):
        # D(rho_u)=1, K = 0.1 * 0.25 = 0.025, 61 multiples inside [0.5, 2].
        fam = GdFamily(rho_l=0.5, rho_u=2.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.1)
        net = knet(fam)
        assert fam.K == pytest.approx(0.025)
        assert net.size == 61
        assert net[0] == 0.5 and net[-1] == 2.0
        assert np.allclose(np.diff(net), 0.025, atol=1e-12)

    def test_endpoints_always_present(self):
        fam = LEMMA_FAMILY
        net = knet(fam)
        assert net[0] == fam.rho_l and net[-1] == fam.rho_u
        assert ((net >= fam.rho_l) & (net <= fam.rho_u)).all()

    def test_shrinking_nu_grows_net(self):
        coarse = GdFamily(rho_l=0.5, rho_u=2.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.1)
        fine = GdFamily(rho_l=0.5, rho_u=2.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.01)
        assert fine.K < coarse.K
        assert knet(fine).size > knet(coarse).size

    @staticmethod
    def _sequential_merge(points, rtol):
        # Reference: keep each sorted point farther than rtol (relative) from the last kept one.
        kept = []
        for p in points:
            if not kept or p - kept[-1] > rtol * max(1.0, abs(p)):
                kept.append(p)
        return kept

    def test_matches_sequential_merge(self):
        # Aligned endpoints make near-duplicates in the K-net.
        families = [LEMMA_FAMILY, unit_family(), unit_family(rho_l=0.75, rho_u=0.75)]
        families += [GdFamily(rho_l=0.5 + k * 0.025, rho_u=2.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0,
                              nu=0.1) for k in range(12)]
        for fam in families:
            k_lo = math.ceil(fam.rho_l / fam.K - 1e-9)
            k_hi = math.floor(fam.rho_u / fam.K + 1e-9)
            multiples = [min(max(k * fam.K, fam.rho_l), fam.rho_u) for k in range(k_lo, k_hi + 1)]
            kept = self._sequential_merge(sorted([fam.rho_l, fam.rho_u] + multiples), 1e-9)
            assert knet(fam).tolist() == kept
        # The shared helper on chains of points 1e-13 apart at the breakpoint
        # tolerance 1e-12: a dropped point must not become the next reference.
        rng = np.random.default_rng(7)
        for start in (0.0, 0.37, 1.0, 250.0):
            gaps = rng.choice([1e-13, 2e-13, 7e-13, 3e-12, 1e-3], size=80, p=[.5, .1, .1, .2, .1])
            points = start + np.cumsum(np.concatenate([[0.0], gaps]))
            for rtol in (1e-12, 1e-9):
                assert merge_close(points, rtol).tolist() == self._sequential_merge(points.tolist(), rtol)
        assert merge_close(np.empty(0), 1e-12).size == 0

    def test_size_guard(self):
        fam = GdFamily(rho_l=0.5, rho_u=2.0, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=1e-9)
        with pytest.raises(ValueError, match="rescale"):
            knet(fam)

    @pytest.mark.parametrize("overrides", [dict(L=1e308), dict(Z=1e308)])
    def test_underflowing_spacing_rejected(self, overrides):
        fam = dataclasses.replace(LEMMA_FAMILY, **overrides)
        assert fam.K == 0.0
        with pytest.raises(ValueError, match="K=0.0 is not > 0"):
            knet(fam)


class TestErmStepsize:
    def test_single_point_net(self):
        fam = unit_family()
        rho, report = erm_stepsize(fam, [GdInstance([1.0], [1.0])], net=[0.75])
        assert rho == 0.75
        assert report.train_mean == float(run_gd(fam, 0.75, GdInstance([1.0], [1.0])))

    def test_one_step_window_is_selected(self):
        # All-ones instances: only rho=1.0 converges in a single step on the
        # coarse net, so it is the unique minimizer (and the nearest to 1).
        fam = GdFamily(rho_l=0.9, rho_u=1.1, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.04)
        samples = [GdInstance([1.0], [s]) for s in (1.0, -1.0, 1.0)]
        rho, report = erm_stepsize(fam, samples, net=[0.9, 0.95, 1.0, 1.05, 1.1])
        assert rho == 1.0
        assert report.train_mean == 1.0

    def test_equals_exhaustive_net_minimum(self):
        rng = np.random.default_rng(9)
        fam = LEMMA_FAMILY
        samples = [random_instance(fam, 2, rng) for _ in range(12)]
        net = knet(fam)[:200]
        rho, report = erm_stepsize(fam, samples, net=net)
        means = np.array([np.mean([run_gd(fam, r, x) for x in samples]) for r in net])
        assert report.train_mean == means.min()
        assert rho == net[int(np.argmin(means))]

    def test_ties_break_toward_the_smaller_step_in_any_order(self):
        rng = labeled_rng(0, "gd-instances")  # the gd-tune --seed 0 samples
        samples = [random_instance(LEMMA_FAMILY, 2, rng) for _ in range(50)]
        costs = scalar_costs(LEMMA_FAMILY, [0.2, 0.2001], samples)
        assert costs[0].mean() == costs[1].mean()
        for net in ([0.2001, 0.2], [0.2, 0.2001], [0.2001, 0.2, 0.2001, 0.2]):
            rho, report = erm_stepsize(LEMMA_FAMILY, samples, net=net)
            assert rho == 0.2 and report.train_mean == costs[0].mean()

    @pytest.mark.parametrize("net", [[], [[0.6, 0.7], [0.8, 0.9]], 0.75], ids=["empty", "2-d", "0-d"])
    def test_rejects_a_net_that_is_not_a_nonempty_vector(self, net):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            erm_stepsize(unit_family(), [GdInstance([1.0], [1.0])], net=net)


def scalar_costs(family, net, samples):
    """The index-major run_gd loop that net_costs replaces."""
    return np.array([[float(run_gd(family, float(r), x)) for x in samples] for r in net])


def per_sample_costs(family, net, samples):
    """One batched recurrence per sample over the whole net."""
    net = np.asarray(net, dtype=float)
    return np.stack([_net_iterations(family, net, x.lambdas, x.z0) for x in samples], axis=1)


def assert_matches_oracles(family, net, samples):
    costs = net_costs(family, net, samples)
    assert np.array_equal(costs, scalar_costs(family, net, samples))
    assert np.array_equal(costs, per_sample_costs(family, net, samples))
    return costs


def near_change_points(family, samples):
    """Step sizes at, one ulp from, and 1e-15..1e-6 (relative) from every change point."""
    points = step_functions(family, samples).points
    scale = 1.0 + np.array([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    near = np.concatenate([np.outer(points, scale).ravel(), np.nextafter(points, 0.0),
                           np.nextafter(points, 1.0)])
    return np.clip(near, family.rho_l, family.rho_u)


class TestNetCosts:
    def test_matches_run_gd_exactly(self):
        rng = np.random.default_rng(17)
        fam = LEMMA_FAMILY
        full = knet(fam)
        for dim in range(1, 7):
            picks = np.sort(rng.choice(np.arange(1, full.size - 1), size=60, replace=False))
            net = np.concatenate([full[:20], full[picks], full[-20:]])
            samples = [random_instance(fam, dim, rng) for _ in range(3)]
            inside = rng.normal(size=dim)
            samples.append(GdInstance(samples[0].lambdas, inside * 0.5 * fam.nu / np.linalg.norm(inside)))
            costs = assert_matches_oracles(fam, net, samples)
            assert (costs[:, -1] == 0).all()

    @pytest.mark.parametrize("family", [LEMMA_FAMILY, NARROW_FAMILY], ids=["defaults", "narrow"])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_random_instances_match_both_oracles_at_change_points(self, family, dim):
        rng = np.random.default_rng(100 + dim)
        samples = [random_instance(family, dim, rng) for _ in range(3)]
        full = knet(family)
        assert np.array_equal(net_costs(family, full, samples), per_sample_costs(family, full, samples))
        net = np.concatenate([full[::40], near_change_points(family, samples)])
        assert_matches_oracles(family, net, samples)

    def test_mixed_dimensions_in_one_call(self):
        rng = np.random.default_rng(5)
        samples = [random_instance(LEMMA_FAMILY, dim, rng) for dim in (1, 5, 2, 6, 3, 2)]
        net = np.concatenate([knet(LEMMA_FAMILY)[::60], near_change_points(LEMMA_FAMILY, samples)])
        assert_matches_oracles(LEMMA_FAMILY, net, samples)

    def test_unsorted_net_with_duplicates(self):
        rng = np.random.default_rng(6)
        samples = [random_instance(LEMMA_FAMILY, 2, rng) for _ in range(4)]
        net = np.concatenate([knet(LEMMA_FAMILY)[::50], near_change_points(LEMMA_FAMILY, samples)[::3]])
        net = np.concatenate([net, net[::4], [LEMMA_FAMILY.rho_u, LEMMA_FAMILY.rho_l]])
        rng.shuffle(net)
        assert_matches_oracles(LEMMA_FAMILY, net, samples)

    def test_matches_run_gd_on_coarse_family(self):
        # Few steps and large spacing: counts vary across the interval.
        rng = np.random.default_rng(4)
        fam = GdFamily(rho_l=0.5, rho_u=1.0, L=2.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.0625)
        net = knet(fam)
        # z0 = nu, and 0.25 halved twice at rho=0.5, meet the stop test exactly at nu.
        samples = [GdInstance([1.0], [z]) for z in (1.0, -0.5, 0.11, 0.04, 0.0625, 0.25)]
        samples += [random_instance(fam, int(rng.integers(1, 7)), rng) for _ in range(6)]
        costs = assert_matches_oracles(fam, net, samples)
        assert np.unique(costs).size > 2
        assert costs[0, 4] == 0 and costs[0, 5] == 2

    def test_one_step_window(self):
        # Acceptance 05: rho = 1 reaches the minimiser in one step; nearby
        # step sizes take one step or two.
        fam = GdFamily(rho_l=0.9, rho_u=1.1, L=1.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.04)
        samples = [GdInstance([1.0], [z]) for z in (1.0, -1.0, 1.0, -1.0)]
        costs = assert_matches_oracles(fam, knet(fam), samples)
        assert set(np.unique(costs)) == {1.0, 2.0}

    @pytest.mark.parametrize("rel", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_tangent_level(self, rel):
        # A 2-D start scaled so that the smallest squared norm after k = 5
        # steps is nu^2 (times 1 + rel): the level's two roots nearly meet.
        fam, lam, direction, k = LEMMA_FAMILY, np.array([1.5, 4.0]), np.array([0.6, 0.8]), 5
        poly = sum(u**2 * Polynomial([1.0, -l]) ** (2 * k) for u, l in zip(direction, lam))
        rho_min = min((r.real for r in poly.deriv().roots()
                       if abs(r.imag) < 1e-12 and fam.rho_l < r.real < fam.rho_u), key=poly)
        x = GdInstance(lam, direction * fam.nu / math.sqrt(poly(rho_min)) * (1.0 + rel))
        near = rho_min * (1.0 + np.concatenate([np.linspace(-1e-3, 1e-3, 401), [-1e-9, -1e-12, 1e-12, 1e-9]]))
        net = np.concatenate([knet(fam)[::100], near, near_change_points(fam, [x])])
        costs = assert_matches_oracles(fam, net, [x])
        if rel <= -1e-9:
            assert {k, k + 1} <= set(costs[:, 0])

    def test_stall_names_the_scalar_loops_rho(self):
        # Sample a stalls only at rho=0.5 and sample b from rho=0.49 on; the
        # index-major scalar loop meets (0.49, b) first.
        fam = GdFamily(rho_l=0.1, rho_u=0.5, L=4.0, m_sc=1.0, c=0.1, Z=1.0, nu=0.01)
        a, b = GdInstance([3.85], [0.5]), GdInstance([4.0], [0.5])
        # Sample a alone stalls only above rho = 1.9 / 3.85 = 0.4935: of this
        # net, at 0.495 alone, strictly between the other points.
        for samples, net, rho in (([a, b], [0.1, 0.3, 0.49, 0.5], 0.49),
                                  ([a], [0.1, 0.2, 0.3, 0.45, 0.495, 0.4, 0.49], 0.495)):
            with pytest.raises(GuaranteedProgressError) as scalar:
                scalar_costs(fam, net, samples)
            with pytest.raises(GuaranteedProgressError) as batched:
                erm_stepsize(fam, samples, net=net)
            assert str(batched.value) == str(scalar.value)
            assert f"rho={rho} " in str(batched.value)
        with pytest.raises(GuaranteedProgressError, match="does not shrink"):
            step_functions(fam, [a])

    def test_zero_margin_stays_exact(self):
        # lambda = m_sc with c = rho_l * m_sc: the first step at rho_l shrinks
        # by exactly 1 - c, so the step functions do not apply.
        fam = LEMMA_FAMILY
        assert fam.c == fam.rho_l * fam.m_sc
        samples = [GdInstance([fam.m_sc, 2.5], [0.6, 0.3]), GdInstance([fam.m_sc], [-0.9])]
        net = np.concatenate([knet(fam)[::30], [fam.rho_l, fam.rho_u]])
        assert_matches_oracles(fam, net, samples)
        with pytest.raises(GuaranteedProgressError, match="does not shrink"):
            step_functions(fam, samples)

    def test_iteration_cap_is_one_error_on_every_path(self):
        # The sample does not contract by a margin, so net_costs takes the recurrence.
        cap = re.escape(CAP_ERROR)
        with pytest.raises(GuaranteedProgressError, match=cap):
            run_gd(CAP_FAMILY, 1.0, CAP_SAMPLE)
        with pytest.raises(GuaranteedProgressError, match=cap):
            net_costs(CAP_FAMILY, [1.0], [CAP_SAMPLE])
        with pytest.raises(GuaranteedProgressError, match=cap):
            erm_stepsize(CAP_FAMILY, [CAP_SAMPLE], net=knet(CAP_FAMILY))
        with pytest.raises(GuaranteedProgressError, match="does not shrink"):
            step_functions(CAP_FAMILY, [CAP_SAMPLE])

    @pytest.mark.parametrize("net", [0.3, [[0.2, 0.3]]], ids=["scalar", "2-D"])
    def test_rejects_a_net_that_is_not_1d(self, net):
        shape = np.shape(net)
        with pytest.raises(ValueError, match=re.escape(f"1-D array of step sizes, got shape {shape}")):
            net_costs(LEMMA_FAMILY, net, [GdInstance([2.0], [0.5])])

    def test_empty_sample_list(self):
        net = knet(NARROW_FAMILY)
        assert net_costs(NARROW_FAMILY, net, []).shape == (net.size, 0)
        with pytest.raises(ValueError, match="need at least one sample"):
            erm_stepsize(NARROW_FAMILY, [], net)

    def test_point_outside_interval_same_error(self):
        fam = unit_family()
        sample = GdInstance([1.0], [1.0])
        with pytest.raises(ValueError) as scalar:
            run_gd(fam, 1.2, sample)
        with pytest.raises(ValueError) as batched:
            erm_stepsize(fam, [sample], net=[0.5, 1.2, 0.75])
        assert str(batched.value) == str(scalar.value)

    def test_invalid_instance_same_error(self):
        fam = unit_family()
        bad = GdInstance([1.0], [2.0])  # start norm above Z
        with pytest.raises(ValueError) as scalar:
            run_gd(fam, 0.5, bad)
        with pytest.raises(ValueError) as batched:
            erm_stepsize(fam, [GdInstance([1.0], [1.0]), bad], net=[0.5, 1.0])
        assert str(batched.value) == str(scalar.value)


class TestNetGuarantee:
    """The paper's net claim: ERM over the K-net is within one iteration of the
    best step size in the whole interval, found exactly from the step functions."""

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_knet_erm_is_within_one_of_the_continuum_minimum(self, seed, dim):
        fam = LEMMA_FAMILY  # the gd-tune defaults
        rng = labeled_rng(seed, "gd-instances")
        samples = [random_instance(fam, dim, rng) for _ in range(50)]
        f = step_functions(fam, samples)
        rho_exact, total = StepFunctions(f.points, f.offsets, -f.values).argmax_sum(fam.rho_l, fam.rho_u)
        best = -total / len(samples)
        assert np.mean([run_gd(fam, rho_exact, x) for x in samples]) == best
        rho_net, report = erm_stepsize(fam, samples, knet(fam))
        assert best <= report.train_mean <= best + 1
        if (seed, dim) == (0, 2):
            assert (rho_net, report.train_mean) == (0.39615000000000006, 4.16)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
           rho=st.floats(LEMMA_FAMILY.rho_l, LEMMA_FAMILY.rho_u))
    def test_step_function_equals_run_gd(self, seed, dim, rho):
        x = random_instance(LEMMA_FAMILY, dim, np.random.default_rng(seed))
        f = step_functions(LEMMA_FAMILY, [x])
        assert f.at([rho])[0, 0] == run_gd(LEMMA_FAMILY, rho, x)


class TestDriftBound:
    def test_zero_gap_zero_bound(self):
        assert drift_bound(LEMMA_FAMILY, 0.2, 0.2, 5) == 0.0

    def test_monotone_in_steps_and_gap(self):
        fam = GdFamily(rho_l=0.5, rho_u=2.0, L=2.0, m_sc=1.0, c=0.5, Z=1.0, nu=0.1)
        assert drift_bound(fam, 1.5, 1.6, 3) <= drift_bound(fam, 1.5, 1.6, 4)
        assert drift_bound(fam, 1.5, 1.55, 3) <= drift_bound(fam, 1.5, 1.6, 3)

    def test_requires_ordered_pair(self):
        with pytest.raises(ValueError):
            drift_bound(LEMMA_FAMILY, 0.3, 0.2, 1)


class TestVerifyLemmas:
    def test_small_run_clean(self):
        report = verify_lemmas(LEMMA_FAMILY, trials=500, seed=7)
        assert report.ok
        assert report.trials == 500
        assert report.max_single_step_ratio <= 1.0 + 1e-9
        assert report.max_drift_ratio <= 1.0 + 1e-9
        assert report.max_cost_gap <= 1

    def test_equal_points_and_equal_steps_are_degenerate(self):
        fam = LEMMA_FAMILY
        inst = GdInstance([2.0, 3.0], [0.5, 0.5])
        w = np.array([0.3, -0.2])
        assert np.linalg.norm(step_map(0.2, w, inst) - step_map(0.2, w, inst)) == 0.0
        assert drift_bound(fam, 0.25, 0.25, 7) == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_lemmas(LEMMA_FAMILY, trials=0)


class TestInstanceIO:
    def test_zero_dimension_rejected(self):
        # A run from an empty start point would take no step at all.
        with pytest.raises(ValueError, match="nonempty"):
            GdInstance([], [])
        with pytest.raises(ValueError, match="nonempty"):
            random_instance(LEMMA_FAMILY, 0, np.random.default_rng(0))

    def test_roundtrip(self, tmp_path):
        inst = GdInstance([1.5, 2.5], [0.3, -0.4])
        path = tmp_path / "inst.json"
        save_gd_instance(inst, str(path))
        loaded = load_gd_instance(str(path))
        assert np.array_equal(loaded.lambdas, inst.lambdas)
        assert np.array_equal(loaded.z0, inst.z0)

    def test_generated_instances_satisfy_progress(self):
        rng = np.random.default_rng(21)
        fam = LEMMA_FAMILY
        for _ in range(100):
            inst = random_instance(fam, int(rng.integers(1, 6)), rng)
            fam.check_instance(inst)
            z = inst.z0
            for rho in (fam.rho_l, fam.rho_u):
                stepped = step_map(rho, z, inst)
                assert np.linalg.norm(stepped) <= (1 - fam.c) * np.linalg.norm(z) * (1 + 1e-12)
