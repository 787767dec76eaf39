import numpy as np
import pytest

from algoselect.core import MAXIMIZE, MINIMIZE, erm_costs
from algoselect.epm import (
    FeatureMap,
    fit_linear_epm,
    fit_linear_epms,
    fit_selection_table,
    load_epms,
    mwis_feature_map,
    save_epms,
    select_per_instance,
)
from algoselect.greedy import random_mwis_instance

identity6 = FeatureMap("identity-6", 6, lambda x: x)
intercept1 = FeatureMap("intercept", 1, lambda x: (1.0,))


def planted_problem(seed, n_samples=60, d=6, noise=0.0):
    rng = np.random.default_rng(seed)
    X = [rng.normal(size=d) for _ in range(n_samples)]
    a = rng.normal(size=d)
    y = [float(a @ x) + noise * rng.normal() for x in X]
    return X, a, y


class TestFitLinearEpm:
    def test_recovers_planted_coefficients(self):
        X, a, y = planted_problem(0)
        epm = fit_linear_epm("algo-0", X, y, identity6)
        assert np.allclose(epm.coef, a, atol=1e-9)
        assert epm.train_loss < 1e-18
        assert epm.rank == 6

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        X = [rng.normal(size=6) for _ in range(40)]
        y = rng.normal(size=40)
        epm = fit_linear_epm(0, X, list(y), identity6)
        M = np.stack(X)
        oracle = np.linalg.solve(M.T @ M, M.T @ y)  # independent route
        assert np.allclose(epm.coef, oracle, atol=1e-9)

    def test_all_zero_features_minimum_norm(self):
        zero1 = FeatureMap("zero", 1, lambda x: (0.0,))
        epm = fit_linear_epm(0, [1, 2, 3], [0.5, 0.7, 0.9], zero1)
        assert epm.coef[0] == 0.0
        assert epm.predict(np.zeros(1)) == 0.0
        assert epm.rank == 0

    def test_constant_cost_with_intercept(self):
        rng = np.random.default_rng(2)
        fmap = FeatureMap("affine-3", 3, lambda x: (1.0, x[0], x[1]))
        X = [rng.normal(size=2) for _ in range(20)]
        epm = fit_linear_epm(0, X, [0.37] * 20, fmap)
        assert np.allclose(epm.coef, [0.37, 0.0, 0.0], atol=1e-12)

    def test_loss_is_a_minimum(self):
        X, _, y = planted_problem(3, noise=0.3)
        epm = fit_linear_epm(0, X, y, identity6)
        M, yv = np.stack(X), np.asarray(y)
        rng = np.random.default_rng(4)
        for _ in range(50):
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)
            for eps in (1e-4, -1e-4):
                perturbed = epm.coef + eps * direction
                loss = np.mean((M @ perturbed - yv) ** 2)
                assert loss >= epm.train_loss - 1e-10

    def test_portfolio_fit_is_one_fit_per_index(self):
        X, _, y = planted_problem(7, noise=0.2)
        rows = np.stack([y, np.square(y), np.ones(len(y))])
        fits = fit_linear_epms(["a", "b", "c"], X, rows, identity6)
        for fit, index, row in zip(fits, "abc", rows):
            one = fit_linear_epm(index, X, row, identity6)
            assert (fit.algorithm_index, fit.schema_id, fit.rank, fit.n_samples) == \
                (one.algorithm_index, one.schema_id, one.rank, one.n_samples)
            assert fit.coef.tobytes() == one.coef.tobytes() and fit.train_loss == one.train_loss
        with pytest.raises(ValueError, match="one cost per instance"):
            fit_linear_epms(["a", "b"], X, rows, identity6)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            fit_linear_epm(0, [], [], identity6)
        bad = FeatureMap("nan", 1, lambda x: (float("nan"),))
        with pytest.raises(ValueError):
            fit_linear_epm(0, [1], [0.5], bad)
        with pytest.raises(ValueError):
            fit_linear_epm(0, [np.zeros(6)], [float("inf")], identity6)


class TestSelectPerInstance:
    def test_single_predictor(self):
        epm = fit_linear_epm("only", [np.ones(6)], [1.0], identity6)
        assert select_per_instance([epm], np.ones(6), identity6) == "only"

    def test_perfect_predictors_pick_true_best(self):
        rng = np.random.default_rng(5)
        coefs = [rng.normal(size=6) for _ in range(3)]
        train = [rng.normal(size=6) for _ in range(50)]
        epms = [
            fit_linear_epm(i, train, [float(c @ x) for x in train], identity6)
            for i, c in enumerate(coefs)
        ]
        for _ in range(200):
            x = rng.normal(size=6)
            truth = int(np.argmin([c @ x for c in coefs]))
            assert select_per_instance(epms, x, identity6, MINIMIZE) == truth

    def test_ties_take_first_predictor(self):
        epms = [fit_linear_epm(i, [np.ones(1)], [0.5], intercept1) for i in range(3)]
        assert select_per_instance(epms, None, intercept1) == 0

    def test_other_feature_schema_rejected(self):
        epm = fit_linear_epm("only", [np.ones(6)], [1.0], identity6)
        other = FeatureMap("other-v1", 6, lambda x: x)
        with pytest.raises(ValueError, match="'identity-6'.*'other-v1'"):
            select_per_instance([epm], np.ones(6), other)

    def test_constant_features_reduce_to_erm(self):
        rng = np.random.default_rng(6)
        table = {(i, x): float(rng.uniform()) for i in range(4) for x in range(30)}
        samples = list(range(30))
        costs = np.array([[table[(i, x)] for x in samples] for i in range(4)])
        epms = [fit_linear_epm(i, samples, costs[i], intercept1) for i in range(4)]
        chosen = select_per_instance(epms, samples[0], intercept1, MINIMIZE)
        assert chosen == erm_costs(range(4), costs, MINIMIZE).chosen


class TestSelectionTable:
    def table_costs(self, table, samples):
        return np.array([[table[(i, x)] for x in samples] for i in (0, 1)])

    def test_single_value_equals_plain_erm(self):
        rng = np.random.default_rng(7)
        table = {(i, x): float(rng.uniform()) for i in range(2) for x in range(20)}
        costs = self.table_costs(table, range(20))
        fitted = fit_selection_table(["all"], ["all"] * 20, (0, 1), costs, MAXIMIZE)
        assert fitted.mapping["all"] == erm_costs((0, 1), costs, MAXIMIZE).chosen
        assert fitted.defaulted == ()

    def test_disjoint_best_algorithms(self):
        # Algorithm 0 wins on even samples, algorithm 1 on odd ones.
        table = {(i, x): float(i == x % 2) for i in range(2) for x in range(40)}
        samples = list(range(40))
        features = ["even" if x % 2 == 0 else "odd" for x in samples]
        fitted = fit_selection_table(["even", "odd"], features, (0, 1),
                                     self.table_costs(table, samples), MAXIMIZE)
        assert fitted.mapping == {"even": 0, "odd": 1}
        # Refinement never hurts on the training set.
        per_value_total = sum(table[(fitted.mapping["even" if x % 2 == 0 else "odd"], x)] for x in samples)
        best_constant = max(sum(table[(i, x)] for x in samples) for i in range(2))
        assert per_value_total >= best_constant

    def test_unobserved_value_defaults_and_flags(self):
        table = {(i, x): 0.5 for i in range(2) for x in range(4)}
        fitted = fit_selection_table(["seen", "unseen"], ["seen"] * 4, (0, 1),
                                     self.table_costs(table, range(4)), MAXIMIZE)
        assert fitted.mapping["unseen"] == 0
        assert fitted.defaulted == ("unseen",)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            fit_selection_table([], [], (0, 1), np.empty((2, 0)), MAXIMIZE)

    def test_sample_outside_domain_rejected(self):
        table = {(i, x): 0.5 for i in range(2) for x in range(4)}
        with pytest.raises(ValueError):
            fit_selection_table(["a"], ["b"], (0, 1), self.table_costs(table, [0]), MAXIMIZE)

    def test_lookup_outside_domain_raises(self):
        table = {(i, x): 0.5 for i in range(2) for x in range(4)}
        fitted = fit_selection_table(["a"], ["a"], (0, 1), self.table_costs(table, [0]), MAXIMIZE)
        with pytest.raises(KeyError):
            fitted.algorithm_for("zzz")


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        X, _, y = planted_problem(8)
        epms = [fit_linear_epm(i, X, y, identity6) for i in range(2)]
        path = tmp_path / "epms.json"
        save_epms(epms, str(path))
        loaded = load_epms(str(path))
        for a, b in zip(epms, loaded):
            assert a.algorithm_index == b.algorithm_index
            assert a.schema_id == b.schema_id
            assert np.array_equal(a.coef, b.coef)
            assert a.train_loss == b.train_loss


class TestMwisFeatureMap:
    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(9)
        fmap = mwis_feature_map()
        features = fmap(random_mwis_instance(10, 0.4, rng))
        assert features.shape == (6,)
        assert np.isfinite(features).all()
        assert features[0] == 1.0 and features[1] == 10.0
