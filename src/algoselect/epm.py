"""Per-instance algorithm selection via performance prediction.

Two refinements over committing to one algorithm for a whole domain:

* `fit_selection_table` learns the best algorithm separately for each value of
  a finite feature (plain ERM within each group).
* `fit_linear_epm` fits one linear model per algorithm mapping instance
  features to cost (`fit_linear_epms` fits a portfolio on one feature
  matrix); `select_per_instance` then runs the algorithm whose predicted
  cost is best for the instance at hand.

Committing to a single algorithm is the special case of a constant feature
map, under which both reduce exactly to finite ERM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MINIMIZE, _best_index, erm_costs


@dataclass(frozen=True)
class FeatureMap:
    """Named map from instances to fixed-dimension real feature vectors."""

    schema_id: str
    dim: int
    compute: Callable[[object], Sequence[float]]

    def __call__(self, instance) -> np.ndarray:
        features = np.asarray(self.compute(instance), dtype=float)
        if features.shape != (self.dim,):
            raise ValueError(f"feature map {self.schema_id!r} produced shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError(f"feature map {self.schema_id!r} produced non-finite values")
        return features


def mwis_feature_map() -> FeatureMap:
    """Default graph features: intercept, size, edge density, weight and degree summaries.

    A convenience for tests and demos; callers are expected to supply their
    own domain features.
    """
    def compute(instance):
        degrees = instance.degrees
        return (
            1.0,
            float(instance.n),
            instance.edges.shape[0] / instance.n,
            float(instance.weights.mean()),
            float(instance.weights.max()),
            float(degrees.mean()),
        )

    return FeatureMap("mwis-default-v1", 6, compute)


@dataclass
class LinearEpm:
    """Linear cost predictor for one algorithm: predicted cost = coef . features."""

    algorithm_index: object
    schema_id: str
    coef: np.ndarray
    train_loss: float
    rank: int
    n_samples: int

    def predict(self, features: np.ndarray) -> float:
        return float(np.dot(self.coef, features))


def fit_linear_epm(algorithm_index, instances, costs, feature_map: FeatureMap) -> LinearEpm:
    """Least-squares fit of cost against features for one algorithm.

    Rank-deficient systems get the minimum-norm solution, which keeps fits
    deterministic.  The reported loss is the mean squared training error.
    """
    return fit_linear_epms([algorithm_index], instances, [costs], feature_map)[0]


def fit_linear_epms(indices, instances, costs, feature_map: FeatureMap) -> list[LinearEpm]:
    """`fit_linear_epm` for each algorithm index and its row of `costs` (one
    row per index, one cost per instance), with the features computed once."""
    if len(instances) < 1:
        raise ValueError("need at least one sample")
    if len(costs) != len(indices) or any(len(row) != len(instances) for row in costs):
        raise ValueError("need one cost per instance")
    X = np.stack([feature_map(x) for x in instances])
    epms = []
    for algorithm_index, row in zip(indices, costs):
        y = np.asarray(row, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("costs must be finite")
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        loss = float(np.mean((X @ coef - y) ** 2))
        epms.append(LinearEpm(algorithm_index, feature_map.schema_id, coef, loss, int(rank), len(instances)))
    return epms


def select_per_instance(epms: Sequence[LinearEpm], instance, feature_map: FeatureMap,
                        orientation: str = MINIMIZE):
    """Algorithm whose predicted cost on this instance is best; ties take the
    earliest predictor in the list."""
    if len(epms) == 0:
        raise ValueError("need at least one predictor")
    for epm in epms:
        if epm.schema_id != feature_map.schema_id:
            raise ValueError(f"predictor fit with feature schema {epm.schema_id!r} "
                             f"applied with {feature_map.schema_id!r}")
    features = feature_map(instance)
    predictions = np.array([epm.predict(features) for epm in epms])
    return epms[_best_index(predictions, orientation)].algorithm_index


@dataclass
class SelectionTable:
    """Best algorithm per value of a finite feature.

    Values never observed during fitting fall back to the first candidate
    index and are flagged in `defaulted`.
    """

    domain: tuple
    mapping: dict
    defaulted: tuple

    def algorithm_for(self, feature_value):
        if feature_value not in self.mapping:
            raise KeyError(f"feature value {feature_value!r} outside the table domain")
        return self.mapping[feature_value]


def fit_selection_table(domain, features, indices, costs, orientation: str) -> SelectionTable:
    """Independent ERM over the samples sharing each finite feature value.

    `features[j]` is sample j's feature value and `costs` the (len(indices) x
    samples) cost matrix; each value's choice is `erm_costs` on its columns.
    """
    domain = tuple(domain)
    if len(domain) == 0:
        raise ValueError("empty feature domain")
    groups = {value: [] for value in domain}
    for j, value in enumerate(features):
        if value not in groups:
            raise ValueError(f"sample feature {value!r} outside the declared domain")
        groups[value].append(j)
    costs = np.asarray(costs, dtype=float)
    if len(indices) == 0 or costs.shape != (len(indices), len(features)):
        raise ValueError(f"need a cost matrix of shape (indices, samples), got {costs.shape}")
    mapping = {value: erm_costs(indices, costs[:, cols], orientation).chosen if cols else indices[0]
               for value, cols in groups.items()}
    return SelectionTable(domain, mapping, tuple(value for value in domain if not groups[value]))


def epm_to_dict(epm: LinearEpm) -> dict:
    return {
        "schema_id": epm.schema_id,
        "algorithm_index": epm.algorithm_index,
        "coefficients": epm.coef.tolist(),
        "training_loss": epm.train_loss,
        "rank": epm.rank,
        "n_samples": epm.n_samples,
    }


def epm_from_dict(payload: dict) -> LinearEpm:
    return LinearEpm(
        payload["algorithm_index"],
        payload["schema_id"],
        np.asarray(payload["coefficients"], dtype=float),
        float(payload["training_loss"]),
        int(payload["rank"]),
        int(payload["n_samples"]),
    )


def save_epms(epms: Sequence[LinearEpm], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([epm_to_dict(e) for e in epms], fh, indent=2)


def load_epms(path: str) -> list[LinearEpm]:
    with open(path) as fh:
        return [epm_from_dict(p) for p in json.load(fh)]
