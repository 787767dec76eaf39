"""Step-size selection for gradient descent with guaranteed per-step progress.

The algorithm family is plain gradient descent z <- z - rho * grad f(z) with
the step size rho drawn from a closed interval.  Instances are diagonal
quadratics f(z) = 1/2 * sum(lambda_i * z_i^2), which are L-smooth and strongly
convex by construction and admit closed-form gradients.  Every generated
instance satisfies the guaranteed progress condition: a single step shrinks
||z|| by a factor of at least (1 - c) for every admissible step size.

Cost is the number of iterations until the stopping rule fires.  Although two
step sizes can differ, their iteration counts differ by at most 1 once they
are within the net spacing K of each other; `knet` builds that net and
`verify_lemmas` stress-tests the three inequalities this rests on:

1. single-step expansion is at most D(rho) = max(1, L*rho - 1),
2. two paths from one start drift at most (eta-rho) * D(rho)^j * L * Z / c
   after j steps,
3. iteration counts of rho and eta differ by at most 1 when eta - rho <= K.

`erm_stepsize` scores the whole net with one batched recurrence per sample
(`net_costs`): every net point is a row of z <- z - rho * (lambda * z), and a
row retires once its norm reaches nu.  Each row performs the float operations
of the scalar `run_gd` in the same order, with the same norm (`_norm`), so the
counts are identical; `run_gd` stays the independent oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import MINIMIZE, erm_costs, merge_close

# Largest K-net `knet` builds.
_KNET_LIMIT = 10**7

# `verify_lemmas` draws each trial's dimension from 1.._LEMMA_DIMS.
_LEMMA_DIMS = 4


class GuaranteedProgressError(RuntimeError):
    """A run violated the guaranteed progress contract (invalid family/instance pair)."""


@dataclass(frozen=True)
class GdFamily:
    """Gradient descent with step size in [rho_l, rho_u] on a restricted class.

    The stopping rule compares ||z|| to the tolerance `nu`, the rule the
    iteration-count guarantees are proved for.  `c` is the guaranteed
    progress factor and must satisfy c <= rho_l * m_sc so that the built-in
    function class makes progress at the smallest admissible step size.
    """

    rho_l: float
    rho_u: float
    L: float
    m_sc: float
    c: float
    Z: float
    nu: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError(f"family parameters must be finite, got {self}")
        if not 0 < self.rho_l <= self.rho_u:
            raise ValueError("need 0 < rho_l <= rho_u")
        if not 0 < self.m_sc <= self.L:
            raise ValueError("need 0 < m_sc <= L")
        if not 0 < self.c < 1:
            raise ValueError("need c in (0, 1)")
        if self.c > self.rho_l * self.m_sc + 1e-15:
            raise ValueError(
                f"progress factor c={self.c} exceeds rho_l * m_sc = {self.rho_l * self.m_sc}; "
                "the smallest step could not guarantee it"
            )
        if not 0 < self.nu < self.Z:
            raise ValueError("need 0 < nu < Z")

    @property
    def H(self) -> float:
        """Iteration bound: progress factor (1-c) per step from norm Z down to nu."""
        return math.log(self.nu / self.Z) / math.log(1.0 - self.c)

    @property
    def iteration_cap(self) -> int:
        return math.ceil(self.H)

    def D(self, rho: float) -> float:
        """Single-step Lipschitz bound of the step map at step size rho."""
        return max(1.0, self.L * rho - 1.0)

    @property
    def K(self) -> float:
        """Net spacing below which iteration counts differ by at most 1."""
        return self.nu * self.c**2 / (self.L * self.Z) * self.D(self.rho_u) ** (-self.H)

    def contains(self, rho):
        """Whether rho lies in [rho_l, rho_u]; elementwise for an array of step sizes."""
        return (self.rho_l <= rho) & (rho <= self.rho_u)

    def safe_lambda_range(self) -> tuple[float, float]:
        """Eigenvalue range for which every admissible step size makes progress."""
        hi = min(self.L, (2.0 - self.c) / self.rho_u)
        if hi < self.m_sc:
            raise ValueError("no eigenvalue in [m_sc, L] makes guaranteed progress at rho_u")
        return self.m_sc, hi

    def check_instance(self, instance: GdInstance) -> None:
        lam = instance.lambdas
        if (lam < self.m_sc - 1e-12).any() or (lam > self.L + 1e-12).any():
            raise ValueError("instance eigenvalues outside [m_sc, L]")
        if _norm(instance.z0) > self.Z * (1 + 1e-12):
            raise ValueError("initial point norm exceeds Z")


@dataclass(frozen=True, eq=False)
class GdInstance:
    """Diagonal quadratic objective and a start point: f(z) = 1/2 sum(lambda_i z_i^2)."""

    lambdas: np.ndarray
    z0: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=float))
        if self.lambdas.shape != self.z0.shape or self.lambdas.ndim != 1 or self.lambdas.size == 0:
            raise ValueError("lambdas and z0 must be nonempty equal-length vectors")
        if (self.lambdas <= 0).any() or not np.isfinite(self.lambdas).all():
            raise ValueError("eigenvalues must be positive and finite")
        if not np.isfinite(self.z0).all():
            raise ValueError("z0 must be finite")

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.lambdas * z


def step_map(rho: float, z: np.ndarray, instance: GdInstance) -> np.ndarray:
    """One gradient step z - rho * grad f(z); pure, used directly by the verifiers."""
    z = np.asarray(z, dtype=float)
    return z - rho * instance.gradient(z)


def random_instance(family: GdFamily, dim: int, rng: np.random.Generator) -> GdInstance:
    """Instance satisfying guaranteed progress for every rho in the family interval.

    Eigenvalues are drawn from [m_sc, min(L, (2-c)/rho_u)]; the upper clip is
    what makes |1 - rho*lambda| <= 1 - c hold across the whole interval.  The
    start norm is uniform in (nu, Z] so runs take at least one step.
    """
    lo, hi = family.safe_lambda_range()
    lambdas = rng.uniform(lo, hi, size=dim)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    norm = rng.uniform(family.nu, family.Z)
    return GdInstance(lambdas, direction * norm)


def _norm(z: np.ndarray):
    """Euclidean norm over the last axis: of a vector, or of each row of a matrix.

    Every norm behind an iteration count goes through here, so the scalar and
    the batched runs agree to the last bit (np.linalg.norm's BLAS dot on a
    vector can round differently from a row-wise reduction).
    """
    return np.sqrt((z * z).sum(axis=-1))


def _cap_error(cap: int) -> GuaranteedProgressError:
    return GuaranteedProgressError(
        f"no convergence within {cap} iterations; guaranteed progress violated"
    )


def _stall_error(family: GdFamily, rho: float) -> GuaranteedProgressError:
    return GuaranteedProgressError(
        f"step at rho={rho} shrank ||z|| by less than the guaranteed factor {1 - family.c}"
    )


def run_gd(family: GdFamily, rho: float, instance: GdInstance) -> int:
    """Iteration count of gradient descent at step size rho.

    Stops when ||z|| falls to nu.  Per-step guaranteed progress is asserted;
    exceeding the iteration cap or failing to make progress signals an
    invalid family/instance pairing, not a normal outcome.
    """
    if not family.contains(rho):
        raise ValueError(f"rho={rho} outside [{family.rho_l}, {family.rho_u}]")
    family.check_instance(instance)
    z = instance.z0
    cap = family.iteration_cap
    steps = 0
    while _norm(z) > family.nu:
        if steps >= cap:
            raise _cap_error(cap)
        z_next = step_map(rho, z, instance)
        if _norm(z_next) > (1.0 - family.c) * _norm(z) * (1 + 1e-12):
            raise _stall_error(family, rho)
        z = z_next
        steps += 1
    return steps


# Codes `_net_iterations` returns for rows that fail instead of counting.
_CAP_EXCEEDED = -1.0
_STALLED = -2.0


def _net_iterations(family: GdFamily, rhos: np.ndarray, instance: GdInstance) -> np.ndarray:
    """run_gd's count for every step size in `rhos`, as floats.

    All rows step together through z <- z - rho * (lambda * z); a row retires
    with its count once its norm is at most nu, or with a failure code once it
    misses the guaranteed shrink or runs into the cap.  Per row the tests and
    the float operations are run_gd's, in run_gd's order.
    """
    nu, cap, shrink = family.nu, family.iteration_cap, 1.0 - family.c
    out = np.empty(rhos.size)
    rows = np.arange(rhos.size)
    r = rhos[:, None]
    z = np.tile(instance.z0, (rhos.size, 1))
    norms = _norm(z)
    steps = 0
    while True:
        running = norms > nu
        if not running.all():
            out[rows[~running]] = steps
            rows, r, z, norms = rows[running], r[running], z[running], norms[running]
        if rows.size == 0:
            return out
        if steps >= cap:
            out[rows] = _CAP_EXCEEDED
            return out
        z = z - r * (instance.lambdas * z)
        next_norms = _norm(z)
        stalled = next_norms > shrink * norms * (1 + 1e-12)
        if stalled.any():
            out[rows[stalled]] = _STALLED
            keep = ~stalled
            rows, r, z, next_norms = rows[keep], r[keep], z[keep], next_norms[keep]
        norms = next_norms
        steps += 1


def net_costs(family: GdFamily, net, samples: Sequence[GdInstance]) -> np.ndarray:
    """Iteration counts of every net point on every sample, shape (net, samples).

    Equal to [[run_gd(family, rho, x) for x in samples] for rho in net] as
    floats, computed by one batched recurrence per sample over the whole net.
    Every net point and every sample is validated first, with run_gd's
    messages.  A run that breaks guaranteed progress raises run_gd's error for
    the smallest such net index, at the first sample that fails there.
    """
    rhos = np.asarray(net, dtype=float)
    outside = np.flatnonzero(~family.contains(rhos))
    if outside.size:
        rho = float(rhos[outside[0]])
        raise ValueError(f"rho={rho} outside [{family.rho_l}, {family.rho_u}]")
    for x in samples:
        family.check_instance(x)
    costs = np.empty((rhos.size, len(samples)))
    for j, x in enumerate(samples):
        costs[:, j] = _net_iterations(family, rhos, x)
    failed = costs < 0
    if failed.any():
        i = int(np.flatnonzero(failed.any(axis=1))[0])
        j = int(np.flatnonzero(failed[i])[0])
        if costs[i, j] == _CAP_EXCEEDED:
            raise _cap_error(family.iteration_cap)
        raise _stall_error(family, float(rhos[i]))
    return costs


def knet(family: GdFamily) -> np.ndarray:
    """The K-net: integer multiples of K inside the interval plus both endpoints.

    Within one net cell every step size has an iteration count within 1 of the
    cell's net points, so exhaustive search over the net is a faithful proxy
    for the continuum.
    """
    K = family.K
    if not K > 0:  # D(rho_u)^-H underflows to 0 for a large L, Z or iteration bound
        raise ValueError(f"net spacing K={K} is not > 0; rescale L, Z, nu, c, or the interval")
    k_lo = math.ceil(family.rho_l / K - 1e-9)
    k_hi = math.floor(family.rho_u / K + 1e-9)
    count = max(0, k_hi - k_lo + 1)
    if count > _KNET_LIMIT:
        raise ValueError(
            f"net would hold {count} points (> {_KNET_LIMIT}); rescale nu, c, or the interval"
        )
    multiples = np.arange(k_lo, k_hi + 1, dtype=float) * K
    multiples = np.clip(multiples, family.rho_l, family.rho_u)
    # Clipped multiples and the endpoints can land within float noise of each other.
    return merge_close(np.sort(np.concatenate([[family.rho_l], multiples, [family.rho_u]])), 1e-9)


def erm_stepsize(family: GdFamily, samples: Sequence[GdInstance], net):
    """Exhaustive ERM over the net (`knet` builds the K-net), minimizing mean iteration count.

    The net is scored by `net_costs`, one batched recurrence per sample, and
    reduced by `core.erm_costs`.  Returns (rho_star, ErrorReport); ties break
    toward the smaller step size.
    """
    points = np.asarray(net, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValueError("net must be a nonempty 1-D array of step sizes")
    report = erm_costs(points.tolist(), net_costs(family, points, samples), None, MINIMIZE)
    return report.chosen, report


def drift_bound(family: GdFamily, rho: float, eta: float, steps: int) -> float:
    """Worst-case distance of the rho- and eta-paths after `steps` steps."""
    if eta < rho:
        raise ValueError("need rho <= eta")
    return (eta - rho) * family.D(rho) ** steps * family.L * family.Z / family.c


@dataclass
class LemmaReport:
    """Outcome of randomized verification of the three step-size inequalities.

    Ratios are max observed left-hand side over right-hand side (1.0 means the
    bound was met with equality somewhere); `violations` holds serialized
    counterexamples and is empty on success.
    """

    trials: int
    max_single_step_ratio: float
    max_drift_ratio: float
    max_cost_gap: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_lemmas(family: GdFamily, trials: int, seed: int = 0) -> LemmaReport:
    """Random search for violations of the Lipschitz / drift / cost-gap bounds.

    Each trial draws an instance, two points, and a step-size pair
    rho <= eta <= rho + K, then checks all three inequalities along full
    trajectories.  Any violation is reported with its inputs serialized.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    report = LemmaReport(trials, 0.0, 0.0, 0)
    rtol = 1e-9
    cap = family.iteration_cap
    for trial in range(trials):
        dim = int(rng.integers(1, _LEMMA_DIMS + 1))
        inst = random_instance(family, dim, rng)
        rho = float(rng.uniform(family.rho_l, family.rho_u))
        eta = float(min(rho + rng.uniform(0.0, 1.0) * family.K, family.rho_u))

        def flag(kind, **detail):
            report.violations.append(
                {"kind": kind, "trial": trial, "rho": rho, "eta": eta,
                 "lambdas": inst.lambdas.tolist(), "z0": inst.z0.tolist()} | detail
            )

        # (a) single-step Lipschitz bound at rho, for two random points.
        w = rng.normal(size=dim)
        w *= rng.uniform(0, family.Z) / np.linalg.norm(w)
        y = rng.normal(size=dim)
        y *= rng.uniform(0, family.Z) / np.linalg.norm(y)
        lhs = float(np.linalg.norm(step_map(rho, w, inst) - step_map(rho, y, inst)))
        rhs = family.D(rho) * float(np.linalg.norm(w - y))
        if rhs > 0:
            report.max_single_step_ratio = max(report.max_single_step_ratio, lhs / rhs)
        if lhs > rhs * (1 + rtol) + 1e-15:
            flag("single-step", lhs=lhs, bound=rhs)

        # (b) run both trajectories to the cap, tracking drift.
        z_r, z_e = inst.z0, inst.z0
        for j in range(1, cap + 1):
            z_r = step_map(rho, z_r, inst)
            z_e = step_map(eta, z_e, inst)
            drift = float(np.linalg.norm(z_r - z_e))
            bound = drift_bound(family, rho, eta, j)
            if bound > 0:
                report.max_drift_ratio = max(report.max_drift_ratio, drift / bound)
            if drift > bound * (1 + rtol) + 1e-15:
                flag("drift", steps=j, drift=drift, bound=bound)
        # (c) the iteration counts ERM uses, by the batched recurrence.
        cost_r, cost_e = (int(c) for c in _net_iterations(family, np.array([rho, eta]), inst))
        gap = abs(cost_r - cost_e)
        report.max_cost_gap = max(report.max_cost_gap, gap)
        if gap > 1:
            flag("cost-gap", cost_rho=cost_r, cost_eta=cost_e)
        if trial % 100 == 0:
            # Spot-check the batched counts against the scalar run_gd.
            if cost_r != run_gd(family, rho, inst) or cost_e != run_gd(family, eta, inst):
                flag("cost-accounting", cost_rho=cost_r, cost_eta=cost_e)
    return report


def save_gd_instance(instance: GdInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"lambdas": instance.lambdas.tolist(), "z0": instance.z0.tolist()}, fh)


def load_gd_instance(path: str) -> GdInstance:
    with open(path) as fh:
        payload = json.load(fh)
    return GdInstance(payload["lambdas"], payload["z0"])
