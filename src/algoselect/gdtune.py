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

For a fixed instance the count is a step function of rho (`step_functions`):
the squared norm after k steps, f_k(rho) = sum_i z0_i^2 (1 - rho*lambda_i)^(2k),
is convex in rho and falls with k, so the count changes at most twice per k.
Stacked searches on that closed form place the change points; the batched
recurrence `_net_iterations` (z <- z - rho * (lambda * z), one row per step
size and instance) values each piece at one step size inside it.
`erm_stepsize` scores the net with `net_costs`, which reads the step
functions at the net points and reruns the points within a rounding band of
a change point.  When a sample does not contract by a margin over the whole
interval, or a rerun fails, `net_costs` runs the recurrence at every net
point instead.  Each recurrence row performs the float operations of the
scalar `run_gd` in the same order, with the same norm (`_norm`), so the
counts are identical; `run_gd` stays the independent oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import MINIMIZE, StepFunctions, erm_costs, merge_close

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


def _net_iterations(family: GdFamily, rhos: np.ndarray, lambdas, z0) -> np.ndarray:
    """run_gd's count at step size rhos[r] on the instance (lambdas[r], z0[r]), as floats.

    `lambdas` and `z0` hold one row per step size, or one vector for them all.
    All rows step together through z <- z - rho * (lambda * z); a row retires
    with its count once its norm is at most nu, or with a failure code once it
    misses the guaranteed shrink or runs into the cap.  Per row the tests and
    the float operations are run_gd's, in run_gd's order.
    """
    nu, cap, shrink = family.nu, family.iteration_cap, 1.0 - family.c
    out = np.empty(rhos.size)
    rows = np.arange(rhos.size)
    r = rhos[:, None]
    z = np.array(np.broadcast_to(z0, (rhos.size, np.shape(z0)[-1])))
    lam = np.broadcast_to(lambdas, z.shape)
    norms = _norm(z)
    steps = 0
    while True:
        running = norms > nu
        if not running.all():
            out[rows[~running]] = steps
            rows, r, lam, z, norms = rows[running], r[running], lam[running], z[running], norms[running]
        if rows.size == 0:
            return out
        if steps >= cap:
            out[rows] = _CAP_EXCEEDED
            return out
        z = z - r * (lam * z)
        next_norms = _norm(z)
        stalled = next_norms > shrink * norms * (1 + 1e-12)
        if stalled.any():
            out[rows[stalled]] = _STALLED
            keep = ~stalled
            rows, r, lam, z, next_norms = rows[keep], r[keep], lam[keep], z[keep], next_norms[keep]
        norms = next_norms
        steps += 1


def _raise_failure(family: GdFamily, code: float, rho: float):
    if code == _CAP_EXCEEDED:
        raise _cap_error(family.iteration_cap)
    raise _stall_error(family, rho)


def _stack(samples: Sequence[GdInstance]):
    """(lambdas, z0, dims): the samples as rows padded to the largest dimension.

    A padded coordinate starts at 0 and repeats the row's last eigenvalue, so
    it changes neither a norm nor the contraction max |1 - rho * lambda|.
    """
    dims = np.array([x.z0.size for x in samples], dtype=np.intp)
    width = int(dims.max(initial=1))
    lam, z0 = np.empty((dims.size, width)), np.zeros((dims.size, width))
    for s, x in enumerate(samples):
        lam[s], lam[s, :x.z0.size], z0[s, :x.z0.size] = x.lambdas[-1], x.lambdas, x.z0
    return lam, z0, dims


def _counts(family: GdFamily, rhos: np.ndarray, which: np.ndarray, lam, z0, dims) -> np.ndarray:
    """`_net_iterations` at rhos[r] on stacked sample which[r]: one recurrence per
    dimension, on unpadded rows, so every row's floats are run_gd's."""
    out = np.empty(rhos.size)
    for d in np.unique(dims[which]).tolist():
        rows = np.flatnonzero(dims[which] == d)
        out[rows] = _net_iterations(family, rhos[rows], lam[which[rows], :d], z0[which[rows], :d])
    return out


# `_advance` cuts each bracket into 8 cells per step, _SECTION_STEPS times:
# down to 8^-14 = 2^-42 of its start.
_SECTION_STEPS = 14
_TICKS = np.arange(1, 8)


def _advance(a: np.ndarray, span: np.ndarray, holds):
    """Per row, the last point of an 8-adic grid on a + t * span, t in [0, 1),
    where `holds` (a predicate true on a prefix of t) is true, and the final
    signed cell length.  `holds` gets one row of 7 step sizes per row."""
    for _ in range(_SECTION_STEPS):
        span = span / 8.0
        a = a + span * holds(a[:, None] + span[:, None] * _TICKS).sum(axis=1)
    return a, span


def _margin(family: GdFamily) -> float:
    """Relative slack that the step-function path keeps from every float test.

    After k steps rounding moves a recurrence row's norm by about 5k eps Z at
    most, and the closed form's f_k by about 6k eps Z nu; the second term is
    some 750 times either, relative to nu and nu^2.
    """
    return 1e-9 + 1e-12 * family.iteration_cap * family.Z / family.nu


def _contracts(family: GdFamily, lam: np.ndarray) -> np.ndarray:
    """Per stacked sample: whether every step of the interval shrinks each
    coordinate by (1 - c)(1 - margin).  |1 - rho * lambda| is convex in rho,
    so the two ends of the interval decide it."""
    ends = np.array([family.rho_l, family.rho_u])[:, None, None]
    worst = np.abs(1.0 - ends * lam).max(axis=(0, 2))
    return worst <= (1.0 - family.c) * (1.0 - _margin(family))


def _pieces(family: GdFamily, lam: np.ndarray, z0: np.ndarray, dims: np.ndarray):
    """(step functions, bands, failure): the stacked samples' counts as one
    StepFunctions batch over rho, each sample's closed rho intervals (lo, hi)
    where its count is not certain, and (code, rho) of the first failed piece.

    f_k(rho) = sum_i z0_i^2 (1 - rho*lambda_i)^(2k), the squared norm after k
    steps, is convex in rho and, under `_contracts`, falls with k; so the
    count is k exactly where f_k <= nu^2 < f_(k-1), and each level k adds at
    most two change points, one on each side of its minimiser.  Searches
    stacked over samples, levels and sides (`_advance`) find them: first on
    the sign of f_k' for the minimiser, then, on each side, for where f_k
    crosses nu^2 + tau and nu^2 - tau.  Between those two crossings lies a
    band where rounding could decide the count; everywhere else the
    recurrence agrees with the closed form.  The minimiser's final cell,
    2^-42 of the interval, is far too short for f_k to move by tau across
    it.  Every gap between merged bands, and every band, is one piece,
    valued by the recurrence at its midpoint: the step function is exact
    off the bands and holds one sampled count on each.
    """
    lo_rho, hi_rho, nu2 = family.rho_l, family.rho_u, family.nu**2
    tau = _margin(family) * nu2
    # Coordinates on axis 0, so each sum over them adds whole slabs.
    lam_t, w, e = lam.T[..., None], (z0.T**2)[..., None], 2.0 * np.arange(1, family.iteration_cap + 1)

    def sq_norm(rho, lam, w, e):  # sum_i w_i |1 - rho * lam_i|^e, e even; a negative base makes ** slow
        return (w * np.abs(1.0 - rho * lam) ** e).sum(axis=0)

    def falling(rho, lam, w_lam, e):  # f_k' < 0: sum_i w_i lam_i b_i^(2k-1) > 0, b_i = 1 - rho lam_i
        b = 1.0 - rho * lam
        return (w_lam * b * np.abs(b) ** (e - 2.0)).sum(axis=0) > 0

    # f_k at both ends, and a floor under f_k from each coordinate's least
    # |1 - rho*lambda_i| on the interval.  Only a level that comes within tau
    # of nu^2 somewhere can have a change point.
    floor = np.where(family.contains(1.0 / lam_t), 0.0,
                     np.minimum(np.abs(1.0 - lo_rho * lam_t), np.abs(1.0 - hi_rho * lam_t)))
    ends = sq_norm(lo_rho, lam_t, w, e), sq_norm(hi_rho, lam_t, w, e)
    sample, level = np.nonzero((np.maximum(*ends) > nu2 - tau) & ((w * floor**e).sum(axis=0) <= nu2 + tau))
    lam_r, w_r, e_r = lam_t[:, sample], w[:, sample], e[level, None]
    w_lam = w_r * lam_r
    # A level still falling at rho_u has its minimiser there; one already rising at rho_l, at rho_l.
    at_ends = falling(np.array([lo_rho, hi_rho]), lam_r, w_lam, e_r)
    minimiser = np.where(at_ends[:, 1], hi_rho, lo_rho)
    inner = np.flatnonzero(at_ends[:, 0] & ~at_ends[:, 1])
    if inner.size:
        rows = lam_r[:, inner], w_lam[:, inner], e_r[inner]
        lo, width = _advance(np.full(inner.size, lo_rho), np.full(inner.size, hi_rho - lo_rho),
                             lambda rho: falling(rho, *rows))
        minimiser[inner] = lo + 0.5 * width
    # A side (left: rho_l..minimiser, right: minimiser..rho_u) has a band when
    # f_k - nu^2 runs from above -tau at its outer end to at most tau.
    outer = np.stack([ends[0][sample, level], ends[1][sample, level]], axis=1)
    low = sq_norm(minimiser[:, None], lam_r, w_r, e_r) <= nu2 + tau
    row, side = np.nonzero((outer > nu2 - tau) & low)
    # Per band: from the outer end towards the minimiser, the last grid point
    # above nu^2 + tau and the first one at most nu^2 - tau.
    row = np.repeat(row, 2)
    a = np.array([lo_rho, hi_rho])[np.repeat(side, 2)]
    threshold = np.tile([nu2 + tau, nu2 - tau], side.size)[:, None]
    lam_b, w_b, e_b = lam_r[:, row], w_r[:, row], e_r[row]
    a, step = _advance(a, minimiser[row] - a, lambda rho: sq_norm(rho, lam_b, w_b, e_b) > threshold)
    b = a + step
    band_lo, band_hi = np.minimum(a[0::2], b[1::2]), np.maximum(a[0::2], b[1::2])
    band_sample = sample[row[0::2]]

    merged, points, probes = [], [], []
    for j in range(lam.shape[0]):
        mine = band_sample == j
        order = np.argsort(band_lo[mine])
        blo, reach = band_lo[mine][order], np.maximum.accumulate(band_hi[mine][order])
        first, last = np.ones(blo.size, dtype=bool), np.ones(blo.size, dtype=bool)
        first[1:] = last[:-1] = blo[1:] > reach[:-1]  # overlapping bands merge
        merged.append((blo[first], reach[last]))
        # Pieces alternate between the certain gaps and the bands; each is
        # valued at its midpoint.
        edges = np.unique(np.concatenate([[lo_rho, hi_rho], blo[first], reach[last]]))
        points.append(edges[1:-1])
        probes.append(0.5 * (edges[:-1] + edges[1:]) if edges.size > 1 else edges)
    rhos = np.concatenate(probes + [np.empty(0)])
    values = _counts(family, rhos, np.repeat(np.arange(lam.shape[0]), [p.size for p in probes]),
                     lam, z0, dims)
    failed = np.flatnonzero(values < 0)
    failure = (values[failed[0]], float(rhos[failed[0]])) if failed.size else None
    functions = StepFunctions(np.concatenate(points + [np.empty(0)]),
                              np.cumsum([0] + [p.size for p in points]), values)
    return functions, merged, failure


def step_functions(family: GdFamily, samples: Sequence[GdInstance]) -> StepFunctions:
    """Each sample's run_gd count over [rho_l, rho_u] as a row of one StepFunctions batch.

    Needs every step size of the interval to shrink each coordinate by a
    little more than 1 - c (`_contracts`; `random_instance` draws such
    samples) and raises GuaranteedProgressError otherwise.  The change points
    come from the closed form of the squared norm after k steps; each piece's
    value is run_gd's count at one point inside it, so a row's value at rho equals
    run_gd(family, rho, x) except inside the narrow bands around change
    points where rounding decides the count (`_pieces`).
    """
    for x in samples:
        family.check_instance(x)
    lam, z0, dims = _stack(samples)
    short = np.flatnonzero(~_contracts(family, lam))
    if short.size:
        raise GuaranteedProgressError(
            f"sample {int(short[0])} does not shrink by (1 - c)(1 - {_margin(family):.3g}) at "
            f"every step size in [{family.rho_l}, {family.rho_u}]"
        )
    functions, _, failure = _pieces(family, lam, z0, dims)
    if failure is not None:
        _raise_failure(family, *failure)
    return functions


def net_costs(family: GdFamily, net, samples: Sequence[GdInstance]) -> np.ndarray:
    """Iteration counts of every net point on every sample, shape (net, samples).

    Equal to [[run_gd(family, rho, x) for x in samples] for rho in net] as
    floats.  Every net point and every sample is validated first, with
    run_gd's messages.  When every sample contracts by a margin over the
    whole interval (`_contracts`), the counts are read off the step
    functions of `_pieces`, and the net points inside their uncertain bands
    are rerun through the recurrence.  Otherwise, or if any of those runs
    fails, one recurrence per sample runs the whole net; a run that breaks
    guaranteed progress raises run_gd's error for the smallest such net
    index, at the first sample that fails there.
    """
    rhos = np.asarray(net, dtype=float)
    outside = np.flatnonzero(~family.contains(rhos))
    if outside.size:
        rho = float(rhos[outside[0]])
        raise ValueError(f"rho={rho} outside [{family.rho_l}, {family.rho_u}]")
    for x in samples:
        family.check_instance(x)
    lam, z0, dims = _stack(samples)
    fast = _contracts(family, lam).all()
    if fast:
        functions, bands, failure = _pieces(family, lam, z0, dims)
        fast = failure is None
    costs = functions.at(rhos) if fast else np.empty((rhos.size, len(samples)))
    if fast:
        near = []
        for lo, hi in bands:
            edges = np.column_stack([lo, np.nextafter(hi, np.inf)]).ravel()
            near.append(np.flatnonzero(np.searchsorted(edges, rhos, side="right") % 2))
        i = np.concatenate(near + [np.empty(0, dtype=np.intp)])
        j = np.repeat(np.arange(len(samples)), [n.size for n in near])
        costs[i, j] = _counts(family, rhos[i], j, lam, z0, dims)
    if not fast or (costs < 0).any():
        for j, x in enumerate(samples):
            costs[:, j] = _net_iterations(family, rhos, x.lambdas, x.z0)
    failed = costs < 0
    if failed.any():
        i = int(np.flatnonzero(failed.any(axis=1))[0])
        j = int(np.flatnonzero(failed[i])[0])
        _raise_failure(family, costs[i, j], float(rhos[i]))
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

    The net is scored by `net_costs` (the samples' step functions, read at
    the net points, or the recurrence when they do not apply), with errors
    naming net points in the order given.  `core.erm_costs` then reduces the
    rows sorted by step size, so ties break toward the smaller step size.
    Returns (rho_star, ErrorReport).
    """
    points = np.asarray(net, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValueError("net must be a nonempty 1-D array of step sizes")
    costs = net_costs(family, points, samples)
    order = np.argsort(points, kind="stable")
    report = erm_costs(points[order].tolist(), costs[order], MINIMIZE)
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
        cost_r, cost_e = (int(c) for c in _net_iterations(family, np.array([rho, eta]),
                                                                inst.lambdas, inst.z0))
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
