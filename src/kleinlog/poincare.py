"""Truncated Poincare series over Schottky groups with tail estimates,
automorphy residuals, convergence tables, and the Monte-Carlo integral test.

The default series is D_Gamma(z) = sum over the group of weight(gamma, z) *
D(gamma z) with the Bloch-Wigner dilogarithm D.  Weights come in two modes:
the Euclidean derivative gamma'(z) (holomorphic, complex terms) and the
spherical derivative (absolute, real terms); their pointwise ratio on the
orbit is the reported comparability constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._vec import fsum, fsum_c, parallel_chunks, uniform_sphere_points
from .moebius import INF, MoebiusMap, SpherePoint, as_sphere_point
from .polylog import D_GLOBAL_BOUND, bloch_wigner, bloch_wigner_many
from .psmeasure import MeasureError, NayataniDensity
from .schottky import SchottkyGroup, SchottkyError, reduce_to_fundamental_domain

TAIL_SAFETY = 2.0
EVAL_CHUNK = 65536
DENSITY_CHUNK = 1024
WEIGHT_MODES = ("holomorphic", "absolute")


class IntegrandBoundError(ValueError):
    """An integrand exceeded its declared global bound during evaluation."""


class DomainError(ValueError):
    """Evaluation point is not admissible: numerically on the limit set, or
    (holomorphic mode) at infinity or on its orbit."""


@dataclass(frozen=True)
class SeriesIntegrand:
    """A bounded continuous function on the sphere, with an optional
    vectorized form over arrays of finite points."""

    evaluator: object
    bound: float = D_GLOBAL_BOUND
    evaluator_many: object = None
    name: str = "custom"

    def __post_init__(self):
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise ValueError(f"declared bound must be positive, got {self.bound!r}")

    def eval_many(self, points: np.ndarray, inf_mask: np.ndarray,
                  threads: int = 1) -> np.ndarray:
        """Values at a 1-d array of sphere points, 0 at infinity."""
        pts = np.where(inf_mask, 0.0, points)
        if self.evaluator_many is None:
            vals = np.array([float(self.evaluator(p)) for p in pts], dtype=float)
        elif threads > 1 and pts.size > 2 * EVAL_CHUNK:
            # bloch_wigner_many's last bits depend on how its input is
            # split: numpy reuses temporaries of 256 KiB and more, which
            # swaps the operands of a complex product, and its FMA product
            # does not round both orders alike.  So up to 2 * EVAL_CHUNK
            # points stay whole; beyond that threads may move last bits.
            vals = np.empty(pts.size)

            def work(lo, hi):
                vals[lo:hi] = self.evaluator_many(pts[lo:hi])

            parallel_chunks(work, pts.size, threads, EVAL_CHUNK)
        else:
            vals = np.asarray(self.evaluator_many(pts), dtype=float)
        vals = np.where(inf_mask, 0.0, vals)
        self._check(float(np.max(np.abs(vals))) if vals.size else 0.0)
        return vals

    def eval_point(self, p) -> float:
        p = as_sphere_point(p)
        v = 0.0 if p.is_infinity else float(self.evaluator(p.value))
        self._check(abs(v))
        return v

    def _check(self, top: float) -> None:
        if top > self.bound * (1.0 + 1e-12) + 1e-15:
            raise IntegrandBoundError(
                f"integrand {self.name!r} reached {top!r}, above its declared "
                f"bound {self.bound!r}")


BLOCH_WIGNER_INTEGRAND = SeriesIntegrand(bloch_wigner, D_GLOBAL_BOUND,
                                         bloch_wigner_many, "bloch-wigner")


@dataclass(frozen=True)
class SeriesEvaluation:
    """Shell-by-shell record of one truncated series evaluation."""

    value: complex
    shells: tuple[complex, ...]
    weight_shells: tuple[float, ...]
    tail_estimate: float
    weight_mode: str
    verdict: str
    comparability: float
    z: SpherePoint
    max_len: int
    tol: float

    @property
    def shell_ratios(self) -> tuple[float, ...]:
        w = self.weight_shells
        return tuple(w[i + 1] / w[i] for i in range(len(w) - 1) if w[i] > 0)


def evaluate(group: SchottkyGroup, integrand: SeriesIntegrand = None, z=0j,
             weight_mode: str = "holomorphic", max_len: int = 10,
             tol: float = 1e-8, threads: int = 1) -> SeriesEvaluation:
    """Sum the series over all words of length <= max_len, shell by shell.

    Every shell sum and the total are correctly rounded (fsum), so they do
    not depend on chunking or threads; the integrand values of a shell above
    2 * EVAL_CHUNK points can (see SeriesIntegrand.eval_many).

    tail_estimate extrapolates the last weight-shell ratio geometrically with
    a 2x safety factor: 2 * bound * S_N * r/(1-r).  verdict is converged only
    when that tail is <= tol and the last three ratios are below 1.
    """
    if integrand is None:
        integrand = BLOCH_WIGNER_INTEGRAND
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    p = as_sphere_point(z)
    if weight_mode == "holomorphic" and p.is_infinity:
        raise DomainError("holomorphic weights need a finite evaluation point")
    if group.rank > 0 and group.circles is not None:
        try:
            reduce_to_fundamental_domain(group, p)
        except SchottkyError as e:
            raise DomainError(str(e)) from e
    shells = [complex(integrand.eval_point(p))]
    weight_shells = [1.0]
    comparability = 1.0
    if p.is_finite:
        base_n = 1.0 + abs(p.value) ** 2
    for n in range(1, max_len + 1):
        try:
            pts, infm, wts = group.shell_terms(n, p, weight_mode)
        except SchottkyError as e:
            raise DomainError(str(e)) from e
        if wts.size == 0:
            break
        vals = integrand.eval_many(pts, infm, threads)
        shells.append(fsum_c(wts * vals))
        weight_shells.append(fsum(np.abs(wts)))
        if weight_mode == "holomorphic":
            img_n = np.where(infm, np.inf, 1.0 + np.abs(pts) ** 2)
            ratio = img_n / base_n
            finite = np.isfinite(ratio)
            if np.any(finite):
                comparability = max(comparability,
                                    float(np.max(ratio[finite])),
                                    float(1.0 / np.min(ratio[finite])))
    value = fsum_c(shells)
    ratios = [weight_shells[i + 1] / weight_shells[i]
              for i in range(len(weight_shells) - 1) if weight_shells[i] > 0]
    if group.rank == 0 or not ratios:
        tail = 0.0
        verdict = "converged"
    else:
        r_hat = ratios[-1]
        if r_hat < 1.0:
            tail = TAIL_SAFETY * integrand.bound * weight_shells[-1] * r_hat / (1.0 - r_hat)
        else:
            tail = math.inf
        recent = ratios[-3:]
        if tail <= tol and all(r < 1.0 for r in recent):
            verdict = "converged"
        elif all(r >= 1.0 for r in recent):
            verdict = "diverging"
        else:
            verdict = "inconclusive"
    if weight_mode == "absolute":
        value = complex(value.real, 0.0)
    return SeriesEvaluation(value, tuple(shells), tuple(weight_shells), tail,
                            weight_mode, verdict, comparability, p, max_len, tol)


def _as_element(group: SchottkyGroup, element) -> MoebiusMap:
    if isinstance(element, MoebiusMap):
        return element
    if isinstance(element, int):
        return group.letter_map(element)
    return group.word_from_letters(tuple(element)).map


def automorphy_residual(group: SchottkyGroup, integrand: SeriesIntegrand = None,
                        samples=(), element=1, max_len: int = 10,
                        weight_mode: str = "holomorphic", tol: float = 1e-8,
                        threads: int = 1) -> float:
    """max over samples of |w_g(z) * S(gz) - S(z)| / (|S(z)| + tol) with both
    series truncated at max_len; w_g is the mode's derivative weight."""
    if integrand is None:
        integrand = BLOCH_WIGNER_INTEGRAND
    g = _as_element(group, element)
    worst = 0.0
    for z in samples:
        p = as_sphere_point(z)
        here = evaluate(group, integrand, p, weight_mode, max_len, tol, threads)
        there = evaluate(group, integrand, g.apply(p), weight_mode, max_len,
                         tol, threads)
        if weight_mode == "holomorphic":
            w = g.derivative(p)
        else:
            w = g.spherical_derivative(p)
        num = abs(w * there.value - here.value)
        worst = max(worst, num / (abs(here.value) + tol))
    return worst


def fundamental_domain_samples(group: SchottkyGroup, n: int, seed: int = 0,
                               margin: float = 0.05):
    """Deterministic sphere-uniform points in the common exterior of the
    defining disks, at least `margin` (chordal) away from each disk."""
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < n:
        pts, msk = uniform_sphere_points(rng, 8 * n)
        for p, m in zip(pts, msk):
            if len(out) >= n:
                break
            sp = INF if m else SpherePoint(complex(p))
            if group.circles is not None:
                if any(sp.is_finite and abs(sp.value - c.center) < c.radius + margin
                       for c in group.circles):
                    continue
            out.append(sp)
        tries += 1
        if tries > 64:
            raise SchottkyError("could not sample enough fundamental-domain points")
    return out


@dataclass(frozen=True)
class BersResult:
    """Monte-Carlo estimate of the sphere integral of F^(2/delta) |Phi|.

    density_rel_err is the worst certified relative error of F over the
    samples; estimate_rel_err is the relative error of the estimate it
    implies, about (2/delta) density_rel_err.  Neither covers the Monte
    Carlo error, which stderr describes.
    """

    estimate: float
    stderr: float
    n_samples: int
    n_singular: int
    decile_shares: tuple[float, ...]
    heavy_tail: bool
    seed: int
    density_rel_err: float
    estimate_rel_err: float


def bers_integral(group: SchottkyGroup, density: NayataniDensity,
                  integrand: SeriesIntegrand = None, n_samples: int = 10000,
                  seed: int = 0, threads: int = 1) -> BersResult:
    """Uniform-sphere Monte Carlo for integral of F^(2/delta) * |Phi| dA.

    Singular hits (sample inside an atom guard) are resampled from the same
    stream; more than 1% of them is a coarseness diagnostic and an error.
    The per-decile shares of the sampled sum expose heavy tails: the verdict
    heavy_tail means the top decile carries more than half the total.
    """
    if integrand is None:
        integrand = BLOCH_WIGNER_INTEGRAND
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    d = density.measure.delta
    if d <= 0.0:
        raise MeasureError("Bers integrand needs delta > 0")
    rng = np.random.default_rng(seed)
    pts, msk = uniform_sphere_points(rng, n_samples)
    fvals, singular, rel = _density_power_many(density, pts, msk, 2.0 / d, threads)
    n_singular = 0
    limit = max(1, int(0.01 * n_samples))
    while np.any(singular):
        idx = np.nonzero(singular)[0]
        n_singular += idx.size
        if n_singular > limit:
            raise MeasureError(
                f"{n_singular} singular resamples out of {n_samples}: measure "
                "support too coarse for Monte-Carlo evaluation")
        np_, nm_ = uniform_sphere_points(rng, idx.size)
        pts[idx] = np_
        msk[idx] = nm_
        f_new, s_new, r_new = _density_power_many(density, np_, nm_, 2.0 / d,
                                                  threads)
        fvals[idx] = f_new
        singular[idx] = s_new
        rel[idx] = r_new
    phi_vals = np.abs(integrand.eval_many(pts, msk, threads))
    vals = fvals * phi_vals
    total = fsum(vals)
    mean = total / n_samples
    var = fsum((vals - mean) ** 2) / max(1, n_samples - 1)
    area = 4.0 * math.pi
    estimate = area * mean
    stderr = area * math.sqrt(var / n_samples)
    order = np.sort(vals)
    edges = np.linspace(0, n_samples, 11).astype(int)
    if total > 0:
        shares = tuple(fsum(order[edges[i]:edges[i + 1]]) / total
                       for i in range(10))
    else:
        shares = tuple(0.0 for _ in range(10))
    heavy = shares[-1] > 0.5
    # every sampled term is F^p |Phi| >= 0, so the worst relative error of
    # F^p over the samples bounds that of the mean
    eps = float(np.max(rel))
    p = 2.0 / d
    est_rel = max(math.expm1(p * math.log1p(eps)),
                  -math.expm1(p * math.log1p(-eps)) if eps < 1.0 else math.inf)
    return BersResult(estimate, stderr, n_samples, n_singular, shares, heavy,
                      seed, eps, est_rel)


def _density_power_many(density: NayataniDensity, pts, msk, power: float,
                        threads: int = 1):
    vals = np.empty(pts.size)
    sing = np.empty(pts.size, dtype=bool)
    rel = np.empty(pts.size)

    def work(lo, hi):
        vals[lo:hi], sing[lo:hi], rel[lo:hi] = density.F_many(pts[lo:hi],
                                                              msk[lo:hi])

    parallel_chunks(work, pts.size, threads, DENSITY_CHUNK)
    return vals**power, sing, rel


@dataclass(frozen=True)
class ConvergenceReport:
    """Shell sums and ratios at three weight exponents, next to the
    delta bracket that separates divergence from convergence."""

    exponents: tuple[float, ...]
    shell_sums: tuple[tuple[float, ...], ...]
    ratios: tuple[tuple[float, ...], ...]
    delta: float
    delta_bracket: tuple[float, float]
    z: SpherePoint
    max_len: int


def convergence_report(group: SchottkyGroup, z=None, max_len: int = 10,
                       resolution: float = 1e-3,
                       threads: int = 1) -> ConvergenceReport:
    """Side-by-side shell behavior at s = delta, (1+delta)/2, and 1."""
    from .schottky import estimate_delta, shell_sums

    est = estimate_delta(group, resolution, max_depth=min(max_len, 10),
                         threads=threads)
    p = group.default_basepoint() if z is None else as_sphere_point(z)
    if group.rank > 0 and group.circles is not None:
        try:
            reduce_to_fundamental_domain(group, p)
        except SchottkyError as e:
            raise DomainError(str(e)) from e
    exps = (est.delta, 0.5 * (1.0 + est.delta), 1.0)
    sums = []
    rats = []
    for s in exps:
        row = shell_sums(group, s, max_len, p, threads)
        sums.append(tuple(row))
        rats.append(tuple(row[i + 1] / row[i] for i in range(len(row) - 1)
                          if row[i] > 0))
    return ConvergenceReport(exps, tuple(sums), tuple(rats), est.delta,
                             est.bracket, p, max_len)
