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

from ._vec import (
    FSUM_BLOCK,
    ExactSum,
    fsum,
    fsum_c,
    uniform_sphere_points,
)
from .moebius import MoebiusMap, SpherePoint, as_sphere_point
from .polylog import D_GLOBAL_BOUND, bloch_wigner, bloch_wigner_many
from .psmeasure import MeasureError, NayataniDensity
from .schottky import (
    SchottkyError,
    SchottkyGroup,
    ShellOverflowError,
    estimate_delta,
    power_sum,
    reduce_to_fundamental_domain,
)

TAIL_SAFETY = 2.0
WEIGHT_MODES = ("holomorphic", "absolute")


class IntegrandBoundError(ValueError):
    """An integrand exceeded its declared global bound during evaluation."""


class DomainError(ValueError):
    """Evaluation point is not admissible: numerically on the limit set, or
    (holomorphic mode) at infinity or on its orbit."""


@dataclass(frozen=True)
class SeriesIntegrand:
    """A bounded continuous function on the sphere: `evaluator` at one
    finite point, `evaluator_many` over a 1-d array of finite points."""

    evaluator: object
    evaluator_many: object
    bound: float = D_GLOBAL_BOUND
    name: str = "custom"

    def __post_init__(self):
        if not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise ValueError(f"declared bound must be positive, got {self.bound!r}")

    def eval_many(self, points: np.ndarray, inf_mask: np.ndarray) -> np.ndarray:
        """Values at a 1-d array of sphere points, 0 at infinity."""
        pts = np.where(inf_mask, 0.0, points) if inf_mask.any() else points
        vals = np.asarray(self.evaluator_many(pts), dtype=float)
        vals[inf_mask] = 0.0
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


BLOCH_WIGNER_INTEGRAND = SeriesIntegrand(bloch_wigner, bloch_wigner_many,
                                         D_GLOBAL_BOUND, "bloch-wigner")


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


def _ratios(sums) -> list[float]:
    """Each shell sum over the one before, where that one is positive."""
    return [sums[i + 1] / sums[i] for i in range(len(sums) - 1) if sums[i] > 0]


def _comparability(pts, infm, base: float) -> list[float]:
    """The largest finite (1 + |p|^2) / base over the finite points p and
    the reciprocal of the smallest, or [] if there is none.  The ratio
    rounds monotonically in |p|, so the extreme |p| give them bit for bit."""
    mod = np.abs(pts[~infm] if infm.any() else pts)
    # |p|^2 overflows from 2**512 on
    if mod.size and mod.max() >= 2.0**512:
        mod = mod[mod < 2.0**512]
    if not mod.size:
        return []
    top, low = float(mod.max()), float(mod.min())
    return [(1.0 + top * top) / base, 1.0 / ((1.0 + low * low) / base)]


def _check_admissible(group: SchottkyGroup, p: SpherePoint) -> None:
    """DomainError when p lies numerically on the limit set."""
    if group.rank > 0 and group.circles is not None:
        try:
            reduce_to_fundamental_domain(group, p)
        except SchottkyError as e:
            raise DomainError(str(e)) from e


def evaluate(group: SchottkyGroup, integrand: SeriesIntegrand = None, z=0j,
             weight_mode: str = "holomorphic", max_len: int = 10,
             tol: float = 1e-8) -> SeriesEvaluation:
    """Sum the series over all words of length <= max_len, shell by shell.

    Every shell sum and the total are correctly rounded (exact sums), and
    the integrand sees blocks of at most FSUM_BLOCK words.

    tail_estimate extrapolates the last weight-shell ratio geometrically with
    a 2x safety factor: 2 * bound * S_N * r/(1-r).  verdict is converged only
    when that tail is <= tol and the last three ratios are below 1.
    """
    return _evaluate_at(group, integrand, [z], weight_mode, max_len, tol)[0]


def _evaluate_at(group: SchottkyGroup, integrand, zs, weight_mode: str,
                 max_len: int, tol: float) -> list[SeriesEvaluation]:
    """evaluate at each of zs.  Every point is checked first, in order.
    Then the points' orbits are walked one after another, each shell by
    shell (SchottkyGroup.orbits, which forms no word matrix), and each
    piece of the walk is summed FSUM_BLOCK words at a time, so no temporary
    grows with the shell.  Every shell is summed exactly and rounded once
    its last piece is in.  Each point's walk stops at the first error it
    meets, and the error raised is the one at the shortest length, on a
    tie the earlier point's; a later point stops at that length."""
    if integrand is None:
        integrand = BLOCH_WIGNER_INTEGRAND
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    group.check_depth(max_len)
    ps, base_n = [], []
    for z in zs:
        p = as_sphere_point(z)
        if weight_mode == "holomorphic":
            if p.is_infinity:
                raise DomainError("holomorphic weights need a finite evaluation point")
            try:
                base_n.append(1.0 + abs(p.value) ** 2)
            except OverflowError:
                raise DomainError(
                    f"holomorphic weights overflow at z = {p.value!r}") from None
        _check_admissible(group, p)
        ps.append(p)
    sums = [[complex(integrand.eval_point(p))] for p in ps]
    wsums = [[1.0] for _ in ps]
    comp = [[1.0] for _ in ps]  # comparability: the largest of these
    first = None  # the length and the error of the first error met
    # the trivial group has no words beyond the empty one
    depth = max_len if group.rank else 0
    # every block's points are projected into these, read before the next
    projected = [np.empty(min(FSUM_BLOCK, group.shell_size(depth)), dtype=t)
                 for t in (complex, bool)]

    def add_piece(i, piece, accs):
        """Add a walk piece at point i to the ExactSums of re, im and |w| of
        its length, FSUM_BLOCK words at a time.  A function, so its arrays
        are freed before the walk grows the next piece."""
        re, im, w = accs
        for lo in range(0, piece.first.size, FSUM_BLOCK):
            block = piece._make(a[lo:lo + FSUM_BLOCK] for a in piece)
            pts, infm, wts = group.shell_terms(block, ps[i], weight_mode, *(
                a[:block.first.size] for a in projected))
            vals = integrand.eval_many(pts, infm)
            if weight_mode == "holomorphic":
                re.add(wts.real * vals)
                im.add(wts.imag * vals)
                comp[i] += _comparability(pts, infm, base_n[i])
            else:
                re.add(wts * vals)
            w.add(np.abs(wts))

    for i, walk in enumerate(group.orbits(ps, depth)):
        accs = []  # ExactSums of re, im and |w| of each length
        try:
            for n, piece in walk:
                if first is not None and n >= first[0]:
                    break
                if n > len(accs):
                    accs.append((ExactSum(), ExactSum(), ExactSum()))
                add_piece(i, piece, accs[-1])
        except (ValueError, ArithmeticError) as e:
            n = e.length if isinstance(e, ShellOverflowError) else n
            if first is None or n < first[0]:
                first = n, e
        if first is None:
            sums[i] += [complex(re.value(), im.value()) for re, im, _ in accs]
            wsums[i] += [w.value() for _, _, w in accs]
    if first is not None:
        e = first[1]
        if isinstance(e, SchottkyError):
            raise DomainError(str(e)) from e
        raise e
    out = []
    for p, shells, weight_shells, c in zip(ps, sums, wsums, comp):
        ratios = _ratios(weight_shells)
        if group.rank == 0 or not ratios:
            tail, verdict = 0.0, "converged"
        else:
            r_hat = ratios[-1]
            tail = (TAIL_SAFETY * integrand.bound * weight_shells[-1] * r_hat
                    / (1.0 - r_hat) if r_hat < 1.0 else math.inf)
            recent = ratios[-3:]
            if tail <= tol and all(r < 1.0 for r in recent):
                verdict = "converged"
            elif all(r >= 1.0 for r in recent):
                verdict = "diverging"
            else:
                verdict = "inconclusive"
        value = fsum_c(shells)
        if weight_mode == "absolute":
            value = complex(value.real, 0.0)
        out.append(SeriesEvaluation(value, tuple(shells), tuple(weight_shells),
                                    tail, weight_mode, verdict, max(c), p,
                                    max_len, tol))
    return out


def _as_element(group: SchottkyGroup, element) -> MoebiusMap:
    if isinstance(element, MoebiusMap):
        return element
    if isinstance(element, int):
        return group.letter_map(element)
    return group.word_from_letters(tuple(element)).map


def automorphy_residual(group: SchottkyGroup, integrand: SeriesIntegrand = None,
                        samples=(), elements=(1,), max_len: int = 10,
                        weight_mode: str = "holomorphic",
                        tol: float = 1e-8) -> list[float]:
    """For each of `elements` (a letter, a sequence of letters or a
    MoebiusMap), max over samples of |w_g(z) * S(gz) - S(z)| / (|S(z)| + tol)
    with both series truncated at max_len; w_g is the mode's derivative
    weight.  Returns the residuals in the order of `elements`.

    Every element is resolved before any series is evaluated.  S is
    evaluated at samples * (1 + number of elements) points, S(z) once per
    sample and S(gz) once per sample and element, each point's orbit walked
    once (see _evaluate_at).
    """
    gs = [_as_element(group, e) for e in elements]
    worst = [0.0] * len(gs)
    ps = [as_sphere_point(z) for z in samples]
    if not ps:
        return worst
    evs = iter(_evaluate_at(group, integrand,
                            [q for p in ps for q in (p, *(g.apply(p) for g in gs))],
                            weight_mode, max_len, tol))
    for p in ps:
        here = next(evs)
        for i, g in enumerate(gs):
            there = next(evs)
            w = (g.derivative if weight_mode == "holomorphic"
                 else g.spherical_derivative)(p)
            num = abs(w * there.value - here.value)
            worst[i] = max(worst[i], num / (abs(here.value) + tol))
    return worst


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


def bers_integral(density: NayataniDensity, integrand: SeriesIntegrand = None,
                  n_samples: int = 10000, seed: int = 0) -> BersResult:
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
    fvals, singular, rel = density.F_many(pts, msk)
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
        f_new, s_new, r_new = density.F_many(np_, nm_)
        fvals[idx] = f_new
        singular[idx] = s_new
        rel[idx] = r_new
    p = 2.0 / d
    phi_vals = np.abs(integrand.eval_many(pts, msk))
    vals = fvals**p * phi_vals
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
    est_rel = max(math.expm1(p * math.log1p(eps)),
                  -math.expm1(p * math.log1p(-eps)) if eps < 1.0 else math.inf)
    return BersResult(estimate, stderr, n_samples, n_singular, shares, heavy,
                      seed, eps, est_rel)


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
                       resolution: float = 1e-3) -> ConvergenceReport:
    """Side-by-side shell behavior at s = delta, (1+delta)/2, and 1, with
    delta estimated to `resolution` at estimate_delta's default order cap,
    whatever max_len is."""
    group.check_depth(max_len)
    est = estimate_delta(group, resolution)
    p = group.default_basepoint() if z is None else as_sphere_point(z)
    _check_admissible(group, p)
    exps = (est.delta, 0.5 * (1.0 + est.delta), 1.0)
    logs = group.shell_log_derivatives(max_len, p)
    sums = [[power_sum(ld, s) for ld in logs] for s in exps]
    return ConvergenceReport(exps, tuple(map(tuple, sums)),
                             tuple(tuple(_ratios(row)) for row in sums),
                             est.delta, est.bracket, p, max_len)
