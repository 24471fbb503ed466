"""Finite atomic Patterson-Sullivan approximations on Schottky limit sets,
the associated conformal density F, and residual tests for quasi-invariance.

The measure places the deepest-shell orbit of the basepoint on the sphere
with weights proportional to the spherical derivative raised to delta; the
density is F(x) = sum_i w_i * phi(x, x_i)^(-delta) with phi half the squared
chordal distance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._vec import (
    apply_many,
    chordal_many,
    from_sphere,
    fsum,
    hom_many,
    sphere_coords_many,
    sphere_embed,
    spherical_derivative_many,
    to_sphere,
    uniform_sphere_points,
)
from .moebius import INF, SpherePoint, as_sphere_point
from .schottky import DeltaEstimate, SchottkyGroup, estimate_delta

MASS_TOL = 1e-12
ATOM_GUARD = 1e-12
RESIDUAL_EPS = 1e-12


class MeasureError(ValueError):
    """Measure construction or evaluation rejected with a diagnostic."""


class SingularEvaluationError(MeasureError):
    """Density evaluation requested on or too near an atom."""


@dataclass(frozen=True)
class PSMeasure:
    """Atomic measure with unit total mass; immutable after build."""

    points: np.ndarray
    inf_mask: np.ndarray
    weights: np.ndarray
    delta: float
    depth: int
    basepoint: SpherePoint

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        msk = np.asarray(self.inf_mask, dtype=bool)
        wts = np.asarray(self.weights, dtype=float)
        if not (pts.shape == msk.shape == wts.shape) or pts.ndim != 1:
            raise MeasureError("points, inf_mask, weights must be equal 1-d arrays")
        if wts.size == 0:
            raise MeasureError("a measure needs at least one atom")
        if np.any(wts < 0) or not np.all(np.isfinite(wts)):
            raise MeasureError("weights must be finite and nonnegative")
        total = fsum(wts)
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {MASS_TOL}")
        for a in (pts, msk, wts):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "inf_mask", msk)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "basepoint", as_sphere_point(self.basepoint))

    @property
    def atoms(self):
        return tuple(
            (INF if m else SpherePoint(p), float(w))
            for p, m, w in zip(self.points, self.inf_mask, self.weights)
        )

    def __len__(self):
        return self.weights.size


def build_ps(group: SchottkyGroup, delta=None, depth: int = 8) -> PSMeasure:
    """Deepest-shell orbit measure: atoms w(basepoint) over |w| = depth,
    weights proportional to (spherical derivative of w at basepoint)^delta."""
    if depth < 2:
        raise MeasureError(f"depth must be >= 2, got {depth}")
    if group.rank == 0:
        raise MeasureError("the trivial group carries no limit-set measure")
    if delta is None:
        delta = estimate_delta(group).delta
    elif isinstance(delta, DeltaEstimate):
        delta = delta.delta
    delta = float(delta)
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise MeasureError(f"delta must be a finite nonnegative real, got {delta!r}")
    bp = group.default_basepoint()
    pts, msk, sph = group.shell_terms(depth, bp, "absolute")
    raw = sph**delta
    total = fsum(raw)
    if not (total > 0.0 and math.isfinite(total)):
        raise MeasureError("degenerate weight normalization")
    wts = raw / total
    # rescale so the compensated total is exactly representable as 1
    wts = wts / fsum(wts)
    if group.circles is not None:
        group._ensure_shells(depth)
        first = group._shell_first[depth]
        seen = set(int(f) for f in first)
        missing = [l for l in group.letters if l not in seen]
        if missing:
            raise MeasureError(
                f"depth {depth} leaves defining disks of letters {missing} empty")
        for l in group.letters:
            sel = first == l
            tgt = group.target_circle(int(l))
            inside = np.abs(pts[sel] - tgt.center) <= tgt.radius + 1e-9
            if np.any(msk[sel]) or not np.all(inside):
                raise MeasureError(
                    f"orbit atoms escaped the defining disk of letter {l}")
    return PSMeasure(pts, msk, wts, delta, int(depth), bp)


# test functions: constant plus the first eight real spherical harmonics,
# evaluated through the unit-sphere embedding

def _tf_const(n1, n2, n3):
    return np.ones_like(n1)


DEFAULT_TEST_FUNCTIONS = (
    ("1", _tf_const),
    ("n1", lambda n1, n2, n3: n1),
    ("n2", lambda n1, n2, n3: n2),
    ("n3", lambda n1, n2, n3: n3),
    ("n1*n2", lambda n1, n2, n3: n1 * n2),
    ("n1*n3", lambda n1, n2, n3: n1 * n3),
    ("n2*n3", lambda n1, n2, n3: n2 * n3),
    ("n1^2-n2^2", lambda n1, n2, n3: n1 * n1 - n2 * n2),
    ("3*n3^2-1", lambda n1, n2, n3: 3.0 * n3 * n3 - 1.0),
)


def quasi_invariance_residual(measure: PSMeasure, group: SchottkyGroup,
                              test_functions=None) -> float:
    """max over generators g and test functions f of
    |sum w f(x) - sum w s_g(x)^delta f(gx)| / (sum w |f(x)| + eps)."""
    fns = DEFAULT_TEST_FUNCTIONS if test_functions is None else tuple(test_functions)
    pts, msk, wts = measure.points, measure.inf_mask, measure.weights
    cx = sphere_coords_many(pts, msk)
    worst = 0.0
    for g in group.generators:
        img, img_msk = apply_many(g, pts, msk)
        jac = spherical_derivative_many(g, pts, msk) ** measure.delta
        cy = sphere_coords_many(img, img_msk)
        for _, f in fns:
            fx = f(*cx)
            fy = f(*cy)
            lhs = fsum(wts * fx)
            rhs = fsum(wts * jac * fy)
            den = fsum(wts * np.abs(fx)) + RESIDUAL_EPS
            worst = max(worst, abs(lhs - rhs) / den)
    return worst


# Hierarchical evaluation of F.  A build_ps measure stores the atom of word
# u.l at index idx(u)*(2g-1) + rank(l), so the atoms under each prefix u form
# one contiguous block inside the image disk of a defining disk under u.
# Those blocks are the nodes of the tree.  A node far from x is replaced by
# the second-order expansion of phi^-delta about its centre c, using
#   phi(x, y) = phi(x, c) - n(x).(n(y) - n(c)),
# which is exact algebra on the unit sphere; the node is accepted only when
# the third-order remainder plus the rounding of every quantity involved is
# at most rel_tol of its contribution.  The remaining atoms are summed with
# the homogeneous-coordinate kernel.  All error bounds are relative to the
# exact sum over the points as represented by their bounded homogeneous
# coordinates (Z, W); the rounding constants below are multiples of the unit
# roundoff _U with generous margins.

REL_TOL = 1e-13
_U = 2.0**-53
GUARD_PHI = 0.5 * ATOM_GUARD**2   # phi at chordal distance ATOM_GUARD
LEAF_ATOMS = 8                    # leaves: smallest prefix blocks this large
MAX_RHO = 2.0**-6                 # accepted nodes have all |t_i| <= MAX_RHO * phi
PAIR_BUDGET = 1 << 20             # (point, leaf) pairs one batch can reach
POINT_BATCH = 1024
LEAF_BLOCK = 1 << 14              # elements of one leaf-kernel temporary


@dataclass(frozen=True)
class _Level:
    """Internal tree level: node j holds atoms [j*size, (j+1)*size) and its
    children are nodes j*branch + r of the next level."""

    branch: int
    W: np.ndarray      # node weight
    Zc: np.ndarray     # centre c, bounded homogeneous coordinates
    Wc: np.ndarray
    Nc: np.ndarray     # |Zc|^2 + |Wc|^2
    small: np.ndarray  # centre in the |z| <= 1 chart (Wc == 1)
    m1: np.ndarray     # (3, N): sum w_i e_i, e_i = n(x_i) - n(c)
    M2: np.ndarray     # (6, N): sum w_i e_i e_i^T as xx, yy, zz, xy, xz, yz
    R: np.ndarray      # upper bound on max |e_i|
    eta1: np.ndarray   # bound on the error of n.m1 as computed
    eta2: np.ndarray   # bound on the error of n^T M2 n as computed


@dataclass(frozen=True)
class _Leaves:
    """Leaf blocks of the tree as (nodes, atoms per leaf) arrays."""

    Z: np.ndarray
    W: np.ndarray
    nsq: np.ndarray
    w: np.ndarray
    has_small: np.ndarray  # some atom in the |z| <= 1 chart
    has_big: np.ndarray    # some atom outside it


def _prefix_sizes(n_atoms: int, depth: int):
    """Atoms per prefix block at prefix lengths 0..depth when n_atoms is
    2g(2g-1)^(depth-1), the size of a depth-`depth` build_ps measure of a
    rank-g group; None for any other size."""
    if not 1 <= depth <= n_atoms.bit_length():  # n_atoms >= 2^depth for g >= 2
        return None
    g = 1
    while 2 * g * (2 * g - 1) ** (depth - 1) < n_atoms:
        g += 1
    if 2 * g * (2 * g - 1) ** (depth - 1) != n_atoms:
        return None
    sizes = [n_atoms, n_atoms // (2 * g)]
    while len(sizes) <= depth:
        sizes.append(sizes[-1] // (2 * g - 1))
    return sizes


def _build_level(Z, W, nsq, nvec, small, w, size, branch) -> _Level:
    N = w.size // size
    Wn = w.reshape(N, size).sum(axis=1)
    v = (w * nvec).reshape(3, N, size).sum(axis=2)
    norm = np.sqrt((v * v).sum(axis=0))
    # nodes without weight (or with a balanced one) take their first atom's
    # direction; the expansion is exact for any centre, only R depends on it
    first = nvec[:, ::size]
    v = np.where(norm > 0.0, v, first)
    c = v / np.sqrt((v * v).sum(axis=0))
    c_small = c[2] <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        Zc = np.where(c_small, (c[0] + 1j * c[1]) / (1.0 - c[2]), 1.0 + 0j)
        Wc = np.where(c_small, 1.0 + 0j, (c[0] - 1j * c[1]) / (1.0 + c[2]))
    Nc = Zc.real**2 + Zc.imag**2 + Wc.real**2 + Wc.imag**2
    # e_i = n(x_i) - n(c) from d = Z_i Wc - Zc W_i, without cancellation:
    # complex part 2(conj(W_i Wc) d - Z_i Zc conj(d)), third 2 Re(d conj(s)),
    # both over |(Z_i, W_i)|^2 |(Zc, Wc)|^2, with s = Z_i Wc + Zc W_i
    Zr, Wr, Nr = (np.repeat(a, size) for a in (Zc, Wc, Nc))
    d = Z * Wr - Zr * W
    s = Z * Wr + Zr * W
    den = nsq * Nr
    ec = 2.0 * (np.conj(W * Wr) * d - Z * Zr * np.conj(d)) / den
    e = np.stack([ec.real, ec.imag,
                  2.0 * (d.real * s.real + d.imag * s.imag) / den])
    enorm = np.sqrt((e * e).sum(axis=0))
    # d is exact up to one rounding when atom and centre share a chart; a
    # product across charts adds an absolute error of a few ulps
    alpha = _U * (16.0 * enorm + 12.0 * (small != np.repeat(c_small, size)))
    A = alpha.reshape(N, size).max(axis=1)
    R = (enorm.reshape(N, size).max(axis=1) + A) * (1.0 + 4.0 * _U)
    we = w * e
    m1 = we.reshape(3, N, size).sum(axis=2)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    M2 = np.stack([(we[a] * e[b]).reshape(N, size).sum(axis=1) for a, b in pairs])
    eta1 = Wn * (2.0 * A + (2 * size + 16) * _U * R)
    eta2 = Wn * (3.0 * (2.0 * R + A) * A + (3 * size + 40) * _U * R * R)
    return _Level(branch, Wn, Zc, Wc, Nc, c_small, m1, M2, R, eta1, eta2)


def _build_tree(measure: PSMeasure):
    """(internal levels, leaves) over the measure's atoms.  A measure whose
    size is not that of a build_ps measure gets a flat tree: one leaf."""
    Z, W = hom_many(measure.points, measure.inf_mask)
    nsq, nvec = sphere_embed(Z, W)
    small = W == 1.0  # the |z| <= 1 chart
    w = measure.weights
    n = w.size
    sizes = _prefix_sizes(n, measure.depth) or [n]
    n_levels = max([k for k, s in enumerate(sizes) if s >= LEAF_ATOMS], default=0)
    levels = []
    for k in range(n_levels):
        levels.append(_build_level(Z, W, nsq, nvec, small, w, sizes[k],
                                   sizes[k] // sizes[k + 1]))
    B = sizes[n_levels]
    sm = small.reshape(-1, B)
    leaves = _Leaves(Z.reshape(-1, B), W.reshape(-1, B), nsq.reshape(-1, B),
                     w.reshape(-1, B), sm.any(axis=1), ~sm.all(axis=1))
    return tuple(levels), leaves


@dataclass(frozen=True)
class NayataniDensity:
    """Conformal density of a PSMeasure; evaluations are pure and share only
    the tree built once from the measure's atoms."""

    measure: PSMeasure

    def __post_init__(self):
        levels, leaves = _build_tree(self.measure)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_leaves", leaves)

    @property
    def delta(self) -> float:
        return self.measure.delta

    def F(self, x) -> float:
        p = as_sphere_point(x)
        vals, singular, _ = self.F_many(
            np.array([0j if p.is_infinity else p.value]),
            np.array([p.is_infinity]))
        if singular[0]:
            raise SingularEvaluationError(
                "evaluation point within the atom guard distance")
        return float(vals[0])

    def metric_factor(self, x) -> float:
        d = self.measure.delta
        if d <= 0.0:
            raise MeasureError("metric factor needs delta > 0")
        return self.F(x) ** (2.0 / d)

    def F_many(self, points, inf_mask, rel_tol: float = REL_TOL):
        """F at each point, a singular mask (point within ATOM_GUARD of an
        atom; value inf) and a certified relative error bound of each value.

        rel_tol bounds the relative error each accepted tree node may add;
        rel_tol=0 accepts none and sums every atom.  Each value depends on
        its own point only, so splitting the points changes no bit.

        Known weakness: for a point and an atom on opposite sides of
        |z| = 1 at chordal distance r, the kernel rounds z * (1/y), so the
        bound grows like 1e-16/r (5e-7 at r = 1e-9).  Atoms of the standard
        group all have |z| >= 1.5 and never meet this.
        """
        pts = np.asarray(points, dtype=complex)
        msk = np.asarray(inf_mask, dtype=bool)
        Z, W = hom_many(pts.ravel(), msk.ravel())
        vals = np.empty(Z.size)
        singular = np.empty(Z.size, dtype=bool)
        rel_err = np.empty(Z.size)
        n_leaves = self._leaves.w.shape[0]
        batch = max(1, min(POINT_BATCH, PAIR_BUDGET // n_leaves))
        for lo in range(0, Z.size, batch):
            hi = min(lo + batch, Z.size)
            vals[lo:hi], singular[lo:hi], rel_err[lo:hi] = self._walk(
                Z[lo:hi], W[lo:hi], msk.ravel()[lo:hi], rel_tol)
        return (vals.reshape(pts.shape), singular.reshape(pts.shape),
                rel_err.reshape(pts.shape))

    def _walk(self, Z, W, inf, rel_tol):
        """Level-by-level walk over (point, node) pairs.  Pairs stay in
        point-major order, so bincount adds each point's terms in an order
        that depends on that point alone."""
        n = Z.size
        nsq, nvec = sphere_embed(Z, W)
        small = W == 1.0
        pt = (Z, W, nsq, nvec, small, inf)
        total = np.zeros(n)
        err = np.zeros(n)
        count = np.zeros(n)
        pi = np.arange(n)
        nj = np.zeros(n, dtype=np.intp)
        for lv in self._levels:
            if rel_tol > 0.0:
                acc, val, e = self._accept(lv, pi, nj, pt, rel_tol)
                hit = pi[acc]
                total += np.bincount(hit, val, n)
                err += np.bincount(hit, e, n)
                count += np.bincount(hit, minlength=n)
                pi, nj = pi[~acc], nj[~acc]
            pi = np.repeat(pi, lv.branch)
            nj = (nj[:, None] * lv.branch + np.arange(lv.branch)).ravel()
        val, e, bad = self._leaf_sums(pi, nj, pt)
        total += np.bincount(pi, val, n)
        err += np.bincount(pi, e, n)
        count += np.bincount(pi, minlength=n)
        singular = np.bincount(pi, bad, n) > 0
        # summation of positive terms: the summands, one addition per level
        # and a leaf's own sum
        gam = (count + len(self._levels) + 1 + self._leaves.w.shape[1]) * _U
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (err + gam * total) / (total * (1.0 - gam) - err) * (1.0 + 1e-6)
        rel = np.where(rel >= 0.0, rel, np.inf)
        total[singular] = np.inf
        rel[singular] = np.inf
        return total, singular, rel

    def _accept(self, lv: _Level, pi, nj, pt, rel_tol):
        """Accepted-pair mask, and the expansion value and its absolute error
        bound for each accepted pair."""
        Z, W, nsq, nvec, small, inf = pt
        d = self.measure.delta
        take = np.take
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dz = take(Z, pi) * take(lv.Wc, nj) - take(lv.Zc, nj) * take(W, pi)
            c2 = dz.real**2 + dz.imag**2
            phi0 = 2.0 * c2 / (take(nsq, pi) * take(lv.Nc, nj))
            # relative rounding of phi0; a product across charts is inexact
            cross = (take(small, pi) != take(lv.small, nj)) & ~take(inf, pi)
            eps = _U * (12.0 + 5.0 * cross / np.sqrt(c2))
            phi_lo = phi0 * (1.0 - eps)
            R = take(lv.R, nj)
            # |t_i| <= min(|e_i|, |n(x) - n(c)| |e_i| + |e_i|^2 / 2)
            t = np.minimum(R, np.sqrt(2.0 * phi0 * (1.0 + eps)) * R + 0.5 * R * R)
            rho = t * (1.0 + 8.0 * _U) / phi_lo
            n1, n2, n3 = take(nvec, pi, axis=1)
            m1, M2 = take(lv.m1, nj, axis=1), take(lv.M2, nj, axis=1)
            a = n1 * m1[0] + n2 * m1[1] + n3 * m1[2]
            q = (n1 * (n1 * M2[0] + 2.0 * (n2 * M2[3] + n3 * M2[4]))
                 + n2 * (n2 * M2[1] + 2.0 * n3 * M2[5]) + n3 * n3 * M2[2])
            Wn, eta1, eta2 = take(lv.W, nj), take(lv.eta1, nj), take(lv.eta2, nj)
            # (1 - u)^-d = 1 + d u + d(d+1)/2 u^2 + R3 with |R3| <= c3 rho u^2
            # for |u| <= rho <= MAX_RHO, and sum w_i u_i^2 = q / phi0^2
            c3 = d * (d + 1.0) * (d + 2.0) / 6.0 * (1.0 - MAX_RHO) ** (-d - 3.0)
            trunc = c3 * rho * (np.maximum(q, 0.0) + eta2) / phi_lo**2
            mom = d * eta1 / phi_lo + 0.5 * d * (d + 1.0) * eta2 / phi_lo**2
            bound = trunc + mom + Wn * ((d + 2.0) * eps + 16.0 * _U)
            # the node's contribution is at least W phi0^-d (1 + rho)^-d
            ok = ((eps <= 1e-3) & (rho <= MAX_RHO)
                  & (phi_lo * (1.0 - rho) > GUARD_PHI)
                  & (bound * (1.0 + MAX_RHO) ** d <= rel_tol * Wn))
        phi0 = phi0[ok]
        P = phi0**-d
        val = P * (Wn[ok] + d / phi0 * (a[ok] + 0.5 * (d + 1.0) * q[ok] / phi0))
        return ok, val, bound[ok] * P

    def _leaf_sums(self, pi, nj, pt):
        """Kernel sums of (point, leaf) pairs on cache-sized row blocks: the
        sum, its absolute rounding bound, and whether an atom is in guard."""
        Z, W, nsq, _, small, inf = pt
        lf = self._leaves
        d = self.measure.delta
        val = np.empty(pi.size)
        err = np.empty(pi.size)
        bad = np.empty(pi.size, dtype=bool)
        rows = max(1, LEAF_BLOCK // lf.w.shape[1])
        for lo in range(0, pi.size, rows):
            p, j = pi[lo:lo + rows], nj[lo:lo + rows]
            dz = Z[p, None] * lf.W[j] - lf.Z[j] * W[p, None]
            ph = 2.0 * (dz.real**2 + dz.imag**2) / (nsq[p, None] * lf.nsq[j])
            mn = ph.min(axis=1)
            b = mn <= GUARD_PHI
            ph[b] = 1.0
            s = np.sum(lf.w[j] * ph**-d, axis=1)
            # per-term relative rounding u (d (12 + 5/|dz|) + 10), the 5/|dz|
            # only across charts, with |dz| >= sqrt(phi / 2)
            cross = (small[p] & lf.has_big[j]) | (~small[p] & ~inf[p] & lf.has_small[j])
            far = np.sqrt(2.0 / np.maximum(mn, GUARD_PHI))
            val[lo:lo + rows] = s
            err[lo:lo + rows] = s * _U * (d * (12.0 + 5.0 * cross * far) + 10.0)
            bad[lo:lo + rows] = b
        return val, err, bad


@dataclass(frozen=True)
class AsymptoticProfile:
    radii: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    resolution: float


def atom_resolution(density: NayataniDensity, y0) -> float:
    """Chordal distance from y0 to the nearest atom not coincident with it."""
    d = chordal_many(y0, density.measure.points, density.measure.inf_mask)
    distinct = d[d > ATOM_GUARD]
    return float(distinct.min()) if distinct.size else 0.0


def asymptotic_profile(density: NayataniDensity, y0, radii) -> AsymptoticProfile:
    """F along a fixed tangent ray toward y0, at the given chordal radii,
    with the fitted log-log slope."""
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(r <= 0 for r in radii):
        raise MeasureError("need at least two positive radii")
    if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise MeasureError("radii must be strictly decreasing")
    if radii[0] >= 2.0:
        raise MeasureError("chordal radii must be < 2")
    res = atom_resolution(density, y0)
    if res > 0.0 and min(radii) < res:
        raise MeasureError(
            f"radius {min(radii):.3e} is below the atom resolution scale "
            f"{res:.3e} of the measure; deepen the measure or raise the radii")
    n0 = to_sphere(y0)
    t = np.cross([0.0, 0.0, 1.0], n0)
    if np.linalg.norm(t) < 1e-9:
        t = np.cross([1.0, 0.0, 0.0], n0)
    t = t / np.linalg.norm(t)
    values = []
    for r in radii:
        theta = 2.0 * math.asin(min(1.0, r / 2.0))
        x = from_sphere(math.cos(theta) * n0 + math.sin(theta) * t)
        values.append(density.F(x))
    logs_r = np.log(radii)
    logs_f = np.log(values)
    slope = float(np.polyfit(logs_r, logs_f, 1)[0])
    return AsymptoticProfile(tuple(radii), tuple(values), slope, res)


@dataclass(frozen=True)
class ConformalityReport:
    max_rel_deviation: float
    residual: float
    constant: float
    n_points: int


def conformality_report(density: NayataniDensity, group: SchottkyGroup,
                        n_points: int = 50, seed: int = 0) -> ConformalityReport:
    """Checks F(gx) * s_g(x)^delta = F(x) at sampled fundamental-domain points;
    reports the worst relative deviation and its ratio to the measure residual."""
    rng = np.random.default_rng(seed)
    samples = []
    guard = 0
    while len(samples) < n_points:
        pts, msk = uniform_sphere_points(rng, 4 * n_points)
        for p, m in zip(pts, msk):
            if len(samples) >= n_points:
                break
            sp = INF if m else SpherePoint(complex(p))
            if group.circles is not None and any(
                    c.contains(sp) for c in group.circles):
                continue
            try:
                density.F(sp)
            except SingularEvaluationError:
                continue
            samples.append(sp)
        guard += 1
        if guard > 50:
            raise MeasureError("could not sample enough fundamental-domain points")
    worst = 0.0
    d = density.measure.delta
    for g in group.generators:
        for x in samples:
            fx = density.F(x)
            gx = g.apply(x)
            rel = abs(density.F(gx) * g.spherical_derivative(x) ** d - fx) / fx
            worst = max(worst, rel)
    residual = quasi_invariance_residual(density.measure, group)
    constant = worst / max(residual, RESIDUAL_EPS)
    return ConformalityReport(worst, residual, constant, n_points)


def write_measure_csv(measure: PSMeasure, path) -> None:
    """CSV rows re,im,weight (infinity as inf,inf) under a JSON comment header."""
    bp = measure.basepoint
    header = {
        "delta": measure.delta,
        "depth": measure.depth,
        "basepoint": "inf" if bp.is_infinity else [bp.value.real, bp.value.imag],
    }
    with open(path, "w", encoding="ascii") as f:
        f.write("# " + json.dumps(header, sort_keys=True) + "\n")
        f.write("re,im,weight\n")
        for p, m, w in zip(measure.points, measure.inf_mask, measure.weights):
            if m:
                f.write(f"inf,inf,{float(w)!r}\n")
            else:
                f.write(f"{float(p.real)!r},{float(p.imag)!r},{float(w)!r}\n")


def read_measure_csv(path) -> PSMeasure:
    with open(path, "r", encoding="ascii") as f:
        first = f.readline()
        if not first.startswith("# "):
            raise MeasureError("missing JSON header line")
        header = json.loads(first[2:])
        cols = f.readline().strip()
        if cols != "re,im,weight":
            raise MeasureError(f"unexpected column line {cols!r}")
        pts, msk, wts = [], [], []
        for line in f:
            line = line.strip()
            if not line:
                continue
            re_s, im_s, w_s = line.split(",")
            re_v, im_v = float(re_s), float(im_s)
            if math.isinf(re_v) or math.isinf(im_v):
                pts.append(0j)
                msk.append(True)
            else:
                pts.append(complex(re_v, im_v))
                msk.append(False)
            wts.append(float(w_s))
    bp = header["basepoint"]
    basepoint = INF if bp == "inf" else SpherePoint(complex(bp[0], bp[1]))
    return PSMeasure(np.array(pts, dtype=complex), np.array(msk, dtype=bool),
                     np.array(wts, dtype=float), float(header["delta"]),
                     int(header["depth"]), basepoint)
