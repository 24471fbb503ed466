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
    ExactSum,
    act,
    fsum,
    hom_many,
    sphere_coords_many,
    sphere_embed,
    stretch,
)
from .moebius import INF, SpherePoint, as_sphere_point
from .schottky import DeltaEstimate, SchottkyGroup, fundamental_domain_samples

MASS_TOL = 1e-12
ATOM_GUARD = 1e-12
RESIDUAL_EPS = 1e-12
RESIDUAL_BLOCK = 1 << 16  # atoms quasi_invariance_residual takes at once


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
        _check_delta(self.delta)
        pts = np.asarray(self.points, dtype=complex)
        msk = np.asarray(self.inf_mask, dtype=bool)
        wts = np.asarray(self.weights, dtype=float)
        if not (pts.shape == msk.shape == wts.shape) or pts.ndim != 1:
            raise MeasureError("points, inf_mask, weights must be equal 1-d arrays")
        if wts.size == 0:
            raise MeasureError("a measure needs at least one atom")
        if np.any(wts < 0) or not np.all(np.isfinite(wts)):
            raise MeasureError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(pts[~msk])):
            raise MeasureError("a point not marked infinite must be finite")
        total = fsum(wts)
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {MASS_TOL}")
        for a in (pts, msk, wts):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "inf_mask", msk)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "basepoint", as_sphere_point(self.basepoint))

    def __len__(self):
        return self.weights.size


def _check_delta(delta) -> float:
    """delta as a float, refused unless finite and nonnegative."""
    if (delta := float(delta)) >= 0.0 and math.isfinite(delta):
        return delta
    raise MeasureError(f"delta must be a finite nonnegative real, got {delta!r}")


def build_ps(group: SchottkyGroup, delta, depth: int = 8) -> PSMeasure:
    """Deepest-shell orbit measure: atoms w(basepoint) over |w| = depth,
    weights proportional to (spherical derivative of w at basepoint)^delta,
    with delta a float or a DeltaEstimate."""
    if depth < 2:
        raise MeasureError(f"depth must be >= 2, got {depth}")
    if group.rank == 0:
        raise MeasureError("the trivial group carries no limit-set measure")
    delta = _check_delta(delta.delta if isinstance(delta, DeltaEstimate) else delta)
    bp = group.default_basepoint()
    size = group.shell_size(depth)
    pts, msk, sph = np.empty(size, dtype=complex), np.empty(size, dtype=bool), np.empty(size)
    escaped = set()  # letters whose words took an atom out of their disk
    at = 0
    for piece in (sh for n, sh in next(group.orbits([bp], depth)) if n == depth):
        span = slice(at, at + piece.first.size)
        sph[span] = group.shell_terms(piece, bp, "absolute", pts[span], msk[span])[2]
        at = span.stop
        if group.circles is None:
            continue
        for l in group.letters:
            tgt, sel = group.target_circle(int(l)), piece.first == l
            inside = np.abs(pts[span][sel] - tgt.center) <= tgt.radius + 1e-9
            if np.any(msk[span][sel]) or not np.all(inside):
                escaped.add(l)
    raw = sph**delta
    total = fsum(raw)
    if not (total > 0.0 and math.isfinite(total)):
        raise MeasureError("degenerate weight normalization")
    wts = raw / total
    # rescale so the compensated total is exactly representable as 1
    wts = wts / fsum(wts)
    if escaped:
        raise MeasureError("orbit atoms escaped the defining disk of letter "
                           f"{min(escaped, key=group.letters.index)}")
    return PSMeasure(pts, msk, wts, delta, int(depth), bp)


# test functions: constant plus the first eight real spherical harmonics,
# evaluated through the unit-sphere embedding

def _tf_const(n1, n2, n3):
    return np.ones_like(n1)


TEST_FUNCTIONS = (
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


def quasi_invariance_residual(measure: PSMeasure, group: SchottkyGroup) -> float:
    """max over generators g and test functions f of
    |sum w f(x) - sum w s_g(x)^delta f(gx)| / (sum w |f(x)| + eps).

    The test functions act elementwise.  The atoms go RESIDUAL_BLOCK at a
    time, and every sum is exact across the blocks, so the blocking changes
    no bit."""
    lhs, scale = ([ExactSum() for _ in TEST_FUNCTIONS] for _ in range(2))
    rhs = [[ExactSum() for _ in TEST_FUNCTIONS] for _ in group.generators]
    for lo in range(0, len(measure), RESIDUAL_BLOCK):
        blk = slice(lo, lo + RESIDUAL_BLOCK)
        wts = measure.weights[blk]
        Z, W = hom_many(measure.points[blk], measure.inf_mask[blk])
        cx = sphere_embed(Z, W)[1]
        for g, g_sums in zip(group.generators, rhs):
            img, img_msk, num, den = act(g.a, g.b, g.c, g.d, Z, W)
            jac = stretch(Z, W, num, den) ** measure.delta
            cy = sphere_coords_many(img, img_msk)
            for (_, f), r_sum in zip(TEST_FUNCTIONS, g_sums):
                r_sum.add(wts * jac * f(*cy))
        for (_, f), l_sum, s_sum in zip(TEST_FUNCTIONS, lhs, scale):
            fx = f(*cx)
            l_sum.add(wts * fx)
            s_sum.add(wts * np.abs(fx))
    worst = 0.0
    for g_sums in rhs:
        for l_sum, r_sum, s_sum in zip(lhs, g_sums, scale):
            worst = max(worst, abs(l_sum.value() - r_sum.value())
                        / (s_sum.value() + RESIDUAL_EPS))
    return worst


# Hierarchical evaluation of F.  A build_ps measure stores the atom of word
# u.l at index idx(u)*(2g-1) + rank(l), so the atoms under each prefix u form
# one contiguous block inside the image disk of a defining disk under u.
# Those blocks are the nodes of the tree.  A node far from x is replaced by
# the third-order expansion of phi^-delta about its centre c, using
#   phi(x, y) = phi(x, c) - n(x).(n(y) - n(c)),
# which is exact algebra on the unit sphere: with u_i = n(x).e_i / phi(x, c),
# sum_i w_i (1 - u_i)^-delta takes the node's weight and its first, second
# and third moments of e_i = n(x_i) - n(c).  The node is accepted only when
# the fourth-order remainder, at most c4 rho^2 sum_i w_i u_i^2 where rho
# bounds |u_i|, plus the rounding of every quantity involved is at most
# rel_tol of its contribution.  The third moment lets most nodes be accepted
# one level higher than a second-order expansion would (Greengard and
# Rokhlin, J. Comput. Phys. 73, 1987): in bers --depth 8 the 12-node level
# accepts about 78% of its pairs instead of 7%, and the walk tests about
# half as many pairs.  The remaining atoms are summed with the
# homogeneous-coordinate kernel.  All error bounds are relative to the
# exact sum over the points as represented by their bounded homogeneous
# coordinates (Z, W); the rounding constants below are multiples of the unit
# roundoff _U with generous margins.  The node test runs ACCEPT_BLOCK pairs
# at a time through scratch rows, one block made per F_many call: with an
# array per formula, bers --depth 8 --samples 10000 took about 22,000 minor
# page faults per command (about 1,000 with the rows) and 0.180 s against
# 0.109 s in perfbench.

REL_TOL = 1e-13
_U = 2.0**-53
GUARD_PHI = 0.5 * ATOM_GUARD**2   # phi at chordal distance ATOM_GUARD
LEAF_ATOMS = 8                    # leaves: smallest prefix blocks this large
MAX_RHO = 2.0**-6                 # accepted nodes have all |t_i| <= MAX_RHO * phi
PAIR_BUDGET = 1 << 20             # (point, leaf) pairs one batch can reach
POINT_BATCH = 1024
LEAF_BLOCK = 1 << 14              # elements of one leaf-kernel temporary
ACCEPT_BLOCK = 1 << 13            # pairs _accept takes through its rows at once


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
    M3: np.ndarray     # (10, N): sum w_i e_i^(x3) as xxx, yyy, zzz, xxy, xxz,
                       # xyy, yyz, xzz, yzz, xyz
    R: np.ndarray      # upper bound on max |e_i|
    eta1: np.ndarray   # bound on the error of n.m1 as computed
    eta2: np.ndarray   # bound on the error of n^T M2 n as computed
    eta3: np.ndarray   # bound on the error of M3's cubic form at n as computed


def _accept_rows():
    """_accept's scratch rows, 20 float, 4 complex and 2 bool rows of
    ACCEPT_BLOCK pairs, as views of one block."""
    B = ACCEPT_BLOCK
    m = np.empty(28 * B + B // 4)
    return (m[:20 * B].reshape(20, B), m[20 * B:28 * B].view(complex).reshape(4, B),
            m[28 * B:].view(bool).reshape(2, B))


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
    wee = [we[a] * e[b] for a, b in pairs]
    M2 = np.stack([x.reshape(N, size).sum(axis=1) for x in wee])
    # M3's components as a product of M2's k-th with axis c
    triples = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
               (3, 2))
    M3 = np.stack([(wee[k] * e[c]).reshape(N, size).sum(axis=1) for k, c in triples])
    # eta_k: the error of the k-th form at n from each e_i's (at most A), from
    # the products and sums and from the form's evaluation, with margins
    eta1 = Wn * (2.0 * A + (2 * size + 16) * _U * R)
    eta2 = Wn * (3.0 * (2.0 * R + A) * A + (3 * size + 40) * _U * R * R)
    eta3 = Wn * (6.0 * (R + A) ** 2 * A + (4 * size + 64) * _U * R * R * R)
    return _Level(branch, Wn, Zc, Wc, Nc, c_small, m1, M2, M3, R, eta1, eta2, eta3)


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


def _point_arrays(points):
    """(values, inf_mask) arrays of a sequence of SpherePoints."""
    return (np.array([p.value for p in points], dtype=complex),
            np.array([p.is_infinity for p in points], dtype=bool))


def _check_regular(singular) -> None:
    if np.any(singular):
        raise SingularEvaluationError(
            "evaluation point within the atom guard distance")


@dataclass(frozen=True)
class NayataniDensity:
    """Conformal density of a PSMeasure; evaluations are pure and share only
    the tree built once from the measure's atoms."""

    measure: PSMeasure

    def __post_init__(self):
        levels, leaves = _build_tree(self.measure)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_leaves", leaves)

    def F_many(self, points, inf_mask, rel_tol: float = REL_TOL):
        """F at each point, a singular mask (point within ATOM_GUARD of an
        atom; value inf) and a certified relative error bound of each value.

        rel_tol bounds the relative error each accepted tree node may add;
        rel_tol=0 accepts none and sums every atom.  An accepted node's value
        is its third-order expansion, and its bound covers the fourth-order
        remainder and the rounding of the node's three moments, of their
        forms at the point and of the expansion.  The points are walked in
        batches, in order, and _accept's scratch rows are made once per call.
        Each value depends on its own point only, so splitting the points
        changes no bit.

        Known weakness: for a point and an atom on opposite sides of
        |z| = 1 at chordal distance r, the kernel rounds z * (1/y), so the
        bound grows like 1e-16/r (5e-7 at r = 1e-9).  Atoms of the standard
        group all have |z| >= 1.5 and never meet this.
        """
        pts = np.asarray(points, dtype=complex)
        inf = np.asarray(inf_mask, dtype=bool).ravel()
        Z, W = hom_many(pts.ravel(), inf)
        vals = np.empty(Z.size)
        singular = np.empty(Z.size, dtype=bool)
        rel_err = np.empty(Z.size)
        rows = _accept_rows()
        n_leaves = self._leaves.w.shape[0]
        batch = max(1, min(POINT_BATCH, PAIR_BUDGET // n_leaves))
        for lo in range(0, Z.size, batch):
            hi = lo + batch
            vals[lo:hi], singular[lo:hi], rel_err[lo:hi] = self._walk(
                Z[lo:hi], W[lo:hi], inf[lo:hi], rel_tol, rows)
        return (vals.reshape(pts.shape), singular.reshape(pts.shape),
                rel_err.reshape(pts.shape))

    def _walk(self, Z, W, inf, rel_tol, rows):
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
                hit, val, e, pi, nj = self._accept(lv, pi, nj, pt, rel_tol, rows)
                total += np.bincount(hit, val, n)
                err += np.bincount(hit, e, n)
                count += np.bincount(hit, minlength=n)
            b = lv.branch
            pi, nj = np.repeat(pi, b), (nj[:, None] * b + np.arange(b)).ravel()
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

    def _accept(self, lv: _Level, pi, nj, pt, rel_tol, rows):
        """The accepted pairs as (points, expansion values, absolute error
        bounds), then the others as (pi, nj).  The pairs go ACCEPT_BLOCK at a
        time through the scratch rows, each formula written in place under
        its text in the text's order (numpy rounds the complex a * b and
        b * a apart), but no complex product over its own operands (numpy
        rounds one of a single element without FMA), so the bits are those
        of the text however many pairs come."""
        Z, W, nsq, nvec, small, inf = pt
        d = self.measure.delta
        mul, div, add, sub, sq = np.multiply, np.divide, np.add, np.subtract, np.square

        def tk(a, i, out):
            return a.take(i, out=out, mode="wrap")  # "raise" would copy out

        # (1 - u)^-d = 1 + d u + d(d+1)/2 u^2 + d(d+1)(d+2)/6 u^3 + R4 with
        # |R4| <= c4 rho^2 u^2 for |u| <= rho <= MAX_RHO, and
        # sum w_i u_i^2 = q / phi0^2
        c4 = (d * (d + 1.0) * (d + 2.0) * (d + 3.0) / 24.0
              * (1.0 - MAX_RHO) ** (-d - 4.0))
        hit, kpi, knj = (np.empty(pi.size, dtype=np.intp) for _ in range(3))
        val, bnd = np.empty(pi.size), np.empty(pi.size)
        rf, rc, rb = rows
        na = nk = 0
        for lo in range(0, pi.size, ACCEPT_BLOCK):
            p, j = pi[lo:lo + ACCEPT_BLOCK], nj[lo:lo + ACCEPT_BLOCK]
            (phi0, c2, eps, phi_lo, R, t, rho, n1, n2, n3, a, q, T, Wn, eta2, pl2,
             bound, t0, t1, t2) = rf[:, :p.size]
            (dz, z0, z1, z2), (ok, b0) = rc[:, :p.size], rb[:, :p.size]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # dz = take(Z, pi) * take(lv.Wc, nj) - take(lv.Zc, nj) * take(W, pi)
                mul(tk(Z, p, z0), tk(lv.Wc, j, z1), dz)
                sub(dz, mul(tk(lv.Zc, j, z0), tk(W, p, z1), z2), dz)
                # c2 = dz.real**2 + dz.imag**2
                # phi0 = 2.0 * c2 / (take(nsq, pi) * take(lv.Nc, nj))
                add(sq(dz.real, c2), sq(dz.imag, t0), c2)
                div(mul(2.0, c2, phi0), mul(tk(nsq, p, t0), tk(lv.Nc, j, t1), t0), phi0)
                # relative rounding of phi0; a product across charts is inexact
                # cross = (take(small, pi) != take(lv.small, nj)) & ~take(inf, pi)
                # eps = _U * (12.0 + 5.0 * cross / np.sqrt(c2))
                np.not_equal(tk(small, p, ok), tk(lv.small, j, b0), ok)
                ok &= np.invert(tk(inf, p, b0), b0)
                mul(_U, add(12.0, div(mul(5.0, ok, eps), np.sqrt(c2, t0), eps), eps), eps)
                # phi_lo = phi0 * (1.0 - eps); R = take(lv.R, nj)
                # |t_i| <= min(|e_i|, |n(x) - n(c)| |e_i| + |e_i|^2 / 2)
                # t = np.minimum(R, np.sqrt(2.0 * phi0 * (1.0 + eps)) * R + 0.5 * R * R)
                # rho = t * (1.0 + 8.0 * _U) / phi_lo
                mul(phi0, sub(1.0, eps, phi_lo), phi_lo)
                mul(np.sqrt(mul(mul(2.0, phi0, t), add(1.0, eps, t0), t), t), tk(lv.R, j, R), t)
                np.minimum(R, add(t, mul(mul(0.5, R, t0), R, t0), t), out=t)
                div(mul(t, 1.0 + 8.0 * _U, rho), phi_lo, rho)
                # n1, n2, n3 = take(nvec, pi, axis=1); with m1, M2, M3 =
                # (take(m, nj, axis=1) for m in (lv.m1, lv.M2, lv.M3)):
                # a = n1 * m1[0] + n2 * m1[1] + n3 * m1[2]
                # q = (n1 * (n1 * M2[0] + 2.0 * (n2 * M2[3] + n3 * M2[4]))
                #      + n2 * (n2 * M2[1] + 2.0 * n3 * M2[5]) + n3 * n3 * M2[2])
                n1, n2, n3 = (tk(r, p, o) for r, o in zip(nvec, (n1, n2, n3)))
                m1, M2, M3 = lv.m1, lv.M2, lv.M3
                add(mul(n1, tk(m1[0], j, a), a), mul(n2, tk(m1[1], j, t0), t0), a)
                add(a, mul(n3, tk(m1[2], j, t0), t0), a)
                add(mul(n2, tk(M2[3], j, t0), t0), mul(n3, tk(M2[4], j, t1), t1), t0)
                mul(n1, add(mul(n1, tk(M2[0], j, t1), t1), mul(2.0, t0, t0), t1), q)
                add(mul(n2, tk(M2[1], j, t0), t0),
                    mul(mul(2.0, n3, t1), tk(M2[5], j, t2), t1), t0)
                add(q, mul(n2, t0, t0), q)
                add(q, mul(mul(n3, n3, t0), tk(M2[2], j, t1), t0), q)
                # T = (n1 * (n1 * (n1 * M3[0] + 3.0 * (n2 * M3[3] + n3 * M3[4]))
                #            + 3.0 * (n2 * (n2 * M3[5] + 2.0 * n3 * M3[9])
                #                     + n3 * n3 * M3[7]))
                #      + n2 * (n2 * (n2 * M3[1] + 3.0 * n3 * M3[6])
                #              + 3.0 * n3 * n3 * M3[8])
                #      + n3 * n3 * n3 * M3[2])
                add(mul(n2, tk(M3[3], j, t0), t0), mul(n3, tk(M3[4], j, t1), t1), t0)
                add(mul(n1, tk(M3[0], j, t1), t1), mul(3.0, t0, t0), t0)
                mul(n1, t0, T)
                add(mul(n2, tk(M3[5], j, t0), t0),
                    mul(mul(2.0, n3, t1), tk(M3[9], j, t2), t1), t0)
                mul(n2, t0, t0)
                add(t0, mul(mul(n3, n3, t1), tk(M3[7], j, t2), t1), t0)
                mul(n1, add(T, mul(3.0, t0, t0), T), T)
                add(mul(n2, tk(M3[1], j, t0), t0),
                    mul(mul(3.0, n3, t1), tk(M3[6], j, t2), t1), t0)
                mul(n2, t0, t0)
                add(t0, mul(mul(mul(3.0, n3, t1), n3, t1), tk(M3[8], j, t2), t1), t0)
                add(T, mul(n2, t0, t0), T)
                add(T, mul(mul(mul(n3, n3, t0), n3, t0), tk(M3[2], j, t1), t0), T)
                # trunc = c4 * rho * rho * (np.maximum(q, 0.0) + eta2) / phi_lo**2
                # mom = (d * eta1 / phi_lo + 0.5 * d * (d + 1.0) * eta2 / phi_lo**2
                #        + d * (d + 1.0) * (d + 2.0) / 6.0 * eta3
                #        / (phi_lo**2 * phi_lo))
                # bound = trunc + mom + Wn * ((d + 2.0) * eps + 16.0 * _U)
                # with Wn, eta1, eta2, eta3 = take(lv.W, nj), take(lv.eta1, nj),
                # take(lv.eta2, nj), take(lv.eta3, nj)
                tk(lv.eta2, j, eta2)
                sq(phi_lo, pl2)
                div(mul(mul(mul(c4, rho, t0), rho, t0),
                        add(np.maximum(q, 0.0, out=t1), eta2, t1), t0), pl2, t0)
                add(div(mul(d, tk(lv.eta1, j, t1), t1), phi_lo, t1),
                    div(mul(0.5 * d * (d + 1.0), eta2, t2), pl2, t2), t1)
                div(mul(d * (d + 1.0) * (d + 2.0) / 6.0, tk(lv.eta3, j, t2), t2),
                    mul(pl2, phi_lo, bound), t2)
                add(t1, t2, t1)
                add(add(t0, t1, bound),
                    mul(tk(lv.W, j, Wn), add(mul(d + 2.0, eps, t2), 16.0 * _U, t2), t2),
                    bound)
                # the node's contribution is at least W phi0^-d (1 + rho)^-d
                # ok = ((eps <= 1e-3) & (rho <= MAX_RHO)
                #       & (phi_lo * (1.0 - rho) > GUARD_PHI)
                #       & (bound * (1.0 + MAX_RHO) ** d <= rel_tol * Wn))
                np.less_equal(eps, 1e-3, ok)
                ok &= np.less_equal(rho, MAX_RHO, b0)
                ok &= np.greater(mul(phi_lo, sub(1.0, rho, t0), t0), GUARD_PHI, b0)
                ok &= np.less_equal(mul(bound, (1.0 + MAX_RHO) ** d, t0),
                                    mul(rel_tol, Wn, t1), b0)
            acc, rest = np.flatnonzero(ok), np.flatnonzero(~ok)
            span, na = slice(na, na + acc.size), na + acc.size
            tk(p, acc, hit[span])
            tk(p, rest, kpi[nk:nk + rest.size])
            tk(j, rest, knj[nk:nk + rest.size])
            nk += rest.size
            # phi0 = phi0[ok]; P = phi0**-d; e = bound[ok] * P
            # val = P * (Wn[ok] + d / phi0 * (a[ok] + 0.5 * (d + 1.0)
            #       * (q[ok] + (d + 2.0) / 3.0 * T[ok] / phi0) / phi0))
            ph, P = tk(phi0, acc, t0[:acc.size]), t1[:acc.size]
            P[...] = ph
            P **= -d
            mul(tk(bound, acc, t2[:acc.size]), P, bnd[span])
            x, y = tk(T, acc, t2[:acc.size]), tk(q, acc, c2[:acc.size])
            add(y, div(mul((d + 2.0) / 3.0, x, x), ph, x), y)
            x = tk(a, acc, x)
            add(x, div(mul(0.5 * (d + 1.0), y, y), ph, y), y)
            mul(div(d, ph, x), y, y)
            mul(P, add(tk(Wn, acc, x), y, x), val[span])
        return hit[:na], val[:na], bnd[:na], kpi[:nk], knj[:nk]

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
class ConformalityReport:
    max_rel_deviation: float
    residual: float
    constant: float
    n_points: int


def conformality_report(density: NayataniDensity, group: SchottkyGroup,
                        n_points: int = 50, seed: int = 0) -> ConformalityReport:
    """Checks F(gx) * s_g(x)^delta = F(x) at the points of
    fundamental_domain_samples(group, n_points, seed); reports the worst
    relative deviation and its ratio to the measure residual."""
    xs = fundamental_domain_samples(group, n_points, seed)
    fxs, singular, _ = density.F_many(*_point_arrays(xs))
    _check_regular(singular)
    worst = 0.0
    d = density.measure.delta
    for g in group.generators:
        fgx, singular, _ = density.F_many(*_point_arrays([g.apply(x) for x in xs]))
        _check_regular(singular)
        for x, fx, f in zip(xs, fxs.tolist(), fgx.tolist()):
            rel = abs(f * g.spherical_derivative(x) ** d - fx) / fx
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
    """Inverse of write_measure_csv.  Malformed content raises MeasureError
    naming the line; a file that cannot be opened raises OSError."""
    with open(path, "rb") as f:  # float() and json take ASCII bytes
        lineno = 1
        try:
            first = f.readline()
            if not first.startswith(b"# "):
                raise MeasureError("missing JSON header line")
            header = json.loads(first[2:])
            bp = header["basepoint"]
            basepoint = INF if bp == "inf" else SpherePoint(complex(bp[0], bp[1]))
            delta, depth = float(header["delta"]), int(header["depth"])
            lineno = 2
            cols = f.readline().strip()
            if cols != b"re,im,weight":
                raise MeasureError(f"unexpected column line {cols!r}")
            pts, msk, wts = [], [], []
            for lineno, line in enumerate(f, start=3):
                line = line.strip()
                if not line:
                    continue
                re_s, im_s, w_s = line.split(b",")
                re_v, im_v = float(re_s), float(im_s)
                if re_v == im_v == math.inf:
                    pts.append(0j)
                    msk.append(True)
                elif math.isfinite(re_v) and math.isfinite(im_v):
                    pts.append(complex(re_v, im_v))
                    msk.append(False)
                else:  # named below with its line
                    raise ValueError("a point is two finite coordinates or "
                                     f"inf,inf, got {re_v!r},{im_v!r}")
                wts.append(float(w_s))
        except KeyError as e:
            raise MeasureError(f"line 1: header lacks {e}") from None
        except (TypeError, ValueError, IndexError) as e:
            raise MeasureError(f"line {lineno}: {e}") from None
    return PSMeasure(np.array(pts, dtype=complex), np.array(msk, dtype=bool),
                     np.array(wts, dtype=float), delta, depth, basepoint)
