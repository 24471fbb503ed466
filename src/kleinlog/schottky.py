"""Schottky groups: validation, word and orbit enumeration, limit-set sampling,
fundamental-domain reduction, Nielsen moves, and the critical exponent from
the dynamical determinant.

Generator i pairs the circles stored at indices 2(i-1) and 2(i-1)+1: it maps
the exterior of the first onto the interior of the second.  Letters are the
signed integers +-1..+-g ordered (1, -1, 2, -2, ...); words are tuples of
letters with the leftmost letter outermost, i.e. word (l1, l2) acts as
m(l1) o m(l2).

Words are enumerated once, by SchottkyGroup._walk: shell by shell, it
applies each letter's matrix to the homogeneous images of the shorter
words, so the new letter goes in front.  Every consumer walks points
through it: series evaluation its point, measures and convergence reports
the basepoint, limit_set the generators' fixed points, and the word
matrices, whose columns are the images of infinity and 0, come from the
walk of those two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._vec import FSUM_BLOCK, fsum, project, stretch, uniform_sphere_points
from .moebius import (
    INF,
    MoebiusMap,
    NotLoxodromicError,
    SpherePoint,
    _homogeneous,
    as_sphere_point,
    chordal,
)

MAX_WORDS = 4_000_000
# the walk grows a shell of up to twice this many words whole, unless it
# is the deepest, and a longer one from the last whole shell; which shells
# are whole fixes the prefix every word is grown with, and so its bits
EVAL_CHUNK = 65536
PAIRING_RESIDUAL_TOL = 1e-9
DELTA_MAX_ORDER = 10      # estimate_delta's default order cap
DELTA_GRID = 16           # cells of [0, 2] scanned for the largest root
SAMPLE_MARGIN = 0.05      # fundamental_domain_samples' distance from the disks


class SchottkyError(ValueError):
    """Structural problem with a Schottky group or one of its operations."""


class ValidationFailure(SchottkyError):
    """Construction rejected; carries the full validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


class EstimationError(SchottkyError):
    """Critical-exponent estimation failed; the message names the orders."""


class ShellOverflowError(SchottkyError):
    """The homogeneous coordinates of a walk left the floating-point range;
    `length`, named in the message, is the shortest word length where they
    did."""

    def __init__(self, length: int):
        super().__init__(f"orbit coordinates overflow at length {length}")
        self.length = length


@dataclass(frozen=True)
class Circle:
    """A Euclidean circle bounding a defining disk."""

    center: complex
    radius: float

    def __post_init__(self):
        c = complex(self.center)
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"circle radius must be positive, got {self.radius!r}")
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("circle center must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    def contains(self, z, closed: bool = True) -> bool:
        """Euclidean disk membership; the point at infinity is never inside."""
        p = as_sphere_point(z)
        if p.is_infinity:
            return False
        d = abs(p.value - self.center)
        return d <= self.radius if closed else d < self.radius

    def boundary_point(self, angle: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * angle)


def pairing_map(source: Circle, target: Circle) -> MoebiusMap:
    """The canonical Moebius map sending the exterior of `source` onto the
    interior of `target`: z -> c2 + r1*r2/(z - c1)."""
    c1, r1 = source.center, source.radius
    c2, r2 = target.center, target.radius
    return MoebiusMap(c2, r1 * r2 - c1 * c2, 1.0, -c1)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Word:
    """A reduced word with its composed map."""

    letters: tuple[int, ...]
    map: MoebiusMap

    @property
    def length(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class DeltaEstimate:
    """The critical exponent as delta_N, the root of the order-N dynamical
    determinant.  bracket is delta_N +- max(|delta_N - delta_{N-2}|, 1 ulp),
    cut off at 0: an estimate of the error, not a proven bound.  orders
    holds (N, delta_N) for every even order computed."""

    delta: float
    bracket: tuple[float, float]
    orders: tuple[tuple[int, float], ...]
    max_depth: int


@dataclass(frozen=True)
class LimitSetSample:
    """Limit-set points obtained by propagating fixed-point seeds."""

    points: tuple[SpherePoint, ...]
    depth: int
    provenance: tuple[tuple[int, SpherePoint], ...]
    first_letters: tuple[int, ...]


class Orbit(NamedTuple):
    """Images of points under consecutive words of one shell, in
    enumeration order, as homogeneous coordinates num/den, and the words'
    first and last letters (0 for the empty word): one point's images in an
    Orbit from orbits(), k rows of num and den in a piece of a walk of k
    points.  A piece in _walk's two regions is valid only until the next
    piece is taken."""

    num: np.ndarray
    den: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _orbit_size(k: int, size: int) -> int:
    """Complex elements of an Orbit of k points and `size` words."""
    return 2 * k * size + (size + 1) // 2


def _orbit_block(k: int, size: int, region=None) -> Orbit:
    """An Orbit of k points and `size` words to fill: 2k complex rows of num
    and den, then the letters as int32 in the bytes of (size + 1) // 2 more
    complex elements, 32k + 8 bytes a word, at the start of `region`, one of
    _walk's two regions (see _walk), or in fresh ones if it is None."""
    rows = 2 * k * size
    block = np.empty(_orbit_size(k, size), dtype=complex) if region is None else region
    num_den = block[:rows].reshape(2 * k, size)
    return Orbit(num_den[:k], num_den[k:],
                 *block[rows:].view(np.int32)[:2 * size].reshape(2, size))


def _isometric_pair(g: MoebiusMap):
    """The isometric circles of g and of its inverse, or None when g nearly
    fixes infinity (|c| < 1e-9; g's inverse has the same |c|)."""
    if abs(g.c) < 1e-9:
        return None
    gi = g.inverse()
    return (Circle(-g.d / g.c, 1.0 / abs(g.c)),
            Circle(-gi.d / gi.c, 1.0 / abs(gi.c)))


class SchottkyGroup:
    """Immutable marked Schottky group of rank g >= 0.

    Rank 0 is the trivial group (identity only), useful as a series edge case.
    Groups whose generators fix infinity are only accepted with
    cyclic_diagnostic=True and carry no defining circles.
    """

    def __init__(self, generators, circles=None, *, cyclic_diagnostic=False,
                 require_classical=True):
        self.generators = tuple(generators)
        if not all(isinstance(g, MoebiusMap) for g in self.generators):
            raise TypeError("generators must be MoebiusMap instances")
        self.rank = len(self.generators)
        self.cyclic_diagnostic = bool(cyclic_diagnostic)
        self._maps = {s * i: g if s > 0 else g.inverse()
                      for i, g in enumerate(self.generators, 1) for s in (1, -1)}
        self.letters = tuple(self._maps)

        if circles is not None:
            circles = tuple(
                c if isinstance(c, Circle) else Circle(*c) for c in circles
            )
            if len(circles) != 2 * self.rank:
                raise SchottkyError(
                    f"expected {2 * self.rank} circles, got {len(circles)}"
                )
            self.circles = circles
        elif self.cyclic_diagnostic:
            self.circles = None
        else:
            self.circles = self._isometric_circles()

        self.validation = self.validate()
        if require_classical and not self.cyclic_diagnostic and not self.validation.ok:
            raise ValidationFailure(self.validation)

    # structure ---------------------------------------------------------------

    def letter_map(self, letter: int) -> MoebiusMap:
        try:
            return self._maps[letter]
        except KeyError:
            raise SchottkyError(f"letter {letter} out of range for rank {self.rank}")

    def target_circle(self, letter: int) -> Circle:
        """The disk that images of words starting with `letter` land in."""
        if self.circles is None:
            raise SchottkyError("group has no defining circles")
        i = abs(letter) - 1
        return self.circles[2 * i + 1] if letter > 0 else self.circles[2 * i]

    def _isometric_circles(self):
        out = []
        for i, g in enumerate(self.generators, start=1):
            pair = _isometric_pair(g)
            if pair is None:
                raise ValidationFailure(ValidationReport((
                    f"generator {i} fixes infinity (c ~ 0): isometric circle undefined, "
                    "infinity would lie inside a defining disk",
                )))
            out.extend(pair)
        return tuple(out)

    def validate(self) -> ValidationReport:
        """Re-check loxodromy, disk disjointness, and boundary pairing."""
        violations = []
        for i, g in enumerate(self.generators, start=1):
            kind = g.classify()
            if kind != "loxodromic":
                violations.append(f"generator {i} is {kind}, not loxodromic")
        if self.circles is None:
            if self.rank > 0:
                violations.append("no defining circles (diagnostic mode)")
            return ValidationReport(tuple(violations))
        n = len(self.circles)
        for a in range(n):
            for b in range(a + 1, n):
                ca, cb = self.circles[a], self.circles[b]
                gap = abs(ca.center - cb.center) - (ca.radius + cb.radius)
                if gap <= 1e-9:
                    violations.append(
                        f"disks {a} and {b} overlap or touch "
                        f"(separation {gap:.3e})"
                    )
        for i, g in enumerate(self.generators, start=1):
            src = self.circles[2 * (i - 1)]
            tgt = self.circles[2 * (i - 1) + 1]
            worst = 0.0
            for k in range(16):
                img = g.apply(src.boundary_point(2.0 * math.pi * k / 16))
                if img.is_infinity:
                    worst = math.inf
                    break
                ray = img.value - tgt.center
                r = abs(ray)
                nearest = tgt.center + (tgt.radius * ray / r if r > 0 else tgt.radius)
                worst = max(worst, chordal(img, nearest))
            if worst >= PAIRING_RESIDUAL_TOL:
                violations.append(
                    f"generator {i} does not map circle {2 * (i - 1)} onto "
                    f"circle {2 * (i - 1) + 1} (chordal residual {worst:.3e})"
                )
            probe = g.apply(src.center + 3.0 * src.radius)
            if not tgt.contains(probe):
                violations.append(
                    f"generator {i} maps an exterior point of circle {2 * (i - 1)} "
                    f"outside its partner disk {2 * (i - 1) + 1}"
                )
        return ValidationReport(tuple(violations))

    def default_basepoint(self) -> SpherePoint:
        """Infinity, except for diagnostic groups where a generic finite point
        clear of all generator fixed points is chosen deterministically."""
        if not self.cyclic_diagnostic:
            return INF
        fixed = []
        for g in self.generators:
            try:
                fp = g.fixed_points_multiplier()
                fixed.extend([fp.fix_attracting, fp.fix_repelling])
            except NotLoxodromicError:
                pass
        candidates = [1 + 0j, 1j, 0.6 + 0.35j, -0.8 + 0.55j, 2.1 - 1.3j, 0.2 - 1.7j]
        best, best_d = candidates[0], -1.0
        for cand in candidates:
            d = min((chordal(cand, f) for f in fixed), default=2.0)
            if d > best_d:
                best, best_d = cand, d
        return SpherePoint(best)

    # word enumeration --------------------------------------------------------

    def word_from_letters(self, letters) -> Word:
        letters = tuple(int(l) for l in letters)
        if any(a == -b for a, b in zip(letters, letters[1:])):
            raise SchottkyError(f"letters {letters} are not reduced")
        m = MoebiusMap.identity()
        for l in letters:
            m = m.compose(self.letter_map(l))
        return Word(letters, m)

    def enumerate_words(self, max_len: int):
        """All reduced words of length <= max_len, by shell, lexicographic
        within a shell in the letter order (1, -1, 2, -2, ...)."""
        if max_len < 0:
            raise SchottkyError("max_len must be >= 0")
        shell = [Word((), MoebiusMap.identity())]
        yield shell[0]
        for _ in range(max_len):
            nxt = []
            for w in shell:
                last = w.letters[-1] if w.letters else 0
                for l in self.letters:
                    if l == -last:
                        continue
                    m = w.map.compose(self.letter_map(l))
                    nxt.append(Word(w.letters + (l,), m))
            yield from nxt
            shell = nxt

    def shell_size(self, n: int) -> int:
        if n == 0:
            return 1
        return 2 * self.rank * (2 * self.rank - 1) ** (n - 1)

    # vectorized shell machinery ----------------------------------------------

    def fits_depth(self, depth: int) -> bool:
        """Whether the shells through `depth` hold at most MAX_WORDS words."""
        # past 64 shells only rank 1, at two words a shell, can still fit
        words = 1 + 2 * depth if self.rank == 1 else sum(
            self.shell_size(n) for n in range(min(depth, 64) + 1))
        return words <= MAX_WORDS

    def check_depth(self, depth: int) -> None:
        """Refuse, before any work, shells through `depth` that would hold
        more than MAX_WORDS words."""
        if not self.fits_depth(depth):
            raise SchottkyError(f"shells through length {depth} would exceed "
                                f"{MAX_WORDS} words")

    def shell_matrices(self, n: int) -> np.ndarray:
        """The matrices of the length-n words in enumeration order, shape
        (count, 2, 2): their columns are the images of infinity (1, 0) and
        of 0 (0, 1), walked together."""
        if n == 0 or self.rank == 0:
            return np.eye(2, dtype=complex)[None].repeat(self.shell_size(n), axis=0)
        num, den, _, _ = self._shell(np.eye(2), n)
        return np.stack([num.T, den.T], axis=1)

    def orbits(self, zs, depth: int):
        """Yield, for each of zs in turn, an iterator of (n, piece) over the
        images of z under the words of lengths 1..depth, shell by shell,
        each piece an Orbit of z alone, valid until the next is taken: every
        point's walk writes to the same two regions of one block (see
        _walk).  Fresh arrays, or two regions apart, would be returned to
        the system and faulted back in (29,000 minor faults a `series
        automorphy` command, against 900)."""
        self.check_depth(depth)
        words, top_n = [0, 0], 0  # of each region, as _walk fills them
        for n in range(1, depth + 1):
            size, whole, r = self.shell_size(n), self._is_whole(n, depth), (top_n + 1) % 2
            words[r] = max(words[r], size if whole else min(size, FSUM_BLOCK))
            top_n = n if whole else top_n
        cut = _orbit_size(1, words[0])
        block = np.empty(cut + _orbit_size(1, words[1]), dtype=complex)
        for z in zs:
            walk = self._walk([_homogeneous(as_sphere_point(z))], depth,
                              (block[:cut], block[cut:]))
            yield ((n, Orbit(piece.num[0], piece.den[0], *piece[2:]))
                   for n, piece in walk)

    def _shell(self, starts, n: int):
        """num, den, first and last of the walk of `starts` at length n,
        joined from its pieces."""
        pieces = [piece for m, piece in self._walk(starts, n) if m == n]
        return [np.concatenate(a, axis=-1) for a in zip(*pieces)]

    def _is_whole(self, n: int, depth: int) -> bool:
        """Whether a walk to `depth` grows shell n whole (see _walk); the
        trivial group's shells beyond the empty word are empty, never whole."""
        return n < depth and 0 < self.shell_size(n) <= 2 * EVAL_CHUNK

    def _walk(self, starts, depth: int, regions=None):
        """Yield (n, piece) over the images of the k homogeneous points
        `starts` (pairs (Z, W)) under the words of lengths 1..depth, shell
        by shell.  A piece is an Orbit whose num and den hold one row per
        point.

        The words of shell n that start with letter l are l followed by the
        words of shell n - 1 that do not start with -l, in order, so their
        images are M_l applied to those words' images: one Moebius step per
        word and point, the depth-first walk of Mumford, Series and Wright,
        Indra's Pearls (2002), ch. 5.  Shells of at most 2 * EVAL_CHUNK words
        but the deepest are grown whole, each from the one before.  The
        deepest and every longer shell come in pieces of FSUM_BLOCK rows,
        which no shell grows from, their rows with prefix p being M_p
        applied to rows of the last whole shell, the prefixes of each length
        enumerated once a walk.  Pieces are fresh arrays
        if `regions` is None, else written to one of that pair of 1-d
        complex arrays (see _orbit_block): whole shell n to region n % 2,
        and deeper pieces, one over the other, to the region the last whole
        shell is not in.  So a piece is valid only until the next is taken.
        ShellOverflowError names the first length whose coordinates leave
        the floating-point range."""
        self.check_depth(depth)
        k = len(starts)
        top, top_n = _orbit_block(k, 1), 0
        top.num[:, 0], top.den[:, 0] = np.transpose(starts)
        top.first[0], top.last[0] = 0, 0
        prefixes = cache(lambda j: [w for w in self.enumerate_words(j) if w.length == j])
        for n in range(1, depth + 1):
            size = self.shell_size(n)
            whole = self._is_whole(n, depth)
            step = size if whole else FSUM_BLOCK
            j = n - top_n
            region = None if regions is None else regions[(top_n + 1) % 2]
            for lo in range(0, size, step):
                out = _orbit_block(k, min(lo + step, size) - lo, region)
                piece = self._grow(top, prefixes(j), lo, out)
                if not (np.isfinite(piece.num).all() and np.isfinite(piece.den).all()):
                    raise ShellOverflowError(n)
                yield n, piece
            if whole:
                top, top_n = piece, n

    def _grow(self, top: Orbit, prefixes, lo: int, out: Orbit) -> Orbit:
        """Rows lo.. of the shell j letters longer than the whole shell
        `top`, written to `out`.  The rows with prefix p, one of `prefixes`,
        the reduced words of length j in enumeration order, are p's map
        applied to the rows of top that do not start with the inverse of
        p's last letter."""
        hi = lo + out.first.size
        # top's rows that start with one letter are a run of `run` rows, in
        # letter order; the empty word starts with none
        run = top.first.size // len(self.letters) if top.first[0] else 0
        width = top.first.size - run
        for q in range(lo // width, (hi - 1) // width + 1):
            p, m = prefixes[q].letters, prefixes[q].map
            skip = self.letters.index(-p[-1]) * run
            # the prefix's rows x..x1 - 1 (of width) are top's rows x + shift
            for x, x1, shift in ((0, skip, 0), (skip, width, run)):
                x, x1 = max(x, lo - q * width), min(x1, hi - q * width)
                if x >= x1:
                    continue
                rows, dst = slice(x + shift, x1 + shift), slice(q * width + x - lo,
                                                               q * width + x1 - lo)
                # act's num and den for every point at once, written in
                # place; _walk reports what overflows
                num, den = out.num[:, dst], out.den[:, dst]
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(m.a, top.num[:, rows], out=num)
                    num += m.b * top.den[:, rows]
                    np.multiply(m.c, top.num[:, rows], out=den)
                    den += m.d * top.den[:, rows]
                out.first[dst] = p[0]
                out.last[dst] = top.last[rows] if run else p[-1]
        return out

    def shell_terms(self, orbit: Orbit, z, mode: str = "absolute",
                    points=None, inf_mask=None):
        """Orbit points and derivative weights at z of the words whose
        images of z `orbit`, a piece of orbits(), holds.

        Returns (points, inf_mask, weights): the images (see project), into
        `points` and `inf_mask` if they are given, and complex gamma'(z) in
        holomorphic mode or real spherical factors in absolute mode.
        """
        p = as_sphere_point(z)
        zz, ww = _homogeneous(p)
        num, den = orbit.num, orbit.den
        if mode == "holomorphic":
            if p.is_infinity:
                raise SchottkyError("holomorphic weights require a finite basepoint")
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # gamma'(z) = 1/(c z + d)^2 for a det-1 matrix, and
                # den = (c z + d) W
                w = den * (1.0 / ww)
                sq = w * w
                weights = 1.0 / sq
                # w * w overflows at |z| above about 1e150 where (1/w)**2
                # stays finite; it rounds differently, so only there
                big = ~np.isfinite(sq)
                weights[big] = (1.0 / w[big]) ** 2
            if not np.all(np.isfinite(weights)):  # MoebiusMap.derivative's PoleError
                raise SchottkyError("holomorphic weight at an orbit pole or overflowing "
                                    f"at z = {p.value!r}")
        elif mode == "absolute":
            weights = stretch(zz, ww, num, den)
        else:
            raise SchottkyError(f"unknown weight mode {mode!r}")
        return (*project(num, den, points, inf_mask), weights)

    def shell_log_derivatives(self, max_depth: int, basepoint=None) -> list[np.ndarray]:
        """log of the spherical derivative of every shell word at the basepoint,
        for shells 1..max_depth, from the walk of the basepoint.  Where the
        derivative's denominator |num|^2 + |den|^2 overflows (coordinates
        past about 1e154), the log is taken of num and den scaled by the
        larger of their moduli."""
        bp = self.default_basepoint() if basepoint is None else as_sphere_point(basepoint)
        zz, ww = _homogeneous(bp)
        # the trivial group's shells have no piece and join to empty arrays
        out = [[np.empty(0)] for _ in range(max_depth + 1)]
        for n, piece in self._walk([(zz, ww)], max_depth):
            num, den = piece.num[0], piece.den[0]
            with np.errstate(divide="ignore"):
                logd = np.log(stretch(zz, ww, num, den))
            big = ~np.isfinite(logd)
            top = np.maximum(abs(num[big]), abs(den[big]))
            logd[big] = np.log(abs(zz) ** 2 + abs(ww) ** 2) - (2.0 * np.log(top) + np.log(
                abs(num[big] / top) ** 2 + abs(den[big] / top) ** 2))
            out[n].append(logd)
        return [np.concatenate(parts) for parts in out[1:]]


def power_sum(logd: np.ndarray, s: float) -> float:
    """The correctly rounded sum of exp(s * logd): at s = 0 the count of
    terms, also where a log is infinite."""
    return float(logd.size) if s == 0.0 else fsum(np.exp(s * logd))


def _multipliers(piece: Orbit):
    """log|k_w| and 1/|1 - k_w|^2 over the cyclically reduced words w of
    `piece`, a piece of the walk of infinity and 0, those whose last letter
    does not cancel the first; k_w = lambda_w^-2 is w's multiplier at its
    attracting fixed point, lambda_w the larger root of lambda^2 - T lambda
    + 1, T = tr w = a + d: a is the first coordinate of infinity's image
    (a, c), d the second of 0's image (b, d)."""
    keep = piece.last != -piece.first
    # 1/lambda_w = u / (1 + sqrt(1 - u^2)) with u = 2/T: the principal root
    # has a nonnegative real part, so 1 + sqrt does not cancel, and a large
    # trace does not overflow
    u = 2.0 / (piece.num[0, keep] + piece.den[1, keep])
    mu = u / (1.0 + np.sqrt(1.0 - u * u))
    # a word that is not loxodromic (mu^2 = 1 or T = 0) or whose trace
    # overflows gives a non-finite term, which estimate_delta reports
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.log(np.abs(mu)), 1.0 / np.abs(1.0 - mu * mu) ** 2


def _multiplier_shells(group: SchottkyGroup, max_depth: int):
    """_multipliers of shells 1..max_depth in order, from one walk of
    infinity and 0, each joined from its pieces once its last piece is in."""
    parts, words = [], 0
    for n, piece in group._walk(np.eye(2), max_depth):
        parts.append(_multipliers(piece))
        words += piece.first.size
        if words == group.shell_size(n):
            yield tuple(map(np.concatenate, zip(*parts)))
            parts, words = [], 0


def _trace(shell, s: float, total=fsum) -> float:
    """a_n(s) = sum_w |k_w|^s / |1 - k_w|^2 over `shell`, the _multipliers
    of shell n, summed by `total`."""
    return total(np.exp(s * shell[0]) * shell[1])


def _determinant(a, c) -> float:
    """sum_{n<=N} c_n, N = len(a), where n c_n = -sum_{k<=n} a_k c_{n-k}
    for the traces a_n of shells 1..N; `c` holds c_0.. from a prefix of a
    and is extended in place."""
    for n in range(len(c), len(a) + 1):
        c.append(-fsum([a[k - 1] * c[n - k] for k in range(1, n + 1)]) / n)
    return fsum(c)


def _root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """The root of f between lo and hi, where f changes sign (flo = f(lo),
    fhi = f(hi)), by the Illinois variant of regula falsi.  It stops when
    the next point rounds to an end of the bracket, and returns that end."""
    side = 0
    while True:
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if not lo < x < hi:
            return min(max(x, lo), hi)
        fx = f(x)
        # an end kept twice in a row has its value halved
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = x, fx
            if side > 0:
                flo *= 0.5
            side = 1


def _largest_root(f, scan):
    """The largest root of f on [0, 2], or None if it keeps its sign on the
    grid of DELTA_GRID cells.  `scan`, a cheaper f, is evaluated down from 2
    to the first cell where it changes sign, and _root refines the root
    there with f."""
    hi, fhi = 2.0, scan(2.0)
    for k in range(DELTA_GRID - 1, -1, -1):
        lo = 2.0 * k / DELTA_GRID
        flo = scan(lo)
        if (flo > 0.0) != (fhi > 0.0):
            return _root(f, lo, hi, flo, fhi)
        hi, fhi = lo, flo
    return None


def estimate_delta(group: SchottkyGroup, resolution: float = 0.01,
                   max_depth: int | None = None) -> DeltaEstimate:
    """The critical exponent delta from the dynamical determinant of the
    transfer operator (Jenkinson and Pollicott, Amer. J. Math. 124, 2002).

    delta_N is the largest root on [0, 2] of the order-N determinant (see
    _determinant), which converges to delta super-exponentially in N.  The
    full determinant is positive above delta; low orders can have spurious
    roots below it, so each order's root is searched for afresh rather
    than tracked from the one before.  Only even orders N <= max_depth are
    used, since odd ones can lack a sign change, and an order without a
    root is skipped.  By default max_depth is the largest order up to
    DELTA_MAX_ORDER whose shells hold at most MAX_WORDS words.  The first
    N whose root is within resolution / 2 of the previous order's gives
    the result; EstimationError if none does.  Every order scans the same
    grid, so each shell's scan trace, and each c_n of the scan, is taken
    once a grid exponent.  A rank-1 group with a loxodromic generator has
    delta = 0 exactly.
    """
    if group.rank == 0:
        raise SchottkyError("the trivial group has no critical exponent")
    if not (0.0 < resolution <= 1.0):
        raise SchottkyError(f"resolution must be in (0, 1], got {resolution!r}")
    if max_depth is None:
        max_depth = next((n for n in range(DELTA_MAX_ORDER, 4, -1)
                          if group.fits_depth(n)), 4)
    if max_depth < 4:
        raise SchottkyError(f"estimate_delta needs max_depth >= 4, got {max_depth}")
    group.check_depth(max_depth)
    for i, g in enumerate(group.generators, start=1):
        kind = g.classify()
        if kind != "loxodromic":
            raise EstimationError(f"generator {i} is {kind}, not loxodromic")
    if group.rank == 1:
        return DeltaEstimate(0.0, (0.0, math.ulp(0.0)), (), max_depth)
    terms, orders, scanned = [], [], {}

    def scan(s):
        a, c = scanned.setdefault(s, ([], [1.0]))
        a += [_trace(t, s, np.sum) for t in terms[len(a):]]
        return _determinant(a, c)

    for n, shell_terms in enumerate(_multiplier_shells(group, max_depth), 1):
        if not all(np.isfinite(t).all() for t in shell_terms):
            raise EstimationError(f"a word of length {n} is not loxodromic, or "
                                  "its trace overflows: its multiplier term "
                                  "is not finite")
        terms.append(shell_terms)
        if n % 2:
            continue
        # numpy's sums locate the root and the correctly rounded ones refine it
        root = _largest_root(
            lambda s: _determinant([_trace(t, s) for t in terms], [1.0]), scan)
        if root is None:
            continue
        orders.append((n, root))
        if len(orders) > 1:
            change = abs(root - orders[-2][1])
            if 2.0 * change <= resolution:
                err = max(change, math.ulp(root))
                return DeltaEstimate(root, (max(0.0, root - err), root + err),
                                     tuple(orders), max_depth)
    if not orders:
        raise EstimationError(f"no determinant up to order {max_depth} has a "
                              "root in [0, 2]")
    raise EstimationError(
        f"delta did not settle to resolution {resolution!r} by order "
        f"{orders[-1][0]}: " + ", ".join(f"delta_{n} = {d!r}"
                                          for n, d in orders[-2:]))


def limit_set(group: SchottkyGroup, depth: int) -> LimitSetSample:
    """Images of generator fixed points under all admissible depth-`depth` words.

    A seed carries the direction letter whose map it attracts under; a word is
    admissible for it when the word's innermost letter does not cancel that
    direction.  Points are emitted seed-major, word-lexicographic within.
    """
    if depth < 1:
        raise SchottkyError("depth must be >= 1")
    if group.rank == 0:
        raise SchottkyError("the trivial group has no limit set")
    for i, g in enumerate(group.generators, start=1):
        kind = g.classify()
        if kind != "loxodromic":
            raise SchottkyError(f"generator {i} is {kind}, not loxodromic")
    seeds = []
    for i, g in enumerate(group.generators, start=1):
        fp = g.fixed_points_multiplier()
        seeds.append((i, fp.fix_attracting))
        seeds.append((-i, fp.fix_repelling))
    num, den, first, last = group._shell([_homogeneous(seed) for _, seed in seeds],
                                         depth)
    # one row per seed, one column per word; the kept entries, read
    # row-major, are seed-major and word-lexicographic within
    keep = np.stack([last != -direction for direction, _ in seeds])
    pts, inf_mask = project(num[keep], den[keep])
    points = [INF if m else SpherePoint(q)
              for q, m in zip(pts.tolist(), inf_mask.tolist())]
    firsts = np.broadcast_to(first, keep.shape)[keep].tolist()
    return LimitSetSample(tuple(points), depth, tuple(seeds), tuple(firsts))


def reduce_to_fundamental_domain(group: SchottkyGroup, z, max_steps: int = 200):
    """Map z into the closed common exterior of the defining disks.

    Returns (z_reduced, w) with z_reduced = w(z).  Interior membership is
    strict, so boundary points are already reduced.
    """
    p = as_sphere_point(z)
    if group.rank == 0:
        return p, Word((), MoebiusMap.identity())
    if group.circles is None:
        raise SchottkyError("fundamental-domain reduction requires defining circles")
    letters = []
    cur = p
    for _ in range(max_steps):
        moved = False
        for l in group.letters:
            tgt = group.target_circle(l)
            if cur.is_finite and abs(cur.value - tgt.center) < tgt.radius:
                cur = group.letter_map(-l).apply(cur)
                letters.insert(0, -l)
                moved = True
                break
        if not moved:
            return cur, group.word_from_letters(letters)
    raise SchottkyError(
        f"reduction did not terminate in {max_steps} steps: "
        "point numerically indistinguishable from the limit set")


def fundamental_domain_samples(group: SchottkyGroup, n: int, seed: int = 0):
    """Deterministic sphere-uniform points in the common exterior of the
    defining disks, at least SAMPLE_MARGIN outside each disk in the
    Euclidean sense: |z - center| >= radius + SAMPLE_MARGIN.  Each of at
    most 64 draws of 8n points adds its accepted points in draw order
    until there are n."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(64):
        if len(out) >= n:
            return out
        pts, msk = uniform_sphere_points(rng, 8 * n)
        far = np.ones(pts.size, dtype=bool)
        for c in group.circles or ():
            far &= np.abs(pts - c.center) >= c.radius + SAMPLE_MARGIN
        out += [INF if msk[i] else SpherePoint(complex(pts[i]))
                for i in np.flatnonzero(far | msk)[:n - len(out)]]
    if len(out) < n:
        raise SchottkyError("could not sample enough fundamental-domain points")
    return out


def nielsen(group: SchottkyGroup, move) -> SchottkyGroup:
    """Apply an elementary Nielsen move to the marking.

    move is one of ("invert", i), ("swap", i, j), ("multiply", i, j) which
    replaces generator i by gen_i o gen_j, or ("cyclic",); indices are 1-based.
    The result may lose the classical circle condition; check .validation.
    """
    kind, *idx = move
    g = group.rank
    gens = list(group.generators)
    circ = list(group.circles) if group.circles is not None else None

    def check(i):
        if not (1 <= i <= g):
            raise SchottkyError(f"generator index {i} out of range 1..{g}")
        return i - 1

    if kind == "invert":
        (i,) = idx
        i = check(i)
        gens[i] = gens[i].inverse()
        if circ is not None:
            circ[2 * i], circ[2 * i + 1] = circ[2 * i + 1], circ[2 * i]
    elif kind == "swap":
        i, j = idx
        i, j = check(i), check(j)
        gens[i], gens[j] = gens[j], gens[i]
        if circ is not None:
            circ[2 * i], circ[2 * j] = circ[2 * j], circ[2 * i]
            circ[2 * i + 1], circ[2 * j + 1] = circ[2 * j + 1], circ[2 * i + 1]
    elif kind == "multiply":
        i, j = idx
        i, j = check(i), check(j)
        if i == j:
            raise SchottkyError("multiply needs two distinct generators")
        gens[i] = gens[i].compose(gens[j])
        if circ is not None:
            pair = _isometric_pair(gens[i])
            if pair is None:
                circ = None
            else:
                circ[2 * i], circ[2 * i + 1] = pair
    elif kind == "cyclic":
        gens = gens[1:] + gens[:1]
        if circ is not None:
            circ = circ[2:] + circ[:2]
    else:
        raise SchottkyError(f"unknown Nielsen move {kind!r}")
    return SchottkyGroup(gens, circ, cyclic_diagnostic=group.cyclic_diagnostic,
                         require_classical=False)
