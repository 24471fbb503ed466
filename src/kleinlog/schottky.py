"""Schottky groups: validation, word and orbit enumeration, limit-set sampling,
fundamental-domain reduction, Nielsen moves, and the critical exponent in a
proven bracket from cylinder disks.

Generator i pairs the circles stored at indices 2(i-1) and 2(i-1)+1: it maps
the exterior of the first onto the interior of the second.  Letters are the
signed integers +-1..+-g ordered (1, -1, 2, -2, ...); words are tuples of
letters with the leftmost letter outermost, i.e. word (l1, l2) acts as
m(l1) o m(l2).

Every word enumeration puts the new letter in front of the shorter words
that do not start with its inverse.  SchottkyGroup._walk does so shell by
shell for the homogeneous images of points: series evaluation walks its
point, measures and convergence reports the basepoint, limit_set the
generators' fixed points, and the word matrices, whose columns are the
images of infinity and 0, are the walk of those two.  Past its last whole
shell, _walk applies the maps of 1-3-letter prefixes, which it takes from
the scalar enumerate_words.  _cylinder_levels grows estimate_delta's
cylinder disks by the same rule in its own loop, disk for point, in the
same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._vec import FSUM_BLOCK, project, stretch, uniform_sphere_points
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
SAMPLE_MARGIN = 0.05      # fundamental_domain_samples' distance from the disks


class SchottkyError(ValueError):
    """Structural problem with a Schottky group or one of its operations."""


class ValidationFailure(SchottkyError):
    """Construction rejected; carries the full validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


class EstimationError(SchottkyError):
    """The critical exponent has no certificate; the message names the cause."""


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
    """The critical exponent: bracket is a proven [lo, hi] around it, from
    the level-`level` cylinder matrices (see estimate_delta), and delta is
    the bracket's midpoint."""

    delta: float
    bracket: tuple[float, float]
    level: int
    max_depth: int


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
        """Re-check loxodromy, disk disjointness, and the pairing: E_i, holding
        generator i's image of the outside of circle 2i - 2 (_level_one_disk),
        has the exact image's circle within pad / 2 of (c_E, r_E - pad), so
        within h = |c_E - c_D| + |r_E - pad - r_D| + pad of circle D = 2i - 1,
        both at least m from 0: within chordal min(2, 2h / (1 + m^2))."""
        violations = _not_loxodromic(self.generators)
        if self.circles is None:
            if self.rank > 0:
                violations.append("no defining circles (diagnostic mode)")
            return ValidationReport(tuple(violations))
        for (a, ca), (b, cb) in combinations(enumerate(self.circles), 2):
            gap = abs(ca.center - cb.center) - (ca.radius + cb.radius)
            if gap <= 1e-9:
                violations.append(f"disks {a} and {b} overlap or touch "
                                  f"(separation {gap:.3e})")
        for i in range(1, self.rank + 1):
            if (disk := _level_one_disk(self, i)) is None:
                violations.append(f"generator {i} maps an exterior point of circle "
                                  f"{2 * i - 2} outside its partner disk {2 * i - 1}")
                continue
            (c, r, *_, pad), d = disk, self.circles[2 * i - 1]
            h = abs(c - d.center) + abs(r - pad - d.radius) + pad
            m = max(0.0, min(abs(c) - r, abs(d.center) - d.radius))
            if (residual := min(2.0, 2.0 * h / (1.0 + m * m))) >= PAIRING_RESIDUAL_TOL:
                violations.append(f"generator {i} does not map circle {2 * i - 2} onto "
                                  f"circle {2 * i - 1} (chordal residual {residual:.3e})")
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
        applied to rows of the last whole shell, each shell's prefixes
        listed once, before its pieces.  Pieces are fresh arrays
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
        for n in range(1, depth + 1):
            size = self.shell_size(n)
            whole = self._is_whole(n, depth)
            step = size if whole else FSUM_BLOCK
            j = n - top_n
            prefixes = [w for w in self.enumerate_words(j) if w.length == j]
            region = None if regions is None else regions[(top_n + 1) % 2]
            for lo in range(0, size, step):
                out = _orbit_block(k, min(lo + step, size) - lo, region)
                piece = self._grow(top, prefixes, lo, out)
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


def _not_loxodromic(generators) -> list[str]:
    """'generator i is <kind>, not loxodromic' for each generator i that is not."""
    kinds = (g.classify() for g in generators)
    return [f"generator {i} is {kind}, not loxodromic"
            for i, kind in enumerate(kinds, start=1) if kind != "loxodromic"]


def _gap(z, r, w, t) -> Fraction:
    """|z - w|^2 - (r + t)^2, exactly, for complex z and w or exact pairs."""
    (x, y), (v, s) = (c if isinstance(c, tuple) else (c.real, c.imag) for c in (z, w))
    parts = [f.as_integer_ratio() for f in (x, y, v, s, r, t)]
    den = math.lcm(*(q for _, q in parts))
    x, y, v, s, r, t = (n * (den // q) for n, q in parts)
    return Fraction((x - v) ** 2 + (y - s) ** 2 - (r + t) ** 2, den * den)


@lru_cache(maxsize=64)  # the letters of the last few groups
def _letter(a: complex, b: complex, c: complex, d: complex):
    """(az + b)/(cz + d), c != 0, as a/c - k/(z - p): the exact pole p = -d/c,
    then a/c, p and k = det/c^2, each part rounded once (within u = 2^-53
    relatively), and |k| (within 2u)."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = ((Fraction(z.real), Fraction(z.imag))
                                              for z in (a, b, c, d))
    n = cr * cr + ci * ci
    over_c = lambda x, y: ((x * cr + y * ci) / n, (y * cr - x * ci) / n)
    p = over_c(-dr, -di)
    k = over_c(*over_c(ar * dr - ai * di - br * cr + bi * ci,
                       ar * di + ai * dr - br * ci - bi * cr))
    return (p, *(complex(*map(float, z)) for z in (over_c(ar, ai), p, k)),
            math.sqrt(float(k[0] ** 2 + k[1] ** 2)))


def image_disk(g, centre, radius):
    """(centre, radius, log_sup, log_inf, pad) of the image under g = a/c -
    k/(z - p) of the disks |z - centre| <= r, arrays or one, or under each
    map g[i] of a list, with its own call's bits, of the disks in row i of
    2-d arrays: with q = centre - p, centre a/c - k conj(q)/(|q|^2 - r^2)
    and radius |k| r/||q|^2 - r^2|, the image of the complement where p is
    inside.  The radius is padded by pad, twice the first-order bound of
    the rounding of + - * / and sqrt in the centre and radius, so that the
    disk holds the exact image; that needs |q|^2 - r^2 within a quarter of
    itself, else EstimationError.  Where p is outside every disk, the logs
    bound log|g'| = log|k| - 2 log|z - p| over each through |q| -+ r,
    padded alike and for a 4-ulp math.log and numpy log; else None."""
    u = 2.0 ** -53
    A, p, k, kabs = (np.reshape(c, (-1, 1)) if isinstance(g, list) else c[0] for c in zip(*(
        _letter(h.a, h.b, h.c, h.d)[1:] for h in (g if isinstance(g, list) else [g]))))
    q = np.asarray(centre, dtype=complex) - p
    r = np.asarray(radius, dtype=float)
    q1 = abs(q.real) + abs(q.imag)
    eq = u * (q1 + abs(p.real) + abs(p.imag))  # bounds |q - exact q|
    sq = q.real * q.real + q.imag * q.imag
    n = sq - r * r
    rel = (u * (2.0 * sq + r * r + abs(n)) + 2.0 * q1 * eq) / abs(n)  # of n
    wx, wy = q.real / n, -q.imag / n  # conj(q) / n
    cx, cy = A.real - (k.real * wx - k.imag * wy), A.imag - (k.real * wy + k.imag * wx)
    rad = kabs * r / abs(n)
    pad = 2.0 * (rad * (4.0 * u + rel) + u * (abs(cx) + abs(cy) + abs(A.real) + abs(
        A.imag)) + (abs(k.real) + abs(k.imag)) * (q1 * (4.0 * u + rel) + eq) / abs(n))
    aq, inside = np.sqrt(sq), np.all(n < 0.0)
    eaq = 2.0 * (3.0 * u * aq + u * r + eq)
    if not (np.all(rel < 0.25) and (inside or np.all(aq - r - eaq > 0.0))):
        raise EstimationError("a cylinder disk reaches a generator's pole within rounding")
    if inside:
        return cx + 1j * cy, rad + pad, None, None, pad
    lk = np.reshape([math.log(x) for x in np.ravel(kabs)], np.shape(kabs))
    return cx + 1j * cy, rad + pad, *(lk - 2.0 * ld + side * 2.0 * u * (
        2.0 + 8.0 * (abs(lk) + 2.0 * abs(ld)) + abs(lk - 2.0 * ld)) for side, ld in (
            (1.0, np.log(aq - r - eaq)), (-1.0, np.log(aq + r + eaq)))), pad


def _level_one_disk(group: SchottkyGroup, l: int):
    """E_l = g_l(outside of D_-l) as image_disk gives it, D_l the target
    circle of l; None where g_l fixes infinity, where the exact test
    does not find its pole inside D_-l, or where image_disk finds the pole
    within rounding of D_-l or a part of g_l overflows a float."""
    g, h = group.letter_map(l), group.target_circle(-l)
    try:
        with np.errstate(all="ignore"):
            if g.c != 0 and _gap(_letter(g.a, g.b, g.c, g.d)[0], 0.0, h.center, h.radius) < 0:
                return image_disk(g, h.center, h.radius)
    except (EstimationError, OverflowError):
        pass
    return None


def _cylinder_levels(group: SchottkyGroup):
    """Yield, for m = 1, 2, ..., the centres and radii of the cylinder disks
    D(l.v) of the words l.v of length m + 1, in order, and log sup and log
    inf of |g_l'| over D(v): row l.v' of the level-m matrices holds its 2g -
    1 columns v'.l''.  D(l.v) = g_l(D(v)), as the walk grows, from E_l =
    g_l(outside of D_-l) (see _level_one_disk), once exact checks find the
    pole of g_l inside D_-l, the E_l apart and E_l' apart from D_-l for l'
    != -l: then g_l maps E_l' into E_l, and each disk holds the limit points
    coded by its word."""
    if group.circles is None:
        raise EstimationError(f"delta needs defining circles, and this rank-"
                              f"{group.rank} cyclic_diagnostic group has none")
    letters, maps = group.letters, [group.letter_map(l) for l in group.letters]
    holes = [group.target_circle(-l) for l in letters]
    disks = []
    for l in letters:
        if (disk := _level_one_disk(group, l)) is None:
            raise EstimationError(f"no delta certificate: the pole of letter {l} "
                                  f"is not inside the circle of letter {-l}")
        disks.append(disk[:2])
    for i, l in enumerate(letters):
        for j, m in enumerate(letters):
            if j > i and _gap(*disks[i], *disks[j]) <= 0:
                raise EstimationError(f"no delta certificate: the level-1 disks "
                                      f"of letters {l} and {m} meet")
            if m != -l and _gap(*disks[j], holes[i].center, holes[i].radius) <= 0:
                raise EstimationError(f"no delta certificate: the level-1 disk of "
                                      f"letter {m} meets the circle of letter {-l}")
    centres, radii = (np.array(a)[:, None] for a in zip(*disks))  # one row per first letter
    rest = [[j for j in range(len(maps)) if j != i ^ 1] for i in range(len(maps))]
    w = EVAL_CHUNK // len(maps)  # columns a call: image_disk holds some 20 arrays of them
    while True:  # letter i's words skip the row of those starting with letter i ^ 1
        c, r = (a[rest].reshape(len(maps), -1) for a in (centres, radii))
        centres, radii, ls, li = (np.concatenate(p, axis=1) for p in zip(*(image_disk(
            maps, c[:, j:j + w], r[:, j:j + w])[:4] for j in range(0, c.shape[1], w))))
        yield centres.ravel(), radii.ravel(), ls.ravel(), li.ravel()


def _eta(s: float, top: float, b: int) -> float:
    """A ratio's relative rounding at s, for logs of modulus at most top in rows of
    b: s * logs, exp (4 ulps), products, the row sum left to right, division, doubled."""
    return 2.0 * 2.0 ** -53 * (s * top + b + 9.0)


def _bracket_end(logs, cols, s0: float, s1: float, x, sign: int):
    """(s, x) at one end of a level's bracket: for sign -1 and sup logs the
    least s found where every Collatz-Wielandt ratio (M x)_i / x_i of M =
    exp(s logs) is below 1 - eta, which proves delta < s; for sign +1 and
    inf logs the largest where every one is above 1 + eta, proving delta >
    s.  Secant steps from s0 and s1 aim at 1 -+ 2 eta; power steps, each row
    of M x summed left to right, take x to M's Perron vector.  Else 2 or 0."""
    b, top = logs.shape[1], abs(logs).max()
    logs, idx = logs.T.copy(), np.arange(b)[:, None] + cols * b  # one row per column of M

    def trial(s, x):
        a, eta = np.exp(s * logs), _eta(s, top, b)
        aim = math.log1p(2.0 * sign * eta)
        for _ in range(64):
            y = np.add.reduce(a * x.take(idx))  # M x: axis 0's rows added in turn
            ratio = y / x
            hi, lo = np.maximum.reduce(ratio), np.minimum.reduce(ratio)
            x = y / np.maximum.reduce(y)
            r = hi if sign < 0 else lo
            f = math.log(r) - aim
            # rho(M) is in [lo, hi]: step until that is within eta, or a
            # quarter of r's distance from the aim
            if hi - lo <= max(eta, 0.25 * abs(f)) * lo:
                break
        return f, sign * (r - 1.0) > eta, eta, x

    f0, _, _, x = trial(s0, x)
    f1, ok, eta, x = trial(s1, x)
    for _ in range(64):
        if f1 == f0 or ok and abs(s1 - s0) <= eta:
            break
        s0, s1, f0 = s1, min(2.0, max(0.0, s1 - f1 * (s1 - s0) / (f1 - f0))), f1
        f1, ok, eta, x = trial(s1, x)
    return (s1 if ok else 1.0 - sign), x


def estimate_delta(group: SchottkyGroup, resolution: float = 0.01,
                   max_depth: int | None = None) -> DeltaEstimate:
    """The critical exponent delta in a proven bracket (McMullen, "Hausdorff
    dimension and conformal dynamics III", Amer. J. Math. 120, 1998).

    The delta-conformal measure gives the limit points coded l.v the mass
    x_lv = sum over l' of the integral of |g_l'|^delta over those coded
    v.l', inside D(v.l').  So rho(M_inf(s)) <= e^P(s) <= rho(M_sup(s)) for
    the matrices of the inf and sup of |g_l'|^s over each D(v.l'), at every
    s, where the pressure P is strictly decreasing with P(delta) = 0
    (Bowen); no |g_l'| < 1 is needed.  Ratios of any positive vector bound
    rho, so _bracket_end's ends are proven.

    Levels m = 2, 3, then where level 3's width reaches resolution, or the
    rounding floor eta if that is larger, if each level divides it as level
    3 did level 2's, then one at a time until the bracket is at most
    resolution wide; delta is its midpoint.  max_depth caps m, by default at
    the deepest m whose words of length m + 1 fits_depth allows.
    EstimationError names the level and bracket where the cap is reached or
    a level narrows the bracket by less than eta and than the width still
    to go, at its floor near 5e-15.  A rank-1 group with a loxodromic
    generator has delta = 0.
    """
    if group.rank == 0:
        raise SchottkyError("the trivial group has no critical exponent")
    if not (0.0 < resolution <= 1.0):
        raise SchottkyError(f"resolution must be in (0, 1], got {resolution!r}")
    if max_depth is None:
        max_depth = next((n for n in range(4, 64) if not group.fits_depth(n + 2)), 64)
    if max_depth < 4:
        raise SchottkyError(f"estimate_delta needs max_depth >= 4, got {max_depth}")
    group.check_depth(max_depth + 1)
    if bad := _not_loxodromic(group.generators):
        raise EstimationError(bad[0])
    if group.rank == 1:
        return DeltaEstimate(0.0, (0.0, math.ulp(0.0)), 0, max_depth)
    b, levels = 2 * group.rank - 1, _cylinder_levels(group)
    next(levels)
    m, target, lo, hi, width = 1, 2, 0.0, 1.0, math.inf
    x_sup = x_inf = np.ones(2 * group.rank)
    while True:
        while m < target:
            *_, ls, li = next(levels)
            m += 1
        # row l.v's columns v.l' are block a2 b^(m-2) + (row mod b^(m-2)) of
        # x.reshape(-1, b), a2 the index of v's first letter
        n, p = ls.size // b, b ** (m - 2)
        row = np.arange(n)
        r2 = row // p % b
        cols = (r2 + (r2 >= (row // (p * b) ^ 1))) * p + row % p
        up, x_sup = _bracket_end(ls.reshape(n, b), cols, lo, hi,
                                 np.repeat(x_sup, n // x_sup.size), -1)
        lo, x_inf = _bracket_end(li.reshape(n, b), cols, lo, hi,
                                 np.repeat(x_inf, n // x_inf.size), 1)
        hi, last, width = up, width, up - lo
        if width <= resolution:
            return DeltaEstimate(0.5 * (lo + hi), (lo, hi), m, max_depth)
        eta = _eta(hi, abs(ls).max(), b)
        if m == max_depth or last - width < min(eta, width - resolution):
            raise EstimationError(f"delta did not settle to resolution {resolution!r} "
                                  f"by level {m}: bracket [{lo!r}, {hi!r}]")
        target = m + 1 if m != 3 else min(max_depth, 3 + math.ceil(math.log(
            width / max(resolution, eta)) / math.log(last / width)))


def limit_set(group: SchottkyGroup, depth: int) -> tuple[SpherePoint, ...]:
    """Images of generator fixed points under all admissible depth-`depth` words.

    A seed carries the direction letter whose map it attracts under; a word is
    admissible for it when the word's innermost letter does not cancel that
    direction.  Points are emitted seed-major, word-lexicographic within.
    """
    if depth < 1:
        raise SchottkyError("depth must be >= 1")
    if group.rank == 0:
        raise SchottkyError("the trivial group has no limit set")
    if bad := _not_loxodromic(group.generators):
        raise SchottkyError(bad[0])
    seeds = []
    for i, g in enumerate(group.generators, start=1):
        fp = g.fixed_points_multiplier()
        seeds.append((i, fp.fix_attracting))
        seeds.append((-i, fp.fix_repelling))
    num, den, _, last = group._shell([_homogeneous(seed) for _, seed in seeds], depth)
    # one row per seed, one column per word; the kept entries, read
    # row-major, are seed-major and word-lexicographic within
    keep = np.stack([last != -direction for direction, _ in seeds])
    pts, inf_mask = project(num[keep], den[keep])
    return tuple(INF if m else SpherePoint(q)
                 for q, m in zip(pts.tolist(), inf_mask.tolist()))


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
            if group.target_circle(l).contains(cur, closed=False):
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
