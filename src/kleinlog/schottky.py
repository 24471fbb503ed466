"""Schottky groups: validation, word and orbit enumeration, limit-set sampling,
fundamental-domain reduction, Nielsen moves, and critical-exponent estimation.

Generator i pairs the circles stored at indices 2(i-1) and 2(i-1)+1: it maps
the exterior of the first onto the interior of the second.  Letters are the
signed integers +-1..+-g ordered (1, -1, 2, -2, ...); words are tuples of
letters with the leftmost letter outermost, i.e. word (l1, l2) acts as
m(l1) o m(l2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._vec import act, fsum, parallel_chunks, stretch
from .moebius import (
    INF,
    MoebiusMap,
    SpherePoint,
    _homogeneous,
    as_sphere_point,
    chordal,
    from_fixed_points_multiplier,
)

MAX_CACHED_WORDS = 4_000_000
EXP_CHUNK = 8192
PAIRING_RESIDUAL_TOL = 1e-9


class SchottkyError(ValueError):
    """Structural problem with a Schottky group or one of its operations."""


class ValidationFailure(SchottkyError):
    """Construction rejected; carries the full validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


class EstimationError(SchottkyError):
    """Critical-exponent estimation failed; carries the shell-ratio table."""

    def __init__(self, message: str, ratios):
        super().__init__(f"{message}; shell ratios: {ratios}")
        self.ratios = tuple(ratios)


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
    """A reduced word with its composed map and the spherical derivative
    at the group's basepoint."""

    letters: tuple[int, ...]
    map: MoebiusMap
    sph_derivative: float

    @property
    def length(self) -> int:
        return len(self.letters)

    @staticmethod
    def is_reduced(letters) -> bool:
        return all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))


@dataclass(frozen=True)
class DeltaEstimate:
    """Bisection estimate of the critical exponent from deep-shell ratios."""

    delta: float
    bracket: tuple[float, float]
    shell_ratios: tuple[float, ...]
    max_depth: int
    ratio_tol: float


@dataclass(frozen=True)
class LimitSetSample:
    """Limit-set points obtained by propagating fixed-point seeds."""

    points: tuple[SpherePoint, ...]
    depth: int
    provenance: tuple[tuple[int, SpherePoint], ...]
    first_letters: tuple[int, ...]

    def finite_array(self) -> np.ndarray:
        return np.array(
            [p.value for p in self.points if p.is_finite], dtype=complex
        )


def _letter_order(rank: int) -> list[int]:
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


class SchottkyGroup:
    """Immutable marked Schottky group of rank g >= 0.

    Rank 0 is the trivial group (identity only), useful as a series edge case.
    Groups whose generators fix infinity are only accepted with
    cyclic_diagnostic=True and carry no defining circles.
    """

    def __init__(self, generators, circles=None, *, cyclic_diagnostic=False,
                 require_classical=True):
        gens = []
        for g in generators:
            if not isinstance(g, MoebiusMap):
                raise TypeError("generators must be MoebiusMap instances")
            gens.append(g)
        self.generators = tuple(gens)
        self.rank = len(gens)
        self.cyclic_diagnostic = bool(cyclic_diagnostic)
        self.letters = tuple(_letter_order(self.rank))
        self._maps = {}
        for i, g in enumerate(self.generators, start=1):
            self._maps[i] = g
            self._maps[-i] = g.inverse()

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
        # shell caches: index n holds the matrices/letters of all length-n words
        self._shell_mats = None
        self._shell_last = None
        self._shell_first = None
        self._logderiv_cache = {}

    @classmethod
    def build(cls, gen_specs, circles=None, **kwargs) -> "SchottkyGroup":
        """Build from MoebiusMap / matrix rows / (fix_attracting, fix_repelling,
        multiplier) triples, with optional explicit circles."""
        gens = []
        for spec in gen_specs:
            if isinstance(spec, MoebiusMap):
                gens.append(spec)
            elif len(spec) == 3:
                fix_plus, fix_minus, lam = spec
                gens.append(from_fixed_points_multiplier(fix_minus, fix_plus, lam))
            elif len(spec) == 4:
                gens.append(MoebiusMap(*spec))
            elif len(spec) == 2:
                (a, b), (c, d) = spec
                gens.append(MoebiusMap(a, b, c, d))
            else:
                raise SchottkyError(f"cannot interpret generator spec {spec!r}")
        return cls(gens, circles, **kwargs)

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

    def source_circle(self, letter: int) -> Circle:
        return self.target_circle(-letter)

    def _isometric_circles(self):
        out = []
        for i, g in enumerate(self.generators, start=1):
            for m, which in ((g, f"generator {i}"), (g.inverse(), f"generator {i} inverse")):
                if abs(m.c) < 1e-9:
                    raise ValidationFailure(ValidationReport((
                        f"{which} fixes infinity (c ~ 0): isometric circle undefined, "
                        "infinity would lie inside a defining disk",
                    )))
            out.append(Circle(-g.d / g.c, 1.0 / abs(g.c)))
            gi = g.inverse()
            out.append(Circle(-gi.d / gi.c, 1.0 / abs(gi.c)))
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
            except Exception:
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
        if not Word.is_reduced(letters):
            raise SchottkyError(f"letters {letters} are not reduced")
        m = MoebiusMap.identity()
        for l in letters:
            self.letter_map(l)  # range check
        for l in letters:
            m = m.compose(self.letter_map(l))
        return Word(letters, m, m.spherical_derivative(self.default_basepoint()))

    def enumerate_words(self, max_len: int):
        """All reduced words of length <= max_len, by shell, lexicographic
        within a shell in the letter order (1, -1, 2, -2, ...)."""
        if max_len < 0:
            raise SchottkyError("max_len must be >= 0")
        bp = self.default_basepoint()
        ident = MoebiusMap.identity()
        shell = [Word((), ident, 1.0)]
        yield shell[0]
        for _ in range(max_len):
            nxt = []
            for w in shell:
                last = w.letters[-1] if w.letters else 0
                for l in self.letters:
                    if l == -last:
                        continue
                    m = w.map.compose(self.letter_map(l))
                    nxt.append(Word(w.letters + (l,), m, m.spherical_derivative(bp)))
            for w in nxt:
                yield w
            shell = nxt
            if not shell:
                break

    def shell_size(self, n: int) -> int:
        if n == 0:
            return 1
        if self.rank == 0:
            return 0
        return 2 * self.rank * (2 * self.rank - 1) ** (n - 1)

    # vectorized shell machinery ----------------------------------------------

    def _letter_matrices(self) -> np.ndarray:
        mats = np.empty((2 * self.rank, 2, 2), dtype=complex)
        for idx, l in enumerate(self.letters):
            m = self.letter_map(l)
            mats[idx] = ((m.a, m.b), (m.c, m.d))
        return mats

    def _ensure_shells(self, depth: int):
        if self._shell_mats is None:
            ident = np.eye(2, dtype=complex)[None, :, :]
            self._shell_mats = [ident]
            self._shell_last = [np.zeros(1, dtype=np.int64)]
            self._shell_first = [np.zeros(1, dtype=np.int64)]
        if self.rank == 0:
            while len(self._shell_mats) <= depth:
                self._shell_mats.append(np.empty((0, 2, 2), dtype=complex))
                self._shell_last.append(np.empty(0, dtype=np.int64))
                self._shell_first.append(np.empty(0, dtype=np.int64))
            return
        letters = np.array(self.letters, dtype=np.int64)
        nletters = 2 * self.rank
        lmats = self._letter_matrices()
        # position of each letter value in the canonical order, indexed by letter+g
        pos = np.zeros(2 * self.rank + 1, dtype=np.int64)
        for idx, l in enumerate(self.letters):
            pos[l + self.rank] = idx
        while len(self._shell_mats) <= depth:
            n = len(self._shell_mats)
            total = sum(m.shape[0] for m in self._shell_mats) + self.shell_size(n)
            if total > MAX_CACHED_WORDS:
                raise SchottkyError(
                    f"shell cache to depth {n} would exceed {MAX_CACHED_WORDS} words"
                )
            prev = self._shell_mats[-1]
            last_prev = self._shell_last[-1]
            first_prev = self._shell_first[-1]
            if n == 1:
                self._shell_mats.append(lmats.copy())
                self._shell_last.append(letters.copy())
                self._shell_first.append(letters.copy())
                continue
            width = nletters - 1
            count = prev.shape[0] * width
            mats = np.empty((count, 2, 2), dtype=complex)
            last = np.empty(count, dtype=np.int64)
            first = np.empty(count, dtype=np.int64)
            forb_pos = pos[-last_prev + self.rank]
            base = np.arange(prev.shape[0], dtype=np.int64) * width
            for idx, l in enumerate(self.letters):
                sel = np.nonzero(last_prev != -l)[0]
                rank_here = idx - (forb_pos[sel] < idx)
                dest = base[sel] + rank_here
                mats[dest] = np.einsum("nij,jk->nik", prev[sel], lmats[idx])
                last[dest] = l
                first[dest] = first_prev[sel]
            # letter matrices have det 1, so products keep det 1 to O(n*eps);
            # recomputing ad-bc here would cancel catastrophically once the
            # entries grow large, so no renormalization is done
            self._shell_mats.append(mats)
            self._shell_last.append(last)
            self._shell_first.append(first)

    def shell_matrices(self, n: int) -> np.ndarray:
        self._ensure_shells(n)
        return self._shell_mats[n]

    def shell_terms(self, n: int, z, mode: str = "absolute"):
        """Orbit points and derivative weights of the length-n shell at z.

        Returns (points, inf_mask, weights); weights are complex gamma'(z) in
        holomorphic mode and real spherical factors in absolute mode.
        """
        p = as_sphere_point(z)
        mats = self.shell_matrices(n)
        c, d = mats[:, 1, 0], mats[:, 1, 1]
        zz, ww = _homogeneous(p)
        points, inf_mask, num, den = act(mats[:, 0, 0], mats[:, 0, 1], c, d, zz, ww)
        if mode == "holomorphic":
            if p.is_infinity:
                raise SchottkyError("holomorphic weights require a finite basepoint")
            w = c * p.value + d
            if np.any(w == 0):
                raise SchottkyError("holomorphic weight undefined at an orbit pole")
            weights = 1.0 / (w * w)
        elif mode == "absolute":
            weights = stretch(zz, ww, num, den)
        else:
            raise SchottkyError(f"unknown weight mode {mode!r}")
        return points, inf_mask, weights

    def shell_log_derivatives(self, max_depth: int, basepoint=None) -> list[np.ndarray]:
        """log of the spherical derivative of every shell word at the basepoint,
        for shells 1..max_depth (cached)."""
        bp = self.default_basepoint() if basepoint is None else as_sphere_point(basepoint)
        key = (bp.is_infinity, bp.value)
        cached = self._logderiv_cache.get(key, [])
        if len(cached) < max_depth:
            self._ensure_shells(max_depth)
            for n in range(len(cached) + 1, max_depth + 1):
                _, _, w = self.shell_terms(n, bp, "absolute")
                cached.append(np.log(w))
            self._logderiv_cache[key] = cached
        return cached[:max_depth]


def _exp_sum(logd: np.ndarray, s: float, threads: int = 1) -> float:
    # np.exp works elementwise and fsum rounds exactly, so the bits do not
    # depend on the split or on threads
    out = np.empty(logd.size)

    def work(lo, hi):
        np.exp(s * logd[lo:hi], out=out[lo:hi])

    parallel_chunks(work, logd.size, threads, EXP_CHUNK)
    return fsum(out)


def shell_sums(group: SchottkyGroup, s: float, max_depth: int, basepoint=None,
               threads: int = 1) -> list[float]:
    """P_n(s) = sum over length-n words of (spherical derivative at basepoint)^s,
    for n = 1..max_depth."""
    if not (s >= 0.0):
        raise SchottkyError(f"exponent s must be >= 0, got {s!r}")
    if max_depth < 1:
        raise SchottkyError("max_depth must be >= 1")
    logs = group.shell_log_derivatives(max_depth, basepoint)
    return [_exp_sum(ld, s, threads) for ld in logs]


def estimate_delta(group: SchottkyGroup, resolution: float = 0.01,
                   max_depth: int = 10, basepoint=None,
                   ratio_tol: float = 0.25, threads: int = 1) -> DeltaEstimate:
    """Bisection for the exponent where the deep-shell ratio P_n/P_{n-1} crosses 1."""
    if group.rank == 0:
        raise SchottkyError("the trivial group has no critical exponent")
    if not (0.0 < resolution <= 1.0):
        raise SchottkyError(f"resolution must be in (0, 1], got {resolution!r}")
    if max_depth < 2:
        raise SchottkyError("estimate_delta needs max_depth >= 2")
    logs = group.shell_log_derivatives(max_depth, basepoint)
    deep, deeper = logs[-2], logs[-1]

    def ratio(s: float) -> float:
        return _exp_sum(deeper, s, threads) / _exp_sum(deep, s, threads)

    lo, hi = 0.0, 2.0
    if ratio(hi) >= 1.0:
        table = [_exp_sum(logs[i + 1], hi, threads) / _exp_sum(logs[i], hi, threads)
                 for i in range(len(logs) - 1)]
        raise EstimationError("shell sums do not contract even at s = 2", table)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if ratio(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)
    sums = [_exp_sum(ld, delta, threads) for ld in logs]
    table = tuple(sums[i + 1] / sums[i] for i in range(len(sums) - 1))
    recent = table[-3:] if len(table) >= 3 else table
    if any(abs(r - 1.0) > ratio_tol for r in recent):
        raise EstimationError(
            f"deep-shell ratios at s = {delta:.4f} are not within {ratio_tol} of 1 "
            "(non-geometric shell behavior)", table)
    return DeltaEstimate(delta, (lo, hi), table, max_depth, ratio_tol)


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
    seeds = []
    for i, g in enumerate(group.generators, start=1):
        fp = g.fixed_points_multiplier()
        seeds.append((i, fp.fix_attracting))
        seeds.append((-i, fp.fix_repelling))
    group._ensure_shells(depth)
    mats = group._shell_mats[depth]
    # one row per seed, one column per word; the kept entries, read
    # row-major, are seed-major and word-lexicographic within
    keep = np.stack([group._shell_last[depth] != -direction
                     for direction, _ in seeds])
    Z, W = np.array([_homogeneous(seed) for _, seed in seeds]).T[:, :, None]
    pts, inf_mask, _, _ = act(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0],
                              mats[:, 1, 1], Z, W)
    points = [INF if m else SpherePoint(q)
              for q, m in zip(pts[keep].tolist(), inf_mask[keep].tolist())]
    firsts = np.broadcast_to(group._shell_first[depth], keep.shape)[keep].tolist()
    return LimitSetSample(tuple(points), depth, tuple(seeds), tuple(firsts))


def reduce_to_fundamental_domain(group: SchottkyGroup, z, max_steps: int = 200):
    """Map z into the closed common exterior of the defining disks.

    Returns (z_reduced, w) with z_reduced = w(z).  Interior membership is
    strict, so boundary points are already reduced.
    """
    p = as_sphere_point(z)
    if group.rank == 0:
        return p, Word((), MoebiusMap.identity(), 1.0)
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
            gi = gens[i]
            if abs(gi.c) < 1e-9:
                circ = None
            else:
                inv = gi.inverse()
                circ[2 * i] = Circle(-gi.d / gi.c, 1.0 / abs(gi.c))
                circ[2 * i + 1] = Circle(-inv.d / inv.c, 1.0 / abs(inv.c))
    elif kind == "cyclic":
        gens = gens[1:] + gens[:1]
        if circ is not None:
            circ = circ[2:] + circ[:2]
    else:
        raise SchottkyError(f"unknown Nielsen move {kind!r}")
    return SchottkyGroup(gens, circ, cyclic_diagnostic=group.cyclic_diagnostic,
                         require_classical=False)
