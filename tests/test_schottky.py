import ast
import cmath
import math
import weakref
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kleinlog import schottky
from kleinlog._vec import FSUM_BLOCK, project
from kleinlog.moebius import (
    INF,
    MoebiusMap,
    SpherePoint,
    _homogeneous,
    as_sphere_point,
    chordal,
    from_fixed_points_multiplier,
)
from kleinlog.schottky import (
    EVAL_CHUNK,
    Circle,
    EstimationError,
    Orbit,
    SchottkyError,
    SchottkyGroup,
    ShellOverflowError,
    ValidationFailure,
    estimate_delta,
    limit_set,
    nielsen,
    pairing_map,
    power_sum,
    reduce_to_fundamental_domain,
)
from tests.conftest import (
    make_random_group,
    make_rank3_group,
    make_standard_group,
    matrix_orbit,
)

# frozen from the resolution-1e-7, depth-12 bisection of the standard group
STD_DELTA_REF = 0.298403


def test_standard_group_validates(std_group):
    assert std_group.rank == 2
    assert std_group.letters == (1, -1, 2, -2)
    assert std_group.validation.ok
    assert len(std_group.circles) == 4


def test_pairing_map_geometry(std_group):
    # generator i maps the exterior of its source circle onto the interior
    # of its target circle, boundary to boundary
    for letter in std_group.letters:
        g = std_group.letter_map(letter)
        src = std_group.target_circle(-letter)
        dst = std_group.target_circle(letter)
        for k in range(12):
            w = g.apply(SpherePoint(src.center + src.radius * cmath.exp(2j * math.pi * k / 12)))
            assert abs(abs(complex(w) - dst.center) - dst.radius) < 1e-9
        assert complex(g.apply(INF)) - dst.center == pytest.approx(0, abs=dst.radius)


def test_isometric_circles_match_explicit(std_group):
    implicit = SchottkyGroup(list(std_group.generators))
    for c, d in zip(std_group.circles, implicit.circles):
        assert abs(c.center - d.center) < 1e-12
        assert abs(c.radius - d.radius) < 1e-12


def test_build_from_triples():
    # fixed points at the circle centers' axis, multiplier away from 1
    g = SchottkyGroup([
        from_fixed_points_multiplier(SpherePoint(-1.8 + 0j),
                                     SpherePoint(1.8 + 0j), 40.0),
        from_fixed_points_multiplier(SpherePoint(-1.8j), SpherePoint(1.8j), 40.0),
    ])
    assert g.validation.ok
    assert g.rank == 2


def test_overlapping_circles_rejected():
    circles = [Circle(-1, 0.8), Circle(1, 0.8), Circle(-1j, 0.8), Circle(1j, 0.8)]
    g1 = pairing_map(circles[0], circles[1])
    g2 = pairing_map(circles[2], circles[3])
    with pytest.raises(ValidationFailure) as ei:
        SchottkyGroup([g1, g2], circles)
    assert not ei.value.report.ok
    assert ei.value.report.violations


def shrunk_standard_group(shrink: float) -> SchottkyGroup:
    """The standard group with circle 1's radius shrunk by `shrink`."""
    g = make_standard_group()
    c = list(g.circles)
    c[1] = Circle(c[1].center, c[1].radius - shrink)
    return SchottkyGroup(g.generators, c, require_classical=False)


def sampled_residual(group: SchottkyGroup, i: int) -> float:
    """The pairing residual that validate once sampled: the largest chordal
    distance of generator i's images of 16 points of circle 2i - 2 from
    circle 2i - 1, each to the point of that circle on the ray from its
    centre."""
    g, src, dst = group.generators[i - 1], *group.circles[2 * i - 2:2 * i]
    worst = 0.0
    for k in range(16):
        w = complex(g.apply(src.center + src.radius * cmath.exp(2j * math.pi * k / 16)))
        ray = w - dst.center
        worst = max(worst, chordal(w, dst.center + dst.radius * ray / abs(ray)))
    return worst


def closed_form_residual(group: SchottkyGroup, i: int) -> float:
    """validate's pairing residual of generator i, 2h / (1 + m^2) up to 2."""
    (c, r), d = schottky._level_one_disk(group, i), group.circles[2 * i - 1]
    m = max(0.0, min(abs(c) - r, abs(d.center) - d.radius))
    return min(2.0, 2.0 * (abs(c - d.center) + abs(r - d.radius)) / (1.0 + m * m))


def test_pairing_residual_of_a_shrunk_circle():
    """Circle 1 shrunk by 5e-10 still validates, and shrunk by 2e-9 fails
    with the residual the 16 samples gave; delta's bracket on the first
    still holds the unperturbed group's delta."""
    ok, bad = shrunk_standard_group(5e-10), shrunk_standard_group(2e-9)
    assert ok.validation.ok
    assert bad.validation.violations == ("generator 1 does not map circle 0 onto "
                                         "circle 1 (chordal residual 1.231e-09)",)
    for group in (ok, bad):
        assert closed_form_residual(group, 1) >= sampled_residual(group, 1)
    std = estimate_delta(make_standard_group(), 1e-12).delta
    for resolution in (1e-6, 1e-9, 1e-12):
        lo, hi = estimate_delta(ok, resolution).bracket
        assert lo <= std <= hi, resolution


PAIRED_GROUPS = [make_standard_group, make_rank3_group] + [
    lambda s=s, rank=rank: make_random_group(s, rank) for s in range(8) for rank in (2, 3)]


def test_pairing_residual_bounds_the_sampled_one():
    """The closed-form residual stays below 1e-14 (9.4e-15 at most) on the
    classical groups, and is at least the 16-point one less 2e-14 there and
    with circle 2i - 1 shrunk, grown or moved by 1e-13 to 1e-3.  The
    allowance is rounding, measured up to 9.6e-15 (random rank 3, seed 2,
    circle 3 grown by 1e-13): the samples round in g.apply, and E_i's
    outward pad puts its circle a few ulps outside the exact image's, so
    nearer to a grown circle 2i - 1."""
    for make in PAIRED_GROUPS:
        group = make()
        for i in range(1, group.rank + 1):
            new = closed_form_residual(group, i)
            assert new < 1e-14 and new >= sampled_residual(group, i) - 2e-14
            for e in (1e-13, 1e-10, 1e-6, 1e-3):
                for dc, dr in ((0.0, -e), (0.0, e), (e, 0.0), (1j * e, 0.0)):
                    c = list(group.circles)
                    c[2 * i - 1] = Circle(c[2 * i - 1].center + dc, c[2 * i - 1].radius + dr)
                    moved = SchottkyGroup(group.generators, c, require_classical=False)
                    assert closed_form_residual(moved, i) >= sampled_residual(moved, i) - 2e-14


# an affine generator, and one whose pole lies on its source circle
NO_LEVEL_ONE_DISK = {"affine": (MoebiusMap.scaling(4.0), Circle(-2.0, 0.5)),
                     "pole_on_circle": (pairing_map(Circle(-2.0, 0.5), Circle(2.0, 0.5)),
                                        Circle(-2.5, 0.5))}


@pytest.mark.parametrize("name", sorted(NO_LEVEL_ONE_DISK))
def test_pairing_without_a_pole_inside_maps_outside(name):
    """Without its pole inside circle 0, generator 1 has no disk E_1:
    validate reports that it maps an exterior point outside its partner
    disk, also on nielsen's result, which need not be classical."""
    g, src = NO_LEVEL_ONE_DISK[name]
    group = SchottkyGroup([g], [src, Circle(2.0, 0.5)], require_classical=False)
    assert schottky._level_one_disk(group, 1) is None
    for h in (group, nielsen(group, ("cyclic",))):
        assert h.validation.violations == (
            "generator 1 maps an exterior point of circle 0 outside its partner disk 1",)


def test_fixing_infinity_needs_diagnostic_flag():
    with pytest.raises(ValidationFailure):
        SchottkyGroup([MoebiusMap.scaling(4.0)])
    g = SchottkyGroup([MoebiusMap.scaling(4.0)], cyclic_diagnostic=True)
    assert g.circles is None
    assert g.rank == 1


def test_diagnostic_basepoint_skips_non_loxodromic_generators():
    g = SchottkyGroup([MoebiusMap(1, 1.0, 0, 1)], cyclic_diagnostic=True)
    assert g.default_basepoint().is_finite


def test_shell_counts_exact(std_group):
    g = std_group.rank
    for n in range(1, 8):
        assert std_group.shell_size(n) == 2 * g * (2 * g - 1) ** (n - 1)
    counts = Counter(w.length for w in std_group.enumerate_words(5))
    for n in range(1, 6):
        assert counts[n] == 2 * g * (2 * g - 1) ** (n - 1)


def test_enumerate_words_reduced_and_ordered(std_group):
    words = [w for w in std_group.enumerate_words(3)]
    assert words[0].letters == ()  # identity heads the enumeration
    seen = set()
    for w in words:
        assert w.letters not in seen
        seen.add(w.letters)
        assert all(
            w.letters[i] != -w.letters[i + 1] for i in range(len(w.letters) - 1)
        )
    two = [w.letters for w in words if w.length == 2 and w.letters[0] in (1, -1)]
    assert two == [(1, 1), (1, 2), (1, -2), (-1, -1), (-1, 2), (-1, -2)]


def test_word_maps_compose_correctly(std_group):
    rng = np.random.default_rng(211)
    letters_pool = std_group.letters
    for _ in range(50):
        n = int(rng.integers(1, 6))
        letters = []
        while len(letters) < n:
            l = int(letters_pool[rng.integers(0, 4)])
            if letters and l == -letters[-1]:
                continue
            letters.append(l)
        w = std_group.word_from_letters(letters)
        m = MoebiusMap.identity()
        for l in letters:
            m = m @ std_group.letter_map(l)
        p = SpherePoint(complex(rng.normal(), rng.normal()))
        assert chordal(w.map.apply(p), m.apply(p)) < 1e-10


def test_word_from_letters_rejects_unreduced(std_group):
    with pytest.raises(SchottkyError):
        std_group.word_from_letters([1, -1])
    with pytest.raises(SchottkyError):
        std_group.word_from_letters([3])


def shell_letters(group, n):
    """The first and last letters of every row of shell n, in enumeration
    order, as word_of_row reads them, for all rows at once."""
    letters = np.array(group.letters)
    row = np.arange(group.shell_size(n))
    first = last = None
    for k in range(n, 0, -1):
        run = (2 * group.rank - 1) ** (k - 1)
        idx = row // run
        row = row % run
        if last is not None:
            # skip the inverse of the letter before, at index 2(|l| - 1) + (l > 0)
            idx += idx >= 2 * (np.abs(last) - 1) + (last > 0)
        last = letters[idx]
        first = last if first is None else first
    return first, last


def test_shell_letters_match_enumeration(std_group):
    words = list(std_group.enumerate_words(4))
    for n, piece in next(std_group.orbits([0j], 4)):
        letters = [w.letters for w in words if w.length == n]
        assert piece.first.tolist() == [w[0] for w in letters]
        assert piece.last.tolist() == [w[-1] for w in letters]
        assert [a.tolist() for a in shell_letters(std_group, n)] == \
            [piece.first.tolist(), piece.last.tolist()]
    assert np.array_equal(std_group.shell_matrices(0), np.eye(2)[None])
    trivial = SchottkyGroup([])
    assert [trivial.shell_matrices(n).shape for n in range(3)] == \
        [(1, 2, 2), (0, 2, 2), (0, 2, 2)]


@pytest.mark.parametrize("make_group, per_letter", [(make_standard_group, 0),
                                                    (make_random_group, 3)])
def test_shell_matrices_match_enumerate_words(make_group, per_letter):
    """Each length-n word's matrix, walked from infinity and 0, is its
    product of letter matrices, within per_letter * n * u of its largest
    entry.  The standard group's letter matrices are dyadic, so both
    products are exact; on the random group the walk measured 1.9nu
    (13.7u at n <= 8)."""
    g = make_group()
    words = list(g.enumerate_words(8))
    for n in range(9):
        ref = np.array([[[w.map.a, w.map.b], [w.map.c, w.map.d]]
                        for w in words if w.length == n])
        err = np.abs(g.shell_matrices(n) - ref).max(axis=(1, 2))
        assert np.all(err <= per_letter * n * U * np.abs(ref).max(axis=(1, 2))), n


def test_overflowing_shell_refused_and_finite_ones_kept():
    std = make_standard_group()
    g = SchottkyGroup(std.generators[:1], std.circles[:2])
    with pytest.raises(ShellOverflowError, match="length 339"):
        g.shell_matrices(400)
    assert np.isfinite(g.shell_matrices(338)).all()
    with pytest.raises(ShellOverflowError, match="length 339"):
        g.shell_matrices(339)


U = 2.0**-53


def word_of_row(group, n, row):
    """The letters of row `row` of shell n: the words that start with each
    letter are runs of (2g - 1)^(n - 1) rows in letter order, and the rest
    of a word is ordered the same way among the letters its last allows."""
    word = []
    for k in range(n, 0, -1):
        run = (2 * group.rank - 1) ** (k - 1)
        allowed = [l for l in group.letters if not word or l != -word[-1]]
        word.append(allowed[row // run])
        row %= run
    return tuple(word)


def random_words(group, n, count, rng):
    words = []
    for _ in range(count):
        word = [group.letters[rng.integers(len(group.letters))]]
        while len(word) < n:
            allowed = [l for l in group.letters if l != -word[-1]]
            word.append(allowed[rng.integers(len(allowed))])
        words.append(tuple(word))
    return words


def walked(group, words, z):
    """The Orbit of z under `words` (all of one length), one Moebius step
    per letter from the innermost, written as SchottkyGroup._grow writes
    it."""
    zz, ww = _homogeneous(as_sphere_point(z))
    num, den = np.full(len(words), zz), np.full(len(words), ww)
    for k in range(len(words[0]) - 1, -1, -1):
        a, b, c, d = (np.array([getattr(group.letter_map(w[k]), e) for w in words])
                      for e in "abcd")
        new_num, new_den = a * num, c * num
        new_num += b * den
        new_den += d * den
        num, den = new_num, new_den
    return num, den


def assert_walk_accurate(group, words, orbit, z):
    """Points within 8u (chordal) and both weights within 2nu (relative)
    of the same formulas in 50-digit arithmetic on the same float letter
    matrices, n the word length: a weight is a product of n steps'
    factors, so its error grows like n u."""
    mpmath = pytest.importorskip("mpmath")
    zz, ww = _homogeneous(as_sphere_point(z))
    pts, inf_mask, _ = group.shell_terms(orbit, z)
    weights = {mode: group.shell_terms(orbit, z, mode)[2]
               for mode in ("absolute", "holomorphic")}
    worst = [0.0, 0.0, 0.0]
    with mpmath.workdps(50):
        Z, W = mpmath.mpc(zz), mpmath.mpc(ww)
        for k, word in enumerate(words):
            num, den = Z, W
            for l in reversed(word):
                m = group.letter_map(l)
                num, den = (mpmath.mpc(m.a) * num + mpmath.mpc(m.b) * den,
                            mpmath.mpc(m.c) * num + mpmath.mpc(m.d) * den)
            ref_abs = (abs(Z) ** 2 + abs(W) ** 2) / (abs(num) ** 2 + abs(den) ** 2)
            ref_holo = (W / den) ** 2
            got = INF if inf_mask[k] else SpherePoint(complex(pts[k]))
            worst[0] = max(worst[0], chordal(got, SpherePoint(complex(num / den))))
            worst[1] = max(worst[1], float(abs(weights["absolute"][k] - ref_abs)
                                           / ref_abs))
            worst[2] = max(worst[2], float(abs(complex(weights["holomorphic"][k])
                                               - ref_holo) / abs(ref_holo)))
    n = len(words[0])
    assert worst[0] <= 8 * U and max(worst[1:]) <= 2 * n * U, \
        [w / U for w in worst]


@pytest.mark.parametrize("z", [0.3 + 0.7j, 3.0 - 1.2j])
@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("make_group", [make_standard_group, make_rank3_group])
def test_walk_per_word_accuracy(make_group, n, z):
    """300 random words of length n, walked as the walk steps: measured at
    most 3.2u for points, and for weights 15.8u at n = 12 and 19.3u at
    n = 20 (rank 3, z = 3 - 1.2i)."""
    g = make_group()
    words = random_words(g, n, 300, np.random.default_rng(n))
    num, den = walked(g, words, z)
    orbit = Orbit(num, den, np.array([w[0] for w in words]),
                  np.array([w[-1] for w in words]))
    assert_walk_accurate(g, words, orbit, z)


def test_walk_rows_accuracy(std_group):
    """300 random rows of the walk's shell 12, whose pieces apply the maps
    of two-letter prefixes to rows of shell 10: measured 3.1u for points
    and 8.4u for weights.  A piece is valid only until the next is taken,
    so each is copied."""
    z = 0.3 + 0.7j
    shell = Orbit(*map(np.concatenate, zip(*(
        [a.copy() for a in piece] for n, piece in next(std_group.orbits([z], 12))
        if n == 12))))
    rows = np.random.default_rng(0).choice(shell.first.size, 300, replace=False)
    assert_walk_accurate(std_group, [word_of_row(std_group, 12, r) for r in rows],
                         Orbit(*(a[rows] for a in shell)), z)


@pytest.mark.parametrize("make_group, depth", [(make_standard_group, 12),
                                               (make_rank3_group, 8)])
def test_walk_pieces_are_the_shells_pieces(make_group, depth):
    """The walk goes shell by shell.  A shell of at most 2 * EVAL_CHUNK
    words comes whole unless it is the deepest; the deepest and every
    longer shell come as their rows [k * FSUM_BLOCK, (k + 1) * FSUM_BLOCK)
    in order, and the pieces' first and last letters are the shell's row
    by row."""
    g = make_group()
    walk = [(n, piece.first.copy(), piece.last.copy())
            for n, piece in next(g.orbits([0.3 + 0.7j], depth))]
    assert [n for n, _, _ in walk] == sorted(n for n, _, _ in walk)
    for n in range(1, depth + 1):
        mine = [item[1:] for item in walk if item[0] == n]
        size = g.shell_size(n)
        sizes = [f.size for f, _ in mine]
        if n < depth and size <= 2 * EVAL_CHUNK:
            assert sizes == [size]
        else:
            assert sizes[:-1] == [FSUM_BLOCK] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= FSUM_BLOCK and sum(sizes) == size
        for got, want in zip(map(np.concatenate, zip(*mine)), shell_letters(g, n)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("make_group, depth", [
    pytest.param(make_standard_group, 12, id="standard"),
    *(pytest.param(lambda seed=seed, rank=rank: make_random_group(seed, rank), depth,
                   id=f"rank{rank}-seed{seed}")
      for rank, depth in ((2, 11), (3, 8)) for seed in range(4)),
])
def test_walk_regions_keep_every_bit(make_group, depth):
    """orbits() writes whole shells to two regions in turn and deeper
    pieces over the dead one, for one point after another; every piece has
    the num and den bits and the letters of the same piece of a walk into
    fresh arrays.  Each piece's bytes are copied before the next is taken,
    as the contract asks.  At these depths both whole shells and deeper
    pieces are walked."""
    g = make_group()
    zs = [0.3 + 0.7j, -2.9 + 3.1j]
    for z, walk in zip(zs, g.orbits(zs, depth), strict=True):
        ref = g._walk([_homogeneous(as_sphere_point(z))], depth)
        for (n, piece), (m, want) in zip(walk, ref, strict=True):
            got = [a.tobytes() for a in piece]
            assert n == m
            assert got == [a.tobytes() for a in (want.num[0], want.den[0], *want[2:])], n


def test_group_keeps_no_shells(std_group):
    sh = std_group.shell_matrices(5)
    mats = weakref.ref(sh)
    del sh
    assert mats() is None


def test_only_schottky_reads_shell_storage():
    import kleinlog

    for path in sorted(Path(kleinlog.__file__).parent.glob("*.py")):
        if path.name == "schottky.py":
            continue
        readers = [node.attr for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute)
                   and node.attr.startswith("_shell")]
        assert not readers, f"{path.name} reads {readers}"


def test_every_definition_in_src_is_named_somewhere():
    """A function, method, property, class or module-level constant of
    kleinlog that no code in src/, tests/ or perfbench/ names (as a name
    read, an attribute or an import) is dead; assigning a name does not
    name it, and dunders are used by Python itself.  Names in strings do
    not count."""
    import kleinlog

    src = Path(kleinlog.__file__).parent
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for d in (src, root / "tests", root / "perfbench")
             for path in sorted(d.rglob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
    defined = []
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path, node.name))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(path, t.id) for target in targets
                        for t in ast.walk(target) if isinstance(t, ast.Name)]
    dead = sorted(f"{path.name}:{name}" for path, name in defined
                  if name not in named
                  and not (name.startswith("__") and name.endswith("__")))
    assert not dead, f"defined but never named: {dead}"


def test_src_imports_no_thread_module():
    """Every command runs on one thread: no module of kleinlog imports
    threading or concurrent.futures."""
    import kleinlog

    banned = {"threading", "concurrent"}
    found = []
    for path in sorted(Path(kleinlog.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{m}" for m in mods if m.split(".")[0] in banned]
    assert not found, found


def test_shell_matrices_unit_determinant(std_group):
    for n in (1, 4, 8):
        mats = std_group.shell_matrices(n)
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-10


def test_shell_terms_match_word_maps(std_group):
    """The points are num/den projected, into the arrays given if any."""
    z = SpherePoint(0.3 + 0.2j)
    words = [w for w in std_group.enumerate_words(3) if w.length == 3]
    orbit = matrix_orbit(std_group, 3, z)
    pts, inf_mask, weights = std_group.shell_terms(orbit, z, mode="absolute")
    assert len(pts) == len(words)
    out = np.full(len(words), np.nan, dtype=complex), np.ones(len(words), dtype=bool)
    into = std_group.shell_terms(orbit, z, "absolute", *out)
    assert into[0] is out[0] and into[1] is out[1]
    for a, b in zip((*project(orbit.num, orbit.den), weights), into):
        assert a.tobytes() == b.tobytes()
    for k, w in enumerate(words):
        img = w.map.apply(z)
        got = INF if inf_mask[k] else SpherePoint(complex(pts[k]))
        assert chordal(img, got) < 1e-12
        assert abs(weights[k] - w.map.spherical_derivative(z)) < 1e-12


def test_shell_terms_holomorphic_weights(std_group):
    z = SpherePoint(0.25 + 0.1j)
    words = [w for w in std_group.enumerate_words(2) if w.length == 2]
    pts, inf_mask, weights = std_group.shell_terms(matrix_orbit(std_group, 2, z), z,
                                                     mode="holomorphic")
    for k, w in enumerate(words):
        assert abs(weights[k] - w.map.derivative(complex(z))) < 1e-12
    assert not inf_mask.any()


def test_delta_estimate_standard(std_group):
    est = estimate_delta(std_group, resolution=0.01, max_depth=10)
    lo, hi = est.bracket
    assert hi - lo <= 0.01 + 1e-12
    assert lo <= est.delta <= hi
    assert 0.0 < est.delta < 1.0
    assert abs(est.delta - STD_DELTA_REF) < 0.01
    assert est.delta == 0.5 * (lo + hi) and 2 <= est.level <= 10


def test_delta_sharpens_consistently(std_group, sharp_delta):
    assert abs(sharp_delta.delta - STD_DELTA_REF) < 1e-3
    coarse = estimate_delta(std_group, resolution=0.01, max_depth=10)
    assert abs(coarse.delta - sharp_delta.delta) < 0.01


def test_delta_decreases_with_radius():
    small = make_standard_group(radius=0.25)
    d_small = estimate_delta(small, resolution=0.01, max_depth=8).delta
    d_std = estimate_delta(make_standard_group(), resolution=0.01, max_depth=8).delta
    assert d_small < d_std


def test_cyclic_diagnostic_group():
    g = SchottkyGroup([MoebiusMap.scaling(4.0)], cyclic_diagnostic=True)
    est = estimate_delta(g, resolution=0.002, max_depth=10)
    assert est.delta <= 0.01


def test_estimate_rejects_noncontracting():
    g = SchottkyGroup([MoebiusMap.scaling(1.0 + 1e-9)], cyclic_diagnostic=True,
                      require_classical=False)
    with pytest.raises(EstimationError):
        estimate_delta(g, 0.01, 8)
    with pytest.raises(SchottkyError):
        estimate_delta(SchottkyGroup([]), 0.01, 6)


def test_delta_invariant_under_nielsen_moves(std_group):
    ref = estimate_delta(std_group, resolution=1e-8, max_depth=10).delta
    for move in (("invert", 1), ("invert", 2), ("swap", 1, 2), ("cyclic",)):
        moved = estimate_delta(nielsen(std_group, move), resolution=1e-8,
                               max_depth=10).delta
        assert abs(moved - ref) <= 1e-9, move


@pytest.mark.parametrize("radius", [0.25, 0.7, 0.9])
def test_delta_settles_by_order_12(radius):
    est = estimate_delta(make_standard_group(radius), resolution=1e-6,
                         max_depth=12)
    lo, hi = est.bracket
    assert est.level <= 12
    assert lo < est.delta < hi and hi - lo <= 1e-6
    assert 0.0 < est.delta < 1.0


def test_delta_is_where_the_shell_sums_turn():
    # a rank-3 group of unequal disks: the shell sums grow at delta - 0.01
    # and shrink at delta + 0.01
    c = [Circle(complex(x, y), r) for x, y, r in (
        (2.54, -0.44, 0.14), (1.46, -2.03, 0.98), (-0.99, 1.1, 0.42),
        (-2.37, 3.7, 0.47), (-1.55, -1.95, 0.15), (-2.44, -2.9, 0.52))]
    g = SchottkyGroup([pairing_map(c[i], c[i + 1]) for i in (0, 2, 4)], c)
    est = estimate_delta(g, resolution=1e-4)
    for s, grows in ((est.delta - 0.01, True), (est.delta + 0.01, False)):
        sums = [power_sum(ld, s) for ld in g.shell_log_derivatives(8)]
        assert (sums[-1] / sums[-2] > 1.0) == grows


DELTA_GROUPS = {"standard": lambda: make_standard_group(),
                **{f"radius_{r}": (lambda r=r: make_standard_group(r))
                   for r in (0.25, 0.7, 0.9)},
                **{f"random_{seed}_rank_{rank}": (
                    lambda seed=seed, rank=rank: make_random_group(seed, rank))
                   for rank in (2, 3) for seed in range(8)}}

# delta from the dynamical determinant at resolutions 1e-3 and 1e-5, at
# commit d0b1f57, the last with it; None where it exited 3
DETERMINANT_DELTA = {
    "standard": (0.29840315251523136, 0.2984031016572498),
    "radius_0.25": (0.21661441033129336, 0.21661441020862915),
    "radius_0.7": (0.3654255741984291, 0.3654255741984291),
    "radius_0.9": (0.4390097537626685, 0.4390098620462895),
    "random_0_rank_2": (0.281631334577418, 0.281631334577418),
    "random_1_rank_2": (0.3485593083631314, 0.3485571276034776),
    "random_2_rank_2": (0.4283375305978842, 0.4283376638066564),
    "random_3_rank_2": (0.3147672463443779, 0.3147672463443779),
    "random_4_rank_2": (0.35243371243976934, None),
    "random_5_rank_2": (0.31139493871328877, 0.3113914853124568),
    "random_6_rank_2": (0.25804374703198824, 0.25804374703198824),
    "random_7_rank_2": (0.28408682227610355, 0.28408682227610355),
    "random_0_rank_3": (0.4494003552536182, None),
    "random_1_rank_3": (0.4832562233746294, None),
    "random_2_rank_3": (0.38213874121449715, 0.3821361427772496),
    "random_3_rank_3": (0.4455569557346607, None),
    "random_4_rank_3": (0.5046987730045213, None),
    "random_5_rank_3": (0.39910098807969774, 0.39910098128991844),
    "random_6_rank_3": (0.5415905032391695, 0.5415923945871138),
    "random_7_rank_3": (0.39596396640359816, None),
}


def level_brackets(group: SchottkyGroup, top: int):
    """The proven bracket of every level 2..top, each warm-started from the
    one before, as estimate_delta steps one level at a time."""
    b, levels = 2 * group.rank - 1, schottky._cylinder_levels(group)
    next(levels)
    lo, hi, x_sup = 0.0, 1.0, np.ones(2 * group.rank)
    x_inf, out = x_sup, []
    for m in range(2, top + 1):
        *_, ls, li = next(levels)
        n, p = ls.size // b, b ** (m - 2)
        row = np.arange(n)
        r2 = row // p % b
        cols = (r2 + (r2 >= (row // (p * b) ^ 1))) * p + row % p
        up, x_sup = schottky._bracket_end(ls.reshape(n, b), cols, lo, hi,
                                          np.repeat(x_sup, n // x_sup.size), -1)
        lo, x_inf = schottky._bracket_end(li.reshape(n, b), cols, lo, hi,
                                          np.repeat(x_inf, n // x_inf.size), 1)
        hi = up
        out.append((lo, hi))
    return out


@pytest.mark.parametrize("name", sorted(DELTA_GROUPS))
def test_delta_brackets_nest_and_hold_the_determinants_delta(name):
    """The level brackets nest, and the bracket at resolutions 1e-3 and
    1e-5 holds the determinant's delta wherever that settled; where it
    exited 3, the bracket settles now."""
    group = DELTA_GROUPS[name]()
    brackets = level_brackets(group, 5 if group.rank == 2 else 4)
    for (lo, hi), (lo2, hi2) in zip(brackets, brackets[1:]):
        assert lo <= lo2 < hi2 <= hi
    for resolution, old in zip((1e-3, 1e-5), DETERMINANT_DELTA[name]):
        est = estimate_delta(group, resolution)
        lo, hi = est.bracket
        assert hi - lo <= resolution and est.delta == 0.5 * (lo + hi)
        assert old is None or lo <= old <= hi, (resolution, est, old)


def test_delta_brackets_nest_to_nine_digits(std_group):
    """On the standard group the brackets nest down to a width below 1e-9 at
    level 6, and each holds the determinant's delta_10 (d0b1f57), which
    differed from delta_8 by 2.2e-11."""
    brackets = level_brackets(std_group, 6)
    for (lo, hi), (lo2, hi2) in zip(brackets, brackets[1:]):
        assert lo <= lo2 < hi2 <= hi
    assert all(lo <= 0.2984031016794595 <= hi for lo, hi in brackets)
    assert brackets[-1][1] - brackets[-1][0] <= 1e-9


def mp_image(g: MoebiusMap, z):
    a, b, c, d = (mpmath.mpc(v) for v in (g.a, g.b, g.c, g.d))
    return (a * z + b) / (c * z + d)


@pytest.mark.parametrize("name", ["standard", "radius_0.9", "random_4_rank_2",
                                  "random_1_rank_3"])
def test_cylinder_disks_hold_exact_images_and_orbit_points(name):
    """E_l, and sampled cylinder disks D(l.v) = g_l(D(v)) up to length 4,
    hold the 50-digit images of points on the boundary of the disk they
    come from; every cylinder disk holds the walk's image of infinity
    under its word."""
    group = DELTA_GROUPS[name]()
    letters, rng = group.letters, np.random.default_rng(0)
    levels = schottky._cylinder_levels(group)
    with mpmath.workdps(50):
        def holds(g, centre, radius, image):
            for t in range(0, 64, 4 if image is not None else 1):
                z = mpmath.mpc(centre) + mpmath.mpf(radius) * mpmath.expjpi(
                    mpmath.mpf(t) / 32)
                assert abs(mp_image(g, z) - mpmath.mpc(image[0])) <= image[1]

        disks = []
        for l in letters:
            g, hole = group.letter_map(l), group.target_circle(-l)
            disks.append(schottky.image_disk(g, hole.center, hole.radius)[:2])
            holds(g, hole.center, hole.radius, disks[-1])
        centres, radii = map(np.array, zip(*disks))
        for m in range(2, 5):
            c, r, _, _ = next(levels)
            run = centres.size // len(letters)
            for idx in rng.choice(c.size, 12, replace=False):
                i, j = divmod(int(idx), centres.size - run)
                v = j + run if j >= (i ^ 1) * run else j
                holds(group.letter_map(letters[i]), centres[v], radii[v], (c[idx], r[idx]))
            num, den, _, _ = group._shell([(1.0, 0.0)], m)
            assert np.all(abs(num[0] / den[0] - c) <= r)
            centres, radii = c, r


def test_level_one_checks_name_the_failure(std_group):
    c = list(std_group.circles)
    gens = std_group.generators
    cases = [
        (SchottkyGroup(gens, [c[0], c[1], c[3], c[2]], require_classical=False),
         "the pole of letter 2 is not inside the circle of letter -2"),
        # E_1 = g_1(outside of circle 0) grows to radius 2.78 and reaches E_2
        (SchottkyGroup(gens, [Circle(-2.0, 0.09), *c[1:]], require_classical=False),
         "the level-1 disks of letters 1 and 2 meet"),
        (nielsen(std_group, ("multiply", 1, 2)),
         "the level-1 disk of letter -2 meets the circle of letter -1"),
    ]
    for group, cause in cases:
        with pytest.raises(EstimationError, match=f"^no delta certificate: {cause}$"):
            estimate_delta(group, 1e-3)


def test_delta_of_rank_one_group_is_zero():
    c = [Circle(-2.0, 0.5), Circle(2.0, 0.5)]
    for g in (SchottkyGroup([pairing_map(c[0], c[1])], c),
              SchottkyGroup([MoebiusMap.scaling(4.0)], cyclic_diagnostic=True)):
        est = estimate_delta(g, resolution=1e-9, max_depth=12)
        assert est.delta == 0.0
        assert est.bracket[0] == 0.0 < est.bracket[1]


def test_delta_default_order_cap_fits_the_shell_cache(std_group):
    # level m grows the words of length m + 1: rank 2's shells through 13
    # hold 3.2M words, rank 3's through 10 14.6M and through 9 2.9M
    assert estimate_delta(std_group).max_depth == 12
    c = [Circle(3.0 * cmath.exp(1j * math.pi * k / 3), 0.4)
         for k in (0, 3, 1, 4, 2, 5)]
    g = SchottkyGroup([pairing_map(c[i], c[i + 1]) for i in (0, 2, 4)], c)
    est = estimate_delta(g)
    assert est.max_depth == 8
    assert 0.0 < est.delta < 1.0


def test_delta_rejects_low_order_and_unreachable_resolution(std_group):
    with pytest.raises(SchottkyError, match="max_depth >= 4"):
        estimate_delta(std_group, 0.01, 3)
    # the level-5 bracket is about 2.8e-8 wide
    with pytest.raises(EstimationError, match=r"by level 5: bracket \[0\.29840"):
        estimate_delta(std_group, 1e-10, 5)


def test_shell_sums_monotone_in_s(std_group):
    logs = std_group.shell_log_derivatives(6)
    a = [power_sum(ld, 0.25) for ld in logs]
    b = [power_sum(ld, 0.35) for ld in logs]
    assert all(x > y for x, y in zip(a, b))
    # at s clearly above delta the deep shells decay geometrically
    assert b[-1] / b[-2] < 1.0


def limit_set_first_letters(group: SchottkyGroup, depth: int) -> list[int]:
    """The first letter of the word of each point of limit_set(group, depth):
    seed-major, the seeds in the order (1, -1, 2, -2, ...), and within a seed
    the words of length depth whose last letter is not the seed's inverse."""
    words = [w.letters for w in group.enumerate_words(depth) if w.length == depth]
    return [w[0] for seed in group.letters for w in words if w[-1] != -seed]


def test_limit_set_points_inside_disks(std_group):
    for depth in (1, 4, 6):
        sample = limit_set(std_group, depth)
        g = std_group.rank
        assert len(sample.points) == 2 * g * (2 * g - 1) ** depth
        for p, first in zip(sample.points, limit_set_first_letters(std_group, depth)):
            disk = std_group.target_circle(first)
            assert disk.contains(complex(p))
    # deeper samples concentrate: nearest-disk radii shrink
    assert sample.depth == 6


def test_limit_set_rejects_silly_depth(std_group):
    with pytest.raises(SchottkyError):
        limit_set(std_group, 0)


def test_reduce_to_fundamental_domain(std_group):
    rng = np.random.default_rng(223)
    words = [w for w in std_group.enumerate_words(3) if w.length == 3]
    exterior = SpherePoint(0.4 - 0.3j)
    for k in rng.integers(0, len(words), 10):
        u = words[int(k)]
        z = u.map.apply(exterior)
        reduced, word = reduce_to_fundamental_domain(std_group, z)
        for c in std_group.circles:
            assert not c.contains(complex(reduced), closed=False)
        # the returned word carries z into the fundamental domain, so it is
        # the inverse of the word that produced z
        assert chordal(word.map.apply(z), reduced) < 1e-8
        assert word.letters == tuple(-l for l in reversed(u.letters))
        assert chordal(reduced, exterior) < 1e-7


def test_reduce_step_budget(std_group):
    deep = std_group.word_from_letters([1, 2, 1, 2, 1]).map.apply(SpherePoint(0.1j))
    with pytest.raises(SchottkyError):
        reduce_to_fundamental_domain(std_group, deep, max_steps=3)
    reduced, _ = reduce_to_fundamental_domain(std_group, deep, max_steps=10)
    for c in std_group.circles:
        assert not c.contains(complex(reduced), closed=False)


def test_nielsen_moves_preserve_classical(std_group):
    for move in (("invert", 1), ("swap", 1, 2), ("cyclic",)):
        moved = nielsen(std_group, move)
        assert moved.rank == std_group.rank
        assert moved.validation.ok, move


def test_nielsen_multiply_breaks_classical_here(std_group):
    moved = nielsen(std_group, ("multiply", 1, 2))
    assert not moved.validation.ok


def test_nielsen_rejects_bad_moves(std_group):
    with pytest.raises(SchottkyError):
        nielsen(std_group, ("invert", 3))
    with pytest.raises(SchottkyError):
        nielsen(std_group, ("frobnicate", 1))
