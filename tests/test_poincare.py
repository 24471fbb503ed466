import math
import tracemalloc

import numpy as np
import pytest

from kleinlog import poincare, schottky
from kleinlog._vec import FSUM_BLOCK, project
from kleinlog.moebius import INF, MoebiusMap, SpherePoint
from kleinlog.poincare import (
    BLOCH_WIGNER_INTEGRAND,
    DomainError,
    IntegrandBoundError,
    SeriesIntegrand,
    _evaluate_at,
    automorphy_residual,
    bers_integral,
    convergence_report,
    evaluate,
)
from kleinlog.polylog import D_GLOBAL_BOUND, bloch_wigner, bloch_wigner_many
from kleinlog.psmeasure import MeasureError, NayataniDensity, PSMeasure
from kleinlog.schottky import (
    SAMPLE_MARGIN,
    SchottkyError,
    SchottkyGroup,
    fundamental_domain_samples,
)

from tests.conftest import make_random_group, make_rank3_group, make_standard_group
from tests.test_psmeasure import single_atom


def test_trivial_group_reduces_to_bloch_wigner():
    g = SchottkyGroup([])
    for z in (1j, 0.25 + 0.5j, 5 - 2j):
        ev = evaluate(g, z=z, max_len=6)
        assert ev.value == bloch_wigner(z)
        assert ev.verdict == "converged"
        assert ev.tail_estimate == 0.0
    assert automorphy_residual(g, samples=(1j,), elements=[()])[0] == 0.0


def test_shell_bookkeeping_identity(std_group):
    ev = evaluate(std_group, z=1j, max_len=6)
    re = math.fsum(s.real for s in ev.shells)
    im = math.fsum(s.imag for s in ev.shells)
    assert complex(re, im) == ev.value
    assert len(ev.shells) == 7  # identity shell plus six word shells
    assert ev.weight_shells[0] == 1.0


def test_series_linear_in_integrand(std_group):
    doubled = SeriesIntegrand(
        lambda z: 2.0 * bloch_wigner(z),
        bound=2.0 * D_GLOBAL_BOUND,
        evaluator_many=lambda a: 2.0 * bloch_wigner_many(a),
        name="2*bloch-wigner",
    )
    base = evaluate(std_group, z=0.3 + 0.4j, max_len=5)
    twice = evaluate(std_group, doubled, z=0.3 + 0.4j, max_len=5)
    assert twice.value == 2.0 * base.value


def test_absolute_mode_real_value(std_group):
    ev = evaluate(std_group, z=1j, weight_mode="absolute", max_len=6)
    assert ev.value.imag == 0.0
    assert ev.value.real != 0.0


def test_holomorphic_real_axis_parity(std_group):
    # conjugation symmetry of this group plus D(conj z) = -D(z) forces the
    # real part to cancel exactly at real evaluation points
    for z in (5.0, 0.25, -7.0):
        ev = evaluate(std_group, z=complex(z), max_len=6)
        assert ev.value.real == 0.0
        assert ev.value.imag != 0.0


def test_comparability_constant(std_group):
    ev = evaluate(std_group, z=1j, max_len=5)
    assert ev.comparability >= 1.0
    assert math.isfinite(ev.comparability)
    ev_abs = evaluate(std_group, z=1j, weight_mode="absolute", max_len=5)
    assert ev_abs.comparability == 1.0


def test_tail_estimate_honest(std_group):
    for mode in ("holomorphic", "absolute"):
        e8 = evaluate(std_group, z=1j, weight_mode=mode, max_len=8)
        e10 = evaluate(std_group, z=1j, weight_mode=mode, max_len=10)
        assert abs(e10.value - e8.value) <= e8.tail_estimate
        assert e8.verdict == "converged"
        assert e8.tail_estimate < 1e-6 * abs(e8.value)


def test_short_truncation_is_inconclusive(std_group):
    ev = evaluate(std_group, z=1j, max_len=2, tol=1e-8)
    assert ev.verdict == "inconclusive"
    assert ev.tail_estimate > 1e-8


def test_automorphy_residual_decreases(std_group):
    samples = fundamental_domain_samples(std_group, 4, seed=3)
    res = [
        automorphy_residual(std_group, samples=samples, elements=[1], max_len=n)[0]
        for n in (4, 6, 8)
    ]
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-6


def test_automorphy_for_word_elements(std_group):
    samples = fundamental_domain_samples(std_group, 3, seed=5)
    r = automorphy_residual(std_group, samples=samples, elements=[(1, 2)],
                            max_len=8)[0]
    assert r < 1e-4


def test_automorphy_many_elements_equal_single_calls(std_group):
    samples = fundamental_domain_samples(std_group, 3, seed=7)
    for mode in ("holomorphic", "absolute"):
        both = automorphy_residual(std_group, samples=samples, max_len=5,
                                   weight_mode=mode, elements=[2, (1, 2)])
        one = [automorphy_residual(std_group, samples=samples, elements=[el],
                                   max_len=5, weight_mode=mode)[0]
               for el in (2, (1, 2))]
        assert np.array(both).view(np.int64).tolist() == \
            np.array(one).view(np.int64).tolist()
    assert automorphy_residual(std_group, samples=samples, elements=[]) == []
    with pytest.raises(SchottkyError, match="not reduced"):
        automorphy_residual(std_group, samples=samples, elements=[1, (1, -1)])


@pytest.mark.parametrize("mode", ["holomorphic", "absolute"])
@pytest.mark.parametrize("seed, rank", [(3, 2), (11, 2), (1, 3)])
def test_automorphy_residuals_are_those_of_the_evaluated_values(seed, rank, mode):
    """automorphy_residual sums only the series values, no weight sums and
    no comparability; its residuals are bit for bit those formed from
    evaluate(...).value at each sample and its images."""
    g = make_random_group(seed, rank)
    samples = fundamental_domain_samples(g, 2, seed=seed)
    elements, tol = (1, (2, -1)), 1e-8
    want = []
    for m in (g.letter_map(1), g.word_from_letters((2, -1)).map):
        worst = 0.0
        for p in samples:
            here = evaluate(g, None, p, mode, 5, tol).value
            there = evaluate(g, None, m.apply(p), mode, 5, tol).value
            w = (m.derivative if mode == "holomorphic" else m.spherical_derivative)(p)
            worst = max(worst, abs(w * there - here) / (abs(here) + tol))
        want.append(worst)
    got = automorphy_residual(g, None, samples, elements, 5, mode, tol)
    assert repr(got) == repr(want)


def test_domain_errors(std_group):
    with pytest.raises(DomainError):
        evaluate(std_group, z=2.0 + 0j, max_len=4)  # orbit of infinity
    with pytest.raises(DomainError):
        evaluate(std_group, z=INF, max_len=4)  # holomorphic weights need finite z
    # absolute weights handle infinity
    ev = evaluate(std_group, z=INF, weight_mode="absolute", max_len=4)
    assert math.isfinite(ev.value.real)
    with pytest.raises(ValueError):
        evaluate(std_group, z=1j, weight_mode="spherical", max_len=4)


def test_integrand_bound_enforced(std_group):
    lying = SeriesIntegrand(bloch_wigner, bound=0.05,
                            evaluator_many=bloch_wigner_many, name="lying")
    with pytest.raises(IntegrandBoundError):
        evaluate(std_group, lying, z=1j, max_len=3)
    with pytest.raises(TypeError):  # the vector form is required
        SeriesIntegrand(bloch_wigner)


@pytest.mark.parametrize("z", [0.3 + 0.7j, 3.0 - 1.2j])
@pytest.mark.parametrize("mode", ["holomorphic", "absolute"])
@pytest.mark.parametrize("make_group, max_len", [(make_standard_group, 8),
                                                 (make_rank3_group, 5)])
def test_walked_shells_match_word_by_word(make_group, max_len, mode, z):
    """Each shell sum against the words' scalar maps, derivatives and
    bloch_wigner, summed exactly: within 1e-14 of the shell's sum of
    |terms| (at most 2.9e-15 measured; perfbench checks 1e-12)."""
    g = make_group()
    ev = evaluate(g, z=z, weight_mode=mode, max_len=max_len)
    terms = [[] for _ in range(max_len + 1)]
    for w in g.enumerate_words(max_len):
        weight = (w.map.derivative(z) if mode == "holomorphic"
                  else w.map.spherical_derivative(z))
        terms[w.length].append(complex(weight * bloch_wigner(w.map.apply(z))))
    for got, ts in zip(ev.shells, terms):
        want = complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts))
        assert abs(got - want) <= 1e-14 * math.fsum(abs(t) for t in ts)


def use_block(monkeypatch, block):
    """Walk and sum series in blocks of `block` words, not FSUM_BLOCK."""
    monkeypatch.setattr(schottky, "FSUM_BLOCK", block)
    monkeypatch.setattr(poincare, "FSUM_BLOCK", block)


@pytest.mark.parametrize("mode", ["holomorphic", "absolute"])
@pytest.mark.parametrize("make_group", [make_standard_group, make_random_group])
def test_series_bits_do_not_depend_on_the_block(monkeypatch, make_group, mode):
    """The deepest shell comes in pieces of FSUM_BLOCK words and every
    piece is summed FSUM_BLOCK words at a time; any block size gives the
    same bits.  At length 7 the deepest shell, 2,916 words, comes in pieces
    at every size tried but the default."""
    g = make_group()
    z = fundamental_domain_samples(g, 1, seed=5)[0]

    def run(block):
        use_block(monkeypatch, block)
        ev = evaluate(g, z=z, weight_mode=mode, max_len=7)
        return repr((ev.value, ev.shells, ev.weight_shells, ev.comparability))

    want = run(FSUM_BLOCK)
    for block in (1, 7, 1000):
        assert run(block) == want


def test_automorphy_peak_memory_is_bounded(std_group):
    """perfbench's automorphy command (4 samples, elements 1 and 2, length
    10) streams its shells in blocks, so its traced peak stays below 8 MiB:
    5.6 MiB measured, where evaluating whole shells at once took 17.2 MiB."""
    samples = fundamental_domain_samples(std_group, 4, seed=0)
    tracemalloc.start()
    try:
        automorphy_residual(std_group, None, samples, (1, 2), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_series_peak_memory_is_bounded(std_group):
    """perfbench's series command (length 12) keeps two regions of walk
    pieces, num, den and letters only, and projects each block into one
    scratch, so its traced peak stays below 9 MiB: 6.5 MiB measured, and
    10.4 MiB where every whole shell had a part of one block of its own,
    with projected points, and every deeper piece was a fresh array."""
    tracemalloc.start()
    try:
        evaluate(std_group, None, 0.3 + 0.7j, "holomorphic", 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def overflowing_group() -> SchottkyGroup:
    """diag(1e30, 1e-30) and its conjugate by z -> z + 1: word matrices,
    and the orbit coordinates of z = 0.3 + 0.7i, overflow at length 11, and
    holomorphic weights at that z much sooner."""
    g = MoebiusMap(1e30, 0, 0, 1e-30)
    t = MoebiusMap(1, 1.0, 0, 1)
    return SchottkyGroup([g, t.compose(g).compose(t.inverse())],
                         cyclic_diagnostic=True)


@pytest.mark.parametrize("split", [1, 2])
def test_errors_in_shell_then_point_order(monkeypatch, split):
    """The same errors with blocks of FSUM_BLOCK / split words."""
    use_block(monkeypatch, FSUM_BLOCK // split)
    g = overflowing_group()
    with pytest.raises(DomainError) as err:
        evaluate(g, None, 0.3 + 0.7j, "absolute", 12)
    assert str(err.value) == "orbit coordinates overflow at length 11"
    with pytest.raises(DomainError) as err:
        evaluate(g, None, 0.3 + 0.7j, "holomorphic", 12)
    assert str(err.value) == ("holomorphic weight at an orbit pole or "
                              "overflowing at z = (0.3+0.7j)")


@pytest.mark.parametrize("split", [1, 2])
def test_integrand_error_of_the_shorter_shell_wins(monkeypatch, std_group, split):
    """An integrand that fails on the first word of shell 12 and on the
    last of shell 11 reports shell 11's failure, the one a pass shell by
    shell meets first, also where the blocks are FSUM_BLOCK / split words
    and shell 12 comes in twice as many pieces."""
    use_block(monkeypatch, FSUM_BLOCK // split)
    z = 0.3 + 0.7j

    def orbit_point(n, row):
        walk = next(std_group.orbits([z], n))
        return np.concatenate([project(piece.num, piece.den)[0]
                               for m, piece in walk if m == n])[row]

    in12, in11 = orbit_point(12, 0), orbit_point(11, std_group.shell_size(11) - 1)

    def marked(pts):
        vals = bloch_wigner_many(pts)
        vals[pts == in12] = 5.0
        vals[pts == in11] = 3.0
        return vals

    integrand = SeriesIntegrand(bloch_wigner, marked, D_GLOBAL_BOUND, "marked")
    with pytest.raises(IntegrandBoundError, match="'marked' reached 3.0,"):
        evaluate(std_group, integrand, z, "absolute", 12)


@pytest.mark.parametrize("block", [1, 2, FSUM_BLOCK])
def test_error_of_a_later_point_at_a_shorter_length_wins(monkeypatch, std_group,
                                                         block):
    """The points are walked one after another, yet the error raised is the
    one a pass shell by shell and point by point meets first: a failure in
    shell 3 at the second point beats one in shell 4 at the first, and of
    two failures in shell 3 the first point's wins.  With blocks of 1 or 2
    words every marked point is met in a block of its own, and shell 6
    comes in pieces of that many words; with blocks of FSUM_BLOCK words
    shells 1-6 of each point, 1,456 words, share one integrand call, whose
    largest value is shell 4's."""
    use_block(monkeypatch, block)
    zs = [0.3 + 0.7j, -0.4 + 0.9j]

    def orbit_point(z, n, row):
        walk = next(std_group.orbits([z], n))
        return np.concatenate([project(piece.num, piece.den)[0]
                               for m, piece in walk if m == n])[row]

    def marked(values):
        def evaluator(pts):
            vals = bloch_wigner_many(pts)
            for point, value in values.items():
                vals[pts == point] = value
            return vals

        return SeriesIntegrand(bloch_wigner, evaluator, D_GLOBAL_BOUND, "marked")

    late, short = orbit_point(zs[0], 4, 7), orbit_point(zs[1], 3, 2)
    tie = orbit_point(zs[0], 3, 30)
    for values, top in (({late: 5.0, short: 3.0}, "3.0"),
                        ({late: 5.0, short: 3.0, tie: 4.0}, "4.0")):
        with pytest.raises(IntegrandBoundError, match=f"reached {top},"):
            _evaluate_at(std_group, marked(values), zs, "absolute", 6)


def test_each_point_stops_at_its_first_error(monkeypatch, std_group):
    """A point's walk stops at the first error it meets: an integrand that
    fails on the first word of shell 6 wins over a SchottkyError that
    shell_terms raises on a later block of the same shell at the same
    point.  With blocks of 100 words, shell 6 (972 words) comes in 10."""
    use_block(monkeypatch, 100)
    z = 0.3 + 0.7j
    walk = next(std_group.orbits([z], 6))
    shell6 = np.concatenate([project(piece.num, piece.den)[0]
                             for n, piece in walk if n == 6])
    early, late = shell6[0], shell6[900]
    shell_terms = SchottkyGroup.shell_terms

    def marked_terms(self, *args):
        pts, infm, wts = shell_terms(self, *args)
        if (pts == late).any():
            raise SchottkyError("marked block")
        return pts, infm, wts

    def marked(pts):
        vals = bloch_wigner_many(pts)
        vals[pts == early] = 3.0
        return vals

    monkeypatch.setattr(SchottkyGroup, "shell_terms", marked_terms)
    integrand = SeriesIntegrand(bloch_wigner, marked, D_GLOBAL_BOUND, "marked")
    with pytest.raises(IntegrandBoundError, match="'marked' reached 3.0,"):
        evaluate(std_group, integrand, z, "absolute", 6)
    with pytest.raises(DomainError, match="marked block"):
        evaluate(std_group, None, z, "absolute", 6)


def test_staged_shell_error_beats_a_deeper_shell_terms_error(monkeypatch,
                                                              std_group):
    """Shells 1-5 (484 words) share one integrand call, made when the walk
    has gone past them.  An integrand that fails on shell 3 still wins over
    a SchottkyError that shell_terms raises on shell 5, met before that
    call: the error raised is the one a pass shell by shell meets first."""
    z = 0.3 + 0.7j
    walk = next(std_group.orbits([z], 3))
    in3 = [project(piece.num, piece.den)[0] for n, piece in walk if n == 3][0][5]
    shell_terms = SchottkyGroup.shell_terms

    def marked_terms(self, orbit, *args):
        if orbit.first.size == std_group.shell_size(5):
            raise SchottkyError("marked shell")
        return shell_terms(self, orbit, *args)

    def marked(pts):
        vals = bloch_wigner_many(pts)
        vals[pts == in3] = 3.0
        return vals

    monkeypatch.setattr(SchottkyGroup, "shell_terms", marked_terms)
    integrand = SeriesIntegrand(bloch_wigner, marked, D_GLOBAL_BOUND, "marked")
    with pytest.raises(IntegrandBoundError, match="'marked' reached 3.0,"):
        evaluate(std_group, integrand, z, "absolute", 6)
    with pytest.raises(DomainError, match="marked shell"):
        evaluate(std_group, None, z, "absolute", 6)


def test_fundamental_domain_samples(std_group):
    pts = fundamental_domain_samples(std_group, 8, seed=0)
    assert len(pts) == 8
    assert pts == fundamental_domain_samples(std_group, 8, seed=0)
    for p in pts:
        for c in std_group.circles:
            assert not c.contains(complex(p), closed=False)
            assert abs(p.value - c.center) >= c.radius + SAMPLE_MARGIN


def scalar_fundamental_domain_samples(group, n, seed):
    """The per-point loop that fundamental_domain_samples vectorizes."""
    from kleinlog._vec import uniform_sphere_points

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(64):
        if len(out) >= n:
            break
        pts, msk = uniform_sphere_points(rng, 8 * n)
        for p, m in zip(pts, msk):
            sp = INF if m else SpherePoint(complex(p))
            if len(out) < n and not any(
                    not sp.is_infinity and abs(sp.value - c.center) < c.radius + SAMPLE_MARGIN
                    for c in group.circles or ()):
                out.append(sp)
    return out


def test_fundamental_domain_samples_match_scalar_loop(std_group):
    from tests.conftest import make_standard_group

    wide = make_standard_group(0.9)
    diagnostic = SchottkyGroup([MoebiusMap(1, 1.0, 0, 1)], cyclic_diagnostic=True)
    for group in (std_group, wide, diagnostic):
        for n in (2, 4, 8, 40):
            for seed in (0, 3, 5, 7, 11, 123):
                assert (fundamental_domain_samples(group, n, seed)
                        == scalar_fundamental_domain_samples(group, n, seed))


def test_convergence_report(std_group):
    rep = convergence_report(std_group, max_len=6, resolution=1e-3)
    assert len(rep.exponents) == 3
    assert rep.exponents[0] == rep.delta
    assert rep.exponents[2] == 1.0
    assert rep.delta_bracket[0] <= rep.delta <= rep.delta_bracket[1]
    # above the critical exponent the shell sums contract
    assert all(r < 1.0 for r in rep.ratios[2][-2:])


def test_bers_deterministic(std_group, sharp_delta):
    from kleinlog.psmeasure import build_ps

    den = NayataniDensity(build_ps(std_group, sharp_delta, 5))
    a = bers_integral(den, n_samples=1500, seed=9)
    b = bers_integral(den, n_samples=1500, seed=9)
    assert a == b
    assert a.n_samples == 1500
    assert math.isfinite(a.estimate)


def test_bers_zero_integrand(std_group, sharp_delta):
    from kleinlog.psmeasure import build_ps

    den = NayataniDensity(build_ps(std_group, sharp_delta, 5))
    zero = SeriesIntegrand(lambda z: 0.0, bound=1.0,
                           evaluator_many=lambda a: np.zeros(len(a)), name="zero")
    r = bers_integral(den, zero, n_samples=1000, seed=1)
    assert r.estimate == 0.0
    assert r.stderr == 0.0
    assert not r.heavy_tail


def test_bers_flags_single_atom_heavy_tail():
    # phi^(-2) around a single atom is not integrable; the decile diagnostic
    # must flag the attempt regardless of the delta used
    den = NayataniDensity(single_atom(delta=1.0, at=0j))
    one = SeriesIntegrand(lambda z: 1.0, bound=1.0,
                          evaluator_many=lambda a: np.ones(len(a)), name="one")
    r = bers_integral(den, one, n_samples=2000, seed=2)
    assert r.heavy_tail
    assert r.decile_shares[-1] > 0.5


def test_bers_input_validation(std_group, sharp_delta):
    from kleinlog.psmeasure import build_ps

    den = NayataniDensity(build_ps(std_group, sharp_delta, 5))
    with pytest.raises(ValueError):
        bers_integral(den, n_samples=10, seed=0)
