"""Release acceptance gate.

One test per numbered acceptance criterion, run end to end at the stated
tolerances.  Each test prints a single [PASS]/[FAIL] line with the measured
numbers so that a plain ``pytest -v`` run doubles as the acceptance report.
Criterion 8a fails for a structural reason (the sampled functional has
infinite-mean tails near the limit set, see the inline note) and is marked
strict-xfail: the honest failure is expected, a silent pass would be flagged.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from kleinlog import (
    NayataniDensity,
    SchottkyGroup,
    SeriesIntegrand,
    automorphy_residual,
    bers_integral,
    bloch_wigner,
    build_ps,
    conformality_report,
    elliptic_d2,
    estimate_delta,
    evaluate,
    fundamental_domain_samples,
    li,
    nielsen,
    quasi_invariance_residual,
    ramakrishnan_D,
)
from kleinlog.moebius import MoebiusMap

from tests.conftest import make_standard_group
from tests.test_cli import run_cli, std_spec
from tests.test_elliptic import brute_bilateral, sample_pairs
from tests.test_psmeasure import single_atom

# reference values computed once with a 50-digit series evaluation
D_AT_I = 0.9159655941772190
D_AT_HEX = 1.0149416064096537


def announce(capfd, ok: bool, label: str, detail: str) -> None:
    # bypass capture so every criterion leaves one visible line in `pytest -v`
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


def test_criterion_1_dilogarithm_anchors(capfd):
    t0 = time.perf_counter()
    errs = [
        abs(li(2, 1.0).value - math.pi**2 / 6),
        abs(li(2, -1.0).value + math.pi**2 / 12),
        abs(li(2, 0.5).value - (math.pi**2 / 12 - math.log(2) ** 2 / 2)),
        abs(bloch_wigner(1j) - D_AT_I),
        abs(bloch_wigner(cmath.exp(1j * math.pi / 3)) - D_AT_HEX),
    ]
    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 and dt < 1.0
    announce(capfd, ok, "criterion 1",
             f"five anchor values, max error {max(errs):.2e} (tol 1e-10), {dt:.3f}s")
    assert max(errs) <= 1e-10
    assert dt < 1.0


def test_criterion_2_bloch_wigner_identities(capfd):
    rng = random.Random(21)
    worst_inv = worst_d2 = 0.0
    for _ in range(1000):
        r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        z = r * cmath.exp(2j * math.pi * rng.random())
        worst_inv = max(worst_inv, abs(bloch_wigner(1 / z) + bloch_wigner(z)))
        worst_d2 = max(worst_d2,
                       abs(ramakrishnan_D(2, z, tol=1e-12).value - bloch_wigner(z)))
    worst_small = -math.inf
    for _ in range(100):
        r = math.exp(rng.uniform(math.log(1e-8), math.log(0.1)))
        z = r * cmath.exp(2j * math.pi * rng.random())
        bound = 2 * abs(z) * (1 + abs(math.log(abs(z))))
        worst_small = max(worst_small, abs(bloch_wigner(z)) - bound)
    ok = worst_inv <= 1e-10 and worst_d2 <= 1e-10 and worst_small <= 0.0
    announce(capfd, ok, "criterion 2",
             f"inversion {worst_inv:.2e}, D_2 vs D {worst_d2:.2e} "
             f"(tol 1e-10, 1000 pts each), small-z bound margin {worst_small:.2e}")
    assert worst_inv <= 1e-10
    assert worst_d2 <= 1e-10
    assert worst_small <= 0.0


def test_criterion_3_elliptic_average(capfd):
    t0 = time.perf_counter()
    rng = random.Random(33)
    pairs = sample_pairs(rng, 100)
    worst_shift = 0.0
    for q, x in pairs:
        v = elliptic_d2(q, x, tol=1e-10).value
        w = elliptic_d2(q, q * x, tol=1e-10).value
        worst_shift = max(worst_shift, abs(v - w))
    worst_oracle = 0.0
    for q, x in pairs[:30]:
        v = elliptic_d2(q, x, tol=1e-10).value
        worst_oracle = max(worst_oracle, abs(v - brute_bilateral(q, x, 1e-13)))
    dt = time.perf_counter() - t0
    ok = worst_shift <= 2e-10 and worst_oracle <= 1e-10 and dt < 5.0
    announce(capfd, ok, "criterion 3",
             f"q-shift invariance {worst_shift:.2e} (100 pairs, tol 2e-10), "
             f"bilateral oracle {worst_oracle:.2e} (30 pairs, tol 1e-10), {dt:.2f}s")
    assert worst_shift <= 2e-10
    assert worst_oracle <= 1e-10
    assert dt < 5.0


def test_criterion_4_word_enumeration(capfd):
    g = make_standard_group()
    t0 = time.perf_counter()
    lengths = {}
    total = 0
    for w in g.enumerate_words(10):
        lengths[len(w.letters)] = lengths.get(len(w.letters), 0) + 1
        total += 1
    dt = time.perf_counter() - t0
    expected = {n: 4 * 3 ** (n - 1) for n in range(1, 11)}
    expected[0] = 1
    counts_ok = lengths == expected and lengths[10] == 78732
    # the vectorized shell cache must agree with the generator
    mats_ok = all(g.shell_matrices(n).shape[0] == expected[n] for n in range(1, 11))
    ok = counts_ok and mats_ok and total == 118097 and dt < 2.0
    announce(capfd, ok, "criterion 4",
             f"shell counts exact to depth 10 (top shell {lengths.get(10)}), "
             f"{total} words in {dt:.2f}s")
    assert counts_ok
    assert mats_ok
    assert total == 118097
    assert dt < 2.0


def test_criterion_5_critical_exponent(capfd):
    t0 = time.perf_counter()
    cyc = SchottkyGroup([MoebiusMap.scaling(4.0)], cyclic_diagnostic=True)
    d_cyc = estimate_delta(cyc, resolution=0.002, max_depth=10).delta

    g = make_standard_group()
    e10 = estimate_delta(g, resolution=0.01, max_depth=10)
    e12 = estimate_delta(g, resolution=0.01, max_depth=12)
    width = e10.bracket[1] - e10.bracket[0]
    depth_shift = abs(e12.delta - e10.delta)

    d_small = estimate_delta(make_standard_group(0.25), resolution=0.01,
                             max_depth=10).delta

    move_shift = 0.0
    for move in (("invert", 1), ("invert", 2), ("swap", 1, 2), ("cyclic",)):
        h = nielsen(g, move)
        assert h.validation.ok, f"move {move} should stay classical here"
        dm = estimate_delta(h, resolution=0.01, max_depth=10).delta
        move_shift = max(move_shift, abs(dm - e10.delta))
    dt = time.perf_counter() - t0

    ok = (d_cyc <= 0.01 and 0.0 < e10.delta < 1.0 and width <= 0.01
          and depth_shift <= 0.01 and d_small < e10.delta
          and move_shift <= 0.02 and dt < 60.0)
    announce(capfd, ok, "criterion 5",
             f"cyclic {d_cyc:.4f}, standard {e10.delta:.6f} "
             f"(bracket width {width:.4f}, depth shift {depth_shift:.4f}), "
             f"radius 0.25 gives {d_small:.4f}, "
             f"worst Nielsen shift {move_shift:.4f}, {dt:.1f}s")
    assert d_cyc <= 0.01
    assert 0.0 < e10.delta < 1.0
    assert width <= 0.01
    assert depth_shift <= 0.01
    assert d_small < e10.delta
    assert move_shift <= 0.02
    assert dt < 60.0


def test_criterion_6_ps_measure(capfd, std_group, sharp_delta):
    res = {d: quasi_invariance_residual(build_ps(std_group, sharp_delta, d),
                                        std_group)
           for d in (6, 8, 10)}
    wrong = quasi_invariance_residual(
        build_ps(std_group, sharp_delta.delta + 0.2, 8), std_group)
    rep = conformality_report(NayataniDensity(build_ps(std_group, sharp_delta, 8)),
                              std_group, n_points=50, seed=0)
    tracks = rep.max_rel_deviation <= rep.constant * rep.residual + 1e-12
    ok = (res[6] > res[8] > res[10] and wrong > res[8]
          and tracks and rep.constant < 10.0 and rep.n_points == 50)
    announce(capfd, ok, "criterion 6",
             f"residuals {res[6]:.2e} > {res[8]:.2e} > {res[10]:.2e}, "
             f"delta+0.2 inflates to {wrong:.2e}, conformality max dev "
             f"{rep.max_rel_deviation:.2e} within C={rep.constant:.2f} over 50 pts")
    assert res[6] > res[8] > res[10]
    assert wrong > res[8]
    assert tracks
    assert rep.constant < 10.0


def test_criterion_7_series_convergence(capfd, std_group):
    z, tol = 1j, 1e-8
    t0 = time.perf_counter()
    modes = {}
    for mode in ("holomorphic", "absolute"):
        r10 = evaluate(std_group, z=z, weight_mode=mode, max_len=10, tol=tol)
        r12 = evaluate(std_group, z=z, weight_mode=mode, max_len=12, tol=tol)
        modes[mode] = (r10, abs(r12.value - r10.value))

    samples = fundamental_domain_samples(std_group, 2, seed=11)
    bound = 0.0
    for s in samples:
        r = evaluate(std_group, z=s, max_len=10, tol=tol)
        bound = max(bound, (2 * r.tail_estimate + 1e-9) / (abs(r.value) + tol))
    gen_resid = {}
    decreasing = True
    for el in (1, 2):
        seq = [automorphy_residual(std_group, samples=samples, elements=[el],
                                   max_len=n)[0] for n in (6, 8, 10)]
        decreasing = decreasing and seq[0] > seq[1] > seq[2]
        gen_resid[el] = seq[-1]
    dt = time.perf_counter() - t0

    conv = all(r.verdict == "converged"
               and r.tail_estimate <= 1e-6 * abs(r.value)
               for r, _ in modes.values())
    stable = all(move < r.tail_estimate for r, move in modes.values())
    within = all(v <= bound for v in gen_resid.values())
    ok = conv and stable and within and decreasing and dt < 120.0
    announce(capfd, ok, "criterion 7",
             f"both modes converged at len 10 "
             f"(rel tails {', '.join(f'{r.tail_estimate / abs(r.value):.1e}' for r, _ in modes.values())}), "
             f"len 12 moves value by at most tail, automorphy per generator "
             f"{max(gen_resid.values()):.1e} <= {bound:.1e} and decreasing, {dt:.1f}s")
    assert conv
    assert stable
    assert decreasing
    assert within
    assert dt < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the sampled functional F^(-2) |D| has infinite mean against the "
    "orbit measure: F ~ dist^(-delta) toward the limit set makes the tail "
    "exponent (2 - delta)/2 < 1, so fresh-seed estimates cannot stabilize",
)
def test_criterion_8a_bers_stability(capfd, std_group, sharp_delta):
    den = NayataniDensity(build_ps(std_group, sharp_delta, 8))
    b1 = bers_integral(den, n_samples=10000, seed=1)
    b2 = bers_integral(den, n_samples=20000, seed=2)
    drift = abs(b2.estimate - b1.estimate) / abs(b1.estimate)
    ok = math.isfinite(b1.estimate) and math.isfinite(b2.estimate) and drift <= 0.05
    announce(capfd, ok, "criterion 8a",
             f"estimates {b1.estimate:.1f} -> {b2.estimate:.1f} under fresh "
             f"seed and doubled samples, drift {100 * drift:.0f}% (> 5%); "
             f"heavy-tail diagnostic fired on both "
             f"({b1.heavy_tail}, {b2.heavy_tail}), top decile share "
             f"{b2.decile_shares[-1]:.2f}")
    assert math.isfinite(b1.estimate) and math.isfinite(b2.estimate)
    assert drift <= 0.05


def test_criterion_8b_heavy_tail_flag(capfd):
    den = NayataniDensity(single_atom(delta=1.0, at=0j))
    one = SeriesIntegrand(lambda z: 1.0, bound=1.0,
                          evaluator_many=lambda a: np.ones(len(a)), name="one")
    r = bers_integral(den, one, n_samples=2000, seed=2)
    ok = r.heavy_tail and math.isfinite(r.estimate) and r.decile_shares[-1] > 0.5
    announce(capfd, ok, "criterion 8b",
             f"single-atom 1/phi^2 sampling flagged heavy-tailed, "
             f"top decile carries {r.decile_shares[-1]:.2f} of the mass")
    assert r.heavy_tail
    assert math.isfinite(r.estimate)


def test_criterion_9_determinism(capfd, tmp_path, std_group, sharp_delta):
    import json

    cfg_path = tmp_path / "std.json"
    cfg_path.write_text(json.dumps(std_spec()))
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"run{i}.json"
        p = run_cli("series", "eval", "--config", str(cfg_path), "--z", "0,1",
                    "--max-len", "8", "--strict", "--threads", threads,
                    "--out", str(out))
        assert p.returncode == 0, p.stderr.decode()
        outs.append(out.read_bytes())
    cli_ok = outs[0] == outs[1] == outs[2]

    den = NayataniDensity(build_ps(std_group, sharp_delta, 5))
    b1 = bers_integral(den, n_samples=2000, seed=5)
    b2 = bers_integral(den, n_samples=2000, seed=5)
    lib_ok = (b1.estimate == b2.estimate and b1.stderr == b2.stderr
              and b1.decile_shares == b2.decile_shares)
    ok = cli_ok and lib_ok
    announce(capfd, ok, "criterion 9",
             f"strict-mode CLI reports byte-identical across repeats and "
             f"threads 1|4 ({len(outs[0])} bytes), Monte Carlo repeat bitwise equal")
    assert cli_ok
    assert lib_ok
