import contextlib
import io
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import (
    STD_CENTERS,
    STD_RADIUS,
    make_random_group,
    make_standard_group,
)

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "kleinlog", *args],
        capture_output=True, timeout=600,
    )


def std_spec() -> dict:
    g = make_standard_group()
    gens = [
        {"matrix": [[m.a.real, m.a.imag], [m.b.real, m.b.imag],
                    [m.c.real, m.c.imag], [m.d.real, m.d.imag]]}
        for m in g.generators
    ]
    circles = [{"center": [c.real, c.imag], "radius": STD_RADIUS}
               for c in STD_CENTERS]
    return {"group": {"generators": gens, "circles": circles}}


@pytest.fixture
def std_config(tmp_path):
    path = tmp_path / "std.json"
    path.write_text(json.dumps(std_spec()))
    return str(path)


def test_polylog_bloch_wigner_example():
    r = run_cli("polylog", "--bloch-wigner", "--z", "0,1")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert set(rep) == {"command", "config_hash", "results", "diagnostics"}
    assert abs(rep["results"]["value"] - 0.9159655941772190) < 1e-10


def test_series_eval_trivial_group_matches_polylog(tmp_path):
    cfg = tmp_path / "trivial.json"
    cfg.write_text(json.dumps({"group": {"generators": []}}))
    a = json.loads(run_cli("--config", str(cfg), "series", "eval",
                           "--z", "0.3,0.7").stdout)
    b = json.loads(run_cli("polylog", "--bloch-wigner", "--z", "0.3,0.7").stdout)
    assert a["results"]["value"][0] == b["results"]["value"]
    assert a["results"]["value"][1] == 0.0
    assert a["results"]["verdict"] == "converged"


def test_unknown_key_rejected(tmp_path):
    spec = std_spec()
    spec["radius_fudge"] = 1.1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec))
    r = run_cli("--config", str(cfg), "group", "validate")
    assert r.returncode == 2
    assert b"radius_fudge" in r.stderr


def test_bad_multiplier_rejected_naming_field(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"group": {"generators": [
        {"fixed_points": [[1, 0], [-1, 0]], "multiplier": [0.5, 0]}
    ]}}))
    r = run_cli("--config", str(cfg), "group", "validate")
    assert r.returncode == 2
    assert b"multiplier" in r.stderr


def test_malformed_json_reports_line(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "group": {,}\n}\n')
    r = run_cli("--config", str(cfg), "group", "validate")
    assert r.returncode == 2
    assert b"line 2" in r.stderr


def test_invalid_group_geometry_rejected(tmp_path):
    spec = std_spec()
    for c in spec["group"]["circles"]:
        c["radius"] = 1.6  # neighbours overlap
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec))
    r = run_cli("--config", str(cfg), "group", "validate")
    assert r.returncode == 2


def test_inconclusive_series_exits_3(std_config):
    r = run_cli("--config", std_config, "series", "eval", "--z", "0,1",
                "--max-len", "2")
    assert r.returncode == 3
    rep = json.loads(r.stdout)
    assert rep["results"]["verdict"] == "inconclusive"


def test_group_validate_and_delta(std_config):
    r = run_cli("--config", std_config, "group", "validate")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["results"]["ok"] is True
    assert rep["results"]["rank"] == 2

    r = run_cli("--config", std_config, "group", "delta", "--depth", "8")
    rep = json.loads(r.stdout)
    d = rep["results"]["delta"]
    lo, hi = rep["results"]["bracket"]
    assert lo <= d <= hi
    assert 0.25 < d < 0.35


def test_group_delta_reports_level(std_config):
    outs = {main_io("--config", std_config, "--threads", t, "group", "delta",
                    "--depth", "12", "--resolution", "1e-5") for t in ("1", "4")}
    assert len(outs) == 1
    ((code, out, err),) = outs
    assert code == 0, err
    res = json.loads(out)["results"]
    assert set(res) == {"delta", "bracket", "level", "max_depth"}
    lo, hi = res["bracket"]
    assert lo < res["delta"] < hi and hi - lo <= 1e-5
    assert res["delta"] == 0.5 * (lo + hi) and res["level"] == 4
    # the proven bracket holds the dynamical determinant's delta_8
    assert lo <= 0.29840310166 <= hi


def test_group_delta_settles_where_the_determinant_did_not(tmp_path):
    """On random rank 3, seed 1, the dynamical determinant's delta_6 and
    delta_8 differ by 1.3e-5, so it refused resolution 1e-5 with exit 3;
    the level-5 cylinder bracket is 1.6e-6 wide."""
    cfg = random_group_config(tmp_path, 1, 3)
    code, out, err = main_io("--config", cfg, "group", "delta", "--resolution", "1e-5")
    assert code == 0, err
    res = json.loads(out)["results"]
    lo, hi = res["bracket"]
    assert res["level"] == 5 and hi - lo <= 1e-5
    assert lo <= 0.4832562233746294 <= hi  # the determinant's delta_8


@pytest.mark.parametrize("args, code, cause", [
    (("--depth", "3"), 2, "config error: --depth: must be >= 4, got 3"),
    (("--depth", "5", "--resolution", "1e-9"), 3,
     "numeric error: delta did not settle to resolution 1e-09 by level 5: bracket ["),
    # below the floor near 5e-15, where eta (2.9e-15) dominates, level 11
    # narrows level 10's 5.6e-15 by 2e-16, far short of 1e-15: refused
    # there, before the cap's level 12 (2.1 million matrix entries)
    (("--resolution", "1e-15"), 3,
     "numeric error: delta did not settle to resolution 1e-15 by level 11: bracket ["),
])
def test_group_delta_rejections_name_their_cause(std_config, args, code, cause):
    got, out, err = main_io("--config", std_config, "group", "delta", *args)
    assert got == code and out == ""
    assert err.startswith(cause), err


@pytest.mark.parametrize("matrix, source", [
    ([[2, 0], [0, 0], [0, 0], [0.5, 0]], [-2, 0]),    # 4z, affine
    ([[2, 0], [4.25, 0], [1, 0], [2, 0]], [-2.5, 0]),  # pole -2 on circle 0
    ([[3, 0], [0, 0], [1e-170, 0], [1 / 3, 0]], [-2, 0]),  # det / c^2 overflows
], ids=["affine", "pole_on_circle", "far_pole"])
def test_group_validate_without_a_pole_inside_exits_2(tmp_path, matrix, source):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"group": {
        "generators": [{"matrix": matrix}],
        "circles": [{"center": source, "radius": 0.5},
                    {"center": [2, 0], "radius": 0.5}]}}))
    assert main_io("--config", str(cfg), "group", "validate") == (
        2, "", "config error: group: generator 1 maps an exterior point of circle 0 "
        "outside its partner disk 1\n")


def test_group_built_and_validated_once(std_config, monkeypatch):
    from kleinlog.schottky import SchottkyGroup

    calls = []
    validate = SchottkyGroup.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SchottkyGroup, "validate", counting)
    code, _, err = main_io("--config", std_config, "group", "delta",
                           "--depth", "6")
    assert code == 0, err
    assert len(calls) == 1


def test_limit_set_ppm(std_config, tmp_path):
    out = tmp_path / "ls.ppm"
    r = run_cli("--config", std_config, "group", "limitset", "--depth", "5",
                "--format", "ppm", "--out", str(out))
    assert r.returncode == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n512 512\n255\n")
    header, body = data.split(b"255\n", 1)
    img = np.frombuffer(body, dtype=np.uint8).reshape(512, 512, 3)
    ys, xs = np.nonzero(img[:, :, 0] == 255)
    assert len(ys) > 0
    R = 4.0
    z = ((xs + 0.5) / 512 * 2 * R - R) + 1j * (R - (ys + 0.5) / 512 * 2 * R)
    diag = (2 * R / 512) * math.sqrt(2)
    ok = np.zeros(len(z), dtype=bool)
    for c in STD_CENTERS:
        ok |= np.abs(z - c) <= STD_RADIUS + diag
    assert ok.all()


def test_measure_csv_roundtrip_via_cli(std_config, tmp_path):
    out = tmp_path / "m.csv"
    r = run_cli("--config", std_config, "measure", "build", "--depth", "5",
                "--delta", "0.2984", "--out", str(out))
    assert r.returncode == 0
    from kleinlog.psmeasure import read_measure_csv, write_measure_csv

    m = read_measure_csv(out)
    assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
    again = tmp_path / "m2.csv"
    write_measure_csv(m, again)
    assert out.read_bytes() == again.read_bytes()

    spec = std_spec()
    spec["measure_csv"] = str(out)
    cfg = tmp_path / "withcsv.json"
    cfg.write_text(json.dumps(spec))
    r = run_cli("--config", str(cfg), "measure", "residual")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["results"]["residual"] < 0.01


def test_nielsen_output_reimports(std_config, tmp_path):
    r = run_cli("--config", std_config, "group", "nielsen", "--move", "swap:1:2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["results"]["ok"] is True
    cfg = tmp_path / "moved.json"
    cfg.write_text(json.dumps({"group": rep["results"]["group"]}))
    r2 = run_cli("--config", str(cfg), "group", "validate")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["results"]["ok"] is True


def test_elliptic_cli_matches_library():
    from kleinlog.elliptic import elliptic_d2

    r = run_cli("elliptic", "--q", "0.5,0", "--x", "0.3,0.4")
    rep = json.loads(r.stdout)
    assert rep["results"]["value"] == elliptic_d2(0.5, 0.3 + 0.4j, 1e-10).value


def test_strict_runs_byte_identical(std_config, tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"run_{tag}.json"
        r = run_cli("--config", std_config, "--threads", threads, "series",
                    "eval", "--z", "0.25,0", "--max-len", "7", "--out", str(out))
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_long_series_byte_identical_across_threads(std_config):
    # shell 11 has 236,196 points, more than 2 * EVAL_CHUNK
    outs = {main_io("--config", std_config, "--threads", t, "series", "eval",
                    "--max-len", "11", "--weight", "absolute", "--z", "0.3,0.7")
            for t in ("1", "2", "4")}
    assert len(outs) == 1
    ((code, _, err),) = outs
    assert code == 0, err


def test_threads_flag_starts_no_thread(std_config, monkeypatch):
    """--threads is accepted and has no effect: no command starts a thread.
    bers --samples 3000 at depth 8 walks three 1,024-point batches of F."""
    import threading

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for cmd in (("series", "automorphy", "--max-len", "6", "--samples", "2"),
                ("bers", "--depth", "8", "--samples", "3000", "--seed", "5",
                 "--delta", "0.2984")):
        one, four = (main_io("--config", std_config, "--threads", t, *cmd)
                     for t in ("1", "4"))
        assert one[0] == 0, one[2]
        assert four == one


def test_report_written_to_out_path(std_config, tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("--config", std_config, "group", "delta", "--depth", "6",
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == b""
    rep = json.loads(out.read_text())
    assert rep["command"] == "group"


def test_missing_config_rejected(tmp_path):
    r = run_cli("--config", str(tmp_path / "nope.json"), "group", "validate")
    assert r.returncode == 2
    assert b"nope.json" in r.stderr


def test_series_needs_group(tmp_path):
    r = run_cli("series", "eval", "--z", "0,1")
    assert r.returncode == 2
    assert b"group" in r.stderr


@pytest.mark.parametrize("args, flag", [
    (("bers", "--samples", "0"), "--samples"),
    (("bers", "--samples", "999", "--delta", "0.3"), "--samples"),
    (("bers", "--depth", "0"), "--depth"),
    (("bers", "--depth", "1", "--delta", "0.3"), "--depth"),
    (("measure", "build", "--depth", "0"), "--depth"),
    (("series", "automorphy", "--samples", "0"), "--samples"),
    (("series", "eval", "--z", "0,1", "--tol", "0"), "--tol"),
    (("group", "delta", "--depth", "0"), "--depth"),
    (("group", "delta", "--depth", "6", "--threads", "0"), "--threads"),
    (("series", "automorphy", "--element", "abc"), "--element"),
    (("group", "nielsen", "--move", "multiply:1"), "--move"),
    (("elliptic", "--q", "inf", "--x", "0.3,0"), "--q"),
    (("series", "eval", "--z", "1e309,0"), "--z"),
    (("polylog", "--z", "0.5", "--li", "0"), "--li"),
    (("polylog", "--z", "0.5", "--ramakrishnan", "0"), "--ramakrishnan"),
    (("series", "eval", "--z", "0,1", "--max-len", "-1"), "--max-len"),
])
def test_zero_and_small_flags_rejected(std_config, capsys, args, flag):
    from kleinlog.cli import main

    assert main(["--config", std_config, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}:"), err


def test_bers_reports_density_error_bound(std_config):
    r = run_cli("--config", std_config, "bers", "--depth", "6", "--samples",
                "1000", "--delta", "0.2984", "--seed", "3")
    assert r.returncode == 0
    res = json.loads(r.stdout)["results"]
    assert 0.0 < res["density_rel_err"] <= 1e-12
    assert res["estimate_rel_err"] >= (2.0 / 0.2984) * res["density_rel_err"]


@pytest.mark.parametrize("weight", ["holomorphic", "absolute"])
def test_series_eval_report_pinned(std_config, weight):
    """The exact bytes of a len-10 report in each weight mode, so that any
    change of summation order or rounding shows.  Recorded with numpy 2.4 on
    x86-64 Linux; another libm may move last digits."""
    r = run_cli("--config", std_config, "series", "eval", "--max-len", "10",
                "--z", "0.3,0.7", "--weight", weight)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (DATA / f"series_eval_len10_{weight}.json").read_bytes()


@pytest.mark.parametrize("weight", ["holomorphic", "absolute"])
def test_series_automorphy_report_pinned(std_config, weight):
    """The exact bytes of a len-10 automorphy report over 4 samples in each
    weight mode, recorded like the pinned series eval reports."""
    r = run_cli("--config", std_config, "series", "automorphy", "--max-len",
                "10", "--samples", "4", "--weight", weight)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (DATA / f"series_automorphy_len10_{weight}.json").read_bytes()


@pytest.mark.parametrize("threads", ["1", "4"])
def test_series_report_pinned(std_config, threads):
    """The exact bytes of a len-10 convergence report, recorded like the
    pinned series eval reports; --threads does not change them."""
    r = run_cli("--config", std_config, "series", "report", "--max-len", "10",
                "--threads", threads)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (DATA / "series_report_len10.json").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name, args", [
    ("series_eval_len12_holomorphic.json",
     ("series", "eval", "--max-len", "12", "--z", "0.3,0.7", "--weight",
      "holomorphic")),
    ("series_eval_len12_absolute.json",
     ("series", "eval", "--max-len", "12", "--z", "0.3,0.7", "--weight",
      "absolute")),
    ("series_automorphy_len11.json",
     ("series", "automorphy", "--max-len", "11", "--samples", "2", "--seed", "5")),
])
def test_streamed_shell_reports_pinned(std_config, threads, name, args):
    """The exact bytes of reports whose shells 11 and 12 come in pieces;
    --threads does not change them."""
    r = run_cli("--config", std_config, "--threads", threads, *args)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (DATA / name).read_bytes()


def overflowing_config(tmp_path) -> Path:
    from tests.test_poincare import overflowing_group

    gens = [{"matrix": [[v.real, v.imag] for v in (m.a, m.b, m.c, m.d)]}
            for m in overflowing_group().generators]
    cfg = tmp_path / "overflowing.json"
    cfg.write_text(json.dumps({"group": {"generators": gens,
                                         "cyclic_diagnostic": True}}))
    return cfg


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_group_exits_3_naming_the_first_error(tmp_path, threads):
    cfg = overflowing_config(tmp_path)
    base = ("--config", str(cfg), "--threads", threads, "series", "eval",
            "--max-len", "12", "--z", "0.3,0.7")
    assert main_io(*base, "--weight", "absolute") == (
        3, "", "numeric error: orbit coordinates overflow at length 11\n")
    assert main_io(*base) == (
        3, "", "numeric error: holomorphic weight at an orbit pole or "
               "overflowing at z = (0.3+0.7j)\n")


@pytest.mark.parametrize("args", [
    ("group", "delta", "--depth", "12"),
    ("series", "report", "--max-len", "12", "--z", "0.3,0.7"),
])
def test_delta_of_a_group_without_circles_exits_3_naming_the_cause(tmp_path, args):
    """The overflowing group is a rank-2 cyclic_diagnostic group: it has no
    defining circles to grow cylinder disks from, so the delta bracket that
    both commands start with has no certificate."""
    assert main_io("--config", str(overflowing_config(tmp_path)), *args) == (
        3, "", "numeric error: delta needs defining circles, and this rank-2 "
               "cyclic_diagnostic group has none\n")


def test_deep_rank1_shells_refused_or_finite(tmp_path):
    """Generator 1 of the standard group alone: the orbit coordinates of
    0.3 + 0.7i, and those of its fixed points that `group limitset` walks,
    overflow at length 339, and the denominator |num|^2 + |den|^2 of its
    spherical weights overflows from length 170 on.  An overflow exits 3
    naming the length; below it every report is finite, and no numpy
    warning escapes."""
    spec = std_spec()["group"]
    cfg = tmp_path / "rank1.json"
    cfg.write_text(json.dumps({"group": {"generators": spec["generators"][:1],
                                         "circles": spec["circles"][:2]}}))

    def no_nan(token):
        raise AssertionError(f"{token} in the report")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in (("series", "eval", "--z", "0.3,0.7", "--max-len", "400",
                      "--weight", "absolute"), ("group", "limitset", "--depth", "400")):
            assert main_io("--config", str(cfg), *args) == (
                3, "", "numeric error: orbit coordinates overflow at length 339\n")
        code, out, err = main_io("--config", str(cfg), "series", "eval",
                                 "--z", "0.3,0.7", "--max-len", "300",
                                 "--weight", "absolute")
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=no_nan)
        code, out, err = main_io("--config", str(cfg), "series", "report",
                                 "--max-len", "300")
    assert (code, err) == (0, "")
    res = json.loads(out, parse_constant=no_nan)["results"]
    # delta = 0: each shell sum is the count of its two words
    assert res["exponents"][0] == 0.0
    assert res["shell_sums"][0] == [2.0] * 300
    assert res["ratios"][0] == [1.0] * 299
    # the s = 1/2 sums stay positive past that overflow, down to about 4e-273
    assert all(v > 0.0 for v in res["shell_sums"][1])
    assert len(res["ratios"][1]) == 299


@pytest.mark.parametrize("extra, calls, code", [
    ((), 12, 0), (("--element", "1"), 8, 0), (("--element", "3"), 0, 2),
])
def test_series_automorphy_evaluates_each_point_once(std_config, monkeypatch,
                                                     extra, calls, code):
    """S(z) once per sample and S(gz) once per sample and element: `calls`
    points, each with one walk of its orbit summed over shells 1..3, and no
    other walk.  A bad element is refused before any walk."""
    from kleinlog.schottky import SchottkyGroup

    seen = {"shell_terms": 0, "_walk": 0}

    def count(name):
        method = getattr(SchottkyGroup, name)

        def counting(*a, **k):
            seen[name] += 1
            return method(*a, **k)

        monkeypatch.setattr(SchottkyGroup, name, counting)

    count("shell_terms")
    count("_walk")
    got, _, err = main_io("--config", std_config, "series", "automorphy",
                          "--samples", "4", "--max-len", "3", *extra)
    assert (got, seen["shell_terms"], seen["_walk"]) == (code, 3 * calls, calls), err
    if code:
        assert err == "validation error: letter 3 out of range for rank 2\n"


def test_cyclic_diagnostic_type_error_named_once(tmp_path):
    cfg = tmp_path / "cyclic.json"
    cfg.write_text(json.dumps({"group": {"generators": [],
                                         "cyclic_diagnostic": 1}}))
    assert main_io("--config", str(cfg), "group", "validate") == (
        2, "", "config error: group.cyclic_diagnostic: expected bool, got int\n")


def test_fast_mode_rejected_strict_is_a_no_op(std_config, tmp_path, capsys):
    from kleinlog.cli import main

    r = run_cli("--config", std_config, "series", "eval", "--max-len", "3",
                "--z", "0.3,0.7", "--fast")
    assert r.returncode == 2
    assert b"--fast" in r.stderr
    for mode, code in (("fast", 2), ("strict", 0)):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({**std_spec(), "mode": mode}))
        assert main(["--config", str(cfg), "--strict", "series", "eval",
                     "--max-len", "10", "--z", "0.3,0.7"]) == code
    out, err = capsys.readouterr()
    assert err.startswith("config error: mode:"), err
    pinned = json.loads((DATA / "series_eval_len10_holomorphic.json").read_text())
    assert json.loads(out)["results"] == pinned["results"]


def main_io(*argv):
    """In-process main: (exit code, stdout, stderr); argparse's own
    rejections count with their exit code."""
    from kleinlog.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def random_group_config(tmp_path, seed: int, rank: int) -> str:
    g = make_random_group(seed, rank)
    gens = [{"matrix": [[v.real, v.imag] for v in (m.a, m.b, m.c, m.d)]}
            for m in g.generators]
    circles = [{"center": [c.center.real, c.center.imag], "radius": c.radius}
               for c in g.circles]
    cfg = tmp_path / f"random_{seed}_{rank}.json"
    cfg.write_text(json.dumps({"group": {"generators": gens, "circles": circles}}))
    return str(cfg)


EVERY_COMMAND = [
    ("group", "validate"),
    ("group", "limitset", "--depth", "4"),
    ("group", "delta", "--resolution", "1e-3"),
    ("group", "nielsen", "--move", "multiply:1:2"),
    ("measure", "build", "--depth", "4", "--delta", "0.4"),
    ("measure", "residual", "--depth", "4", "--delta", "0.4"),
    ("series", "eval", "--z", "0.1,0.2", "--max-len", "5"),
    ("series", "eval", "--z", "0.1,0.2", "--max-len", "5", "--weight", "absolute"),
    ("series", "automorphy", "--max-len", "4", "--samples", "2"),
    ("series", "report", "--max-len", "5"),
    ("bers", "--depth", "4", "--samples", "1000"),
    ("bers", "--depth", "4", "--samples", "1000", "--delta", "0.4"),
]


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_random_groups_through_every_command(tmp_path, seed, rank):
    """On random classical groups every command ends with exit 0, 2
    (config) or 3 (numeric), and none raises."""
    cfg = random_group_config(tmp_path, seed, rank)
    for args in EVERY_COMMAND:
        code, _, err = main_io("--config", cfg, *args)
        assert code in (0, 2, 3), (args, code, err)


def test_parser_is_built_once_and_carries_nothing_over(std_config, tmp_path):
    """The parser is built on first use and kept.  Commands that differ in
    --strict, --seed, --weight, --threads and --config each give, after
    the others in either order, the bytes they give with a fresh parser."""
    from kleinlog.cli import _parser

    other = random_group_config(tmp_path, 1, 2)
    series = ("series", "eval", "--z", "0.3,0.7", "--max-len", "6", "--tol", "1e-4")
    bers = ("bers", "--depth", "4", "--samples", "1000", "--delta", "0.4")
    commands = [
        ("--config", std_config, *series),
        ("--config", std_config, *series, "--strict"),
        ("--strict", "--config", std_config, *series, "--weight", "absolute"),
        ("--config", std_config, *series, "--weight", "none"),
        ("--config", std_config, *bers, "--seed", "7"),
        ("--config", std_config, *bers),
        ("--config", std_config, "group", "delta", "--threads", "0"),
        ("--config", std_config, "group", "delta", "--resolution", "1e-3"),
        ("--config", other, "group", "delta", "--resolution", "1e-3"),
        ("group", "delta", "--resolution", "1e-3"),
    ]
    first = {}
    for args in commands:
        _parser.cache_clear()
        first[args] = main_io(*args)
    assert _parser() is _parser()
    codes = [first[args][0] for args in commands]
    assert codes == [0, 0, 0, 2, 0, 0, 2, 0, 0, 2]
    # each flag shows in the bytes, so a value carried over would too
    assert len({first[args] for args in commands}) == len(commands)
    for order in (commands, commands[::-1]):
        for args in order:
            assert main_io(*args) == first[args], args


@pytest.mark.parametrize("key, value", [
    ("odd_denominator", 5), ("delta", True), ("tol", 10**400), ("n", 3),
    ("m", 3), ("z", [1, 2, 3]), ("move", {"kind": "swap", "i": 1}),
    ("element", [1, "2"]), ("measure_csv", 7), ("seed", -1), ("width", 0),
    ("resolution", 2.0), ("weight", ["absolute"]), ("mode", "fast"),
])
def test_bad_config_value_names_its_key(tmp_path, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**std_spec(), key: value}))
    code, _, err = main_io("--config", str(cfg), "group", "validate")
    assert code == 2
    assert err.startswith(f"config error: {key}:"), err


def test_removed_csv_format_rejected(std_config):
    code, out, err = main_io("--config", std_config, "group", "limitset",
                             "--depth", "2", "--format", "csv")
    assert code == 2 and out == ""
    assert "--format" in err


@pytest.mark.parametrize("name, content, cause", [
    ("missing.csv", None, "No such file"),
    ("nobase.csv", '# {"delta": 0.3, "depth": 2}\nre,im,weight\n1.0,2.0,1.0\n',
     "line 1: header lacks 'basepoint'"),
    ("short.csv", '# {"basepoint": "inf", "delta": 0.3, "depth": 2}\n'
     're,im,weight\n1.0,2.0\n', "line 3:"),
])
def test_bad_measure_csv_rejected_naming_it(tmp_path, name, content, cause):
    csv = tmp_path / name
    if content is not None:
        csv.write_text(content)
    cfg = tmp_path / "withcsv.json"
    cfg.write_text(json.dumps({**std_spec(), "measure_csv": str(csv)}))
    code, _, err = main_io("--config", str(cfg), "measure", "residual")
    assert code == 2
    assert err.startswith("config error: measure_csv:") and cause in err, err


@pytest.mark.parametrize("weight", ["holomorphic", "absolute"])
@pytest.mark.parametrize("z, shown", [("1e300,1e299", "1e+300"),
                                      ("1e150,1e150", "1e+150")])
def test_huge_point_exits_cleanly(std_config, weight, z, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = main_io("--config", std_config, "series", "eval",
                                 "--z", z, "--max-len", "10", "--weight", weight)
    if code == 0:
        assert all(math.isfinite(v)
                   for v in json.loads(out)["results"]["value"]), out
    else:
        assert code == 3 and shown in err, err


def test_huge_point_holomorphic_weights_do_not_overflow(std_config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = main_io("--config", std_config, "series", "eval",
                                 "--z", "1e150,1e150", "--max-len", "10",
                                 "--weight", "holomorphic")
    assert code == 0, err
    assert json.loads(out)["results"]["verdict"] == "converged"


def test_polylog_order_flags_enter_config_hash():
    hashes = set()
    for flags in (("--li", "2"), ("--li", "5"), ("--ramakrishnan", "3"),
                  ("--ramakrishnan", "3", "--odd-denominator", "(2m)!"),
                  ("--bloch-wigner",)):
        code, out, _ = main_io("polylog", "--z", "0.5,0.1", *flags)
        assert code == 0
        hashes.add(json.loads(out)["config_hash"])
    assert len(hashes) == 5


@pytest.mark.parametrize("flags, z, shown", [
    (("--li", "134"), "-1,0", "Li_134"), (("--li", "171"), "3,1", "Li_171"),
    (("--li", "1024"), "0.3,0", "Li_1024"),
    (("--ramakrishnan", "171"), "0.3,0", "D_171"),
    (("--ramakrishnan", "134"), "-1,0", "D_134"),
])
def test_overflowing_polylog_order_exits_3_naming_it(flags, z, shown):
    """Orders whose constants (Bernoulli numbers, factorials, powers of
    k) leave the float range exit 3, naming the order and z."""
    z_repr = repr(complex(*map(float, z.split(","))))
    assert main_io("polylog", *flags, f"--z={z}") == (
        3, "", f"numeric error: {shown} overflows the float range at "
        f"z = {z_repr}\n")


@pytest.mark.parametrize("x, shown", [("1e-310,0", "(1e-310+0j)"),
                                      ("1e308,0", "(1e+308+0j)"),
                                      ("1e308,1e308", "(1e+308+1e+308j)")])
def test_extreme_elliptic_x_exits_2_naming_it(x, shown):
    """x where 2|x| or 2/|x| overflows is refused before any term."""
    assert main_io("elliptic", "--q", "0.5,0", "--x", x) == (
        2, "", "validation error: 2|x| and 2/|x| must be finite, got "
        f"x = {shown}\n")


def test_far_elliptic_x_runs_in_well_under_a_second():
    """x = 1e300 at q = 0.9 needs 6,878 pairs; with a tail bound whose work
    grew with the square of the pairs it took about 9 s, with one whose work
    a pair is constant about 0.1 s on a 2-vCPU x86-64 guest."""
    start = time.perf_counter()
    code, out, err = main_io("elliptic", "--q", "0.9,0", "--x", "1e300,0")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["terms_used"] == 13757
    assert elapsed < 1.0


def test_hopeless_elliptic_x_refused_before_any_work():
    """At q = 0.9999 and x = 1e300 the terms reach modulus 1/2 only at
    |k| = 6,914,342, far past the 500,000 pairs allowed, so no tail bound
    can meet tol: the command exits 2 at once, where running the loop to
    its end took about 14 s on a 2-vCPU x86-64 guest."""
    start = time.perf_counter()
    code, out, err = main_io("elliptic", "--q", "0.9999,0", "--x", "1e300,0")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == ("validation error: tail bound cannot reach tol 1e-10 within "
                   "500000 pairs: the terms fall to modulus 1/2 only at "
                   "|k| = 6914342\n")
    assert elapsed < 0.5


def test_hopeless_elliptic_q_refused_before_any_pair():
    """At q = 0.99999 the geometric part of the tail bound alone stays far
    above tol after 500,000 pairs, which ran for about 23 s before the loop
    refused; the bound at 500,000 pairs is taken first."""
    start = time.perf_counter()
    code, out, err = main_io("elliptic", "--q", "0.99999,0", "--x", "0.5,0.5")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("validation error: tail bound "), err
    assert err.endswith(" did not reach tol 1e-10 within 500000 pairs\n"), err
    assert elapsed < 0.5


@pytest.mark.parametrize("args", [
    ("series", "eval", "--z", "0.3,0.7", "--max-len", "14"),
    ("group", "delta", "--depth", "14"),
])
def test_shell_cache_limit_rejected_before_work(std_config, args):
    code, out, err = main_io("--config", std_config, *args)
    assert code == 2 and out == ""
    assert "4000000 words" in err, err


# random input never escapes main: every run ends in exit 0, 2 or 3 ----------

BASE = {"depth": 4, "max_len": 3, "samples": 2, "z": [0.3, 0.7],
        "q": [0.1, 0.2], "x": [0.7, 0.0],
        "move": {"kind": "swap", "i": 1, "j": 2}}
COMMANDS = [("polylog", "--z=0.3,0.2", "--li=2"),
            ("polylog", "--z=0.3,0.2", "--ramakrishnan=3"),
            ("elliptic",), ("group", "validate"), ("group", "limitset"),
            ("group", "delta"), ("group", "nielsen"), ("measure", "build"),
            ("measure", "residual"), ("series", "eval"),
            ("series", "automorphy"), ("series", "report"),
            ("bers", "--samples=1000")]
CONFIG_KEYS = ["group", "delta", "depth", "max_len", "tol", "seed", "weight",
               "samples", "mode", "window", "width", "height", "z", "q", "x",
               "resolution", "move", "element", "odd_denominator",
               "measure_csv"]
# (command, flag, bound on an integer value, so that runs stay small)
FLAGS = [(("series", "eval"), "--tol", None), (("elliptic",), "--tol", None),
         (("series", "eval"), "--max-len", 4),
         (("series", "report"), "--max-len", 4),
         (("group", "delta"), "--depth", 5),
         (("group", "limitset"), "--depth", 5), (("bers",), "--depth", 5),
         (("series", "automorphy"), "--seed", None),
         (("series", "eval"), "--weight", None),
         (("group", "delta"), "--threads", 4),
         (("group", "validate"), "--config", None),
         (("polylog",), "--z", None), (("series", "eval"), "--z", None),
         (("polylog", "--z=0.3,0.2"), "--li", 8),
         (("polylog", "--z=0.3,0.2"), "--ramakrishnan", 8),
         (("polylog", "--z=0.3,0.2", "--ramakrishnan=3"), "--odd-denominator",
          None),
         (("elliptic", "--x=0.7,0"), "--q", None),
         (("elliptic", "--q=0.1,0.2"), "--x", None),
         (("group", "delta"), "--resolution", None),
         (("group", "nielsen"), "--move", None),
         (("group", "limitset", "--format=ppm"), "--window", None),
         (("group", "limitset"), "--width", 64),
         (("group", "limitset"), "--height", 64),
         (("group", "limitset"), "--format", None),
         (("measure", "build"), "--delta", None),
         (("series", "automorphy"), "--element", None),
         (("series", "automorphy"), "--samples", 4),
         (("bers",), "--samples", None), (("bers",), "--delta", None)]

config_values = st.one_of(
    st.integers(-2, 4), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324]),
    st.booleans(), st.text(max_size=6), st.none(),
    st.lists(st.one_of(st.integers(-2, 4), st.floats()), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "i", "j", "x"]),
                    st.one_of(st.integers(-2, 3), st.text(max_size=8)),
                    max_size=3))


def _small(text: str, bound) -> bool:
    try:
        value = int(text)
    except ValueError:
        return True
    return bound is None or value <= bound


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.json"
    path.write_text(json.dumps({**std_spec(), **BASE}))
    return path


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cmd=st.sampled_from(COMMANDS),
       values=st.dictionaries(st.sampled_from(CONFIG_KEYS), config_values,
                              min_size=1, max_size=3))
def test_random_config_values_exit_0_2_or_3(base_config, cmd, values):
    cfg = base_config.with_name("random.json")
    data = {**json.loads(base_config.read_text()), **values}
    cfg.write_text(json.dumps(data))
    out = f"--out={base_config.with_name('out')}"
    code, _, err = main_io("--config", str(cfg), "--threads", "1", out, *cmd)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_flag_text_exits_0_2_or_3(base_config, data):
    cmd, flag, bound = data.draw(st.sampled_from(FLAGS))
    text = data.draw(st.text(max_size=10).filter(lambda t: _small(t, bound)))
    out = f"--out={base_config.with_name('out')}"
    code, _, err = main_io("--config", str(base_config), out, *cmd,
                           f"{flag}={text}")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


# non-loxodromic diagnostic groups: every command refuses cleanly ---------------

C45 = math.sqrt(0.5)
NON_LOXODROMIC = {"parabolic": [[1, 0], [1, 0], [0, 0], [1, 0]],     # z + 1
                  "elliptic": [[C45, C45], [0, 0], [0, 0], [C45, -C45]]}  # i z


@pytest.mark.parametrize("kind", sorted(NON_LOXODROMIC))
@pytest.mark.parametrize("cmd", COMMANDS, ids=" ".join)
def test_non_loxodromic_diagnostic_group_exits_cleanly(tmp_path, kind, cmd):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({**BASE, "group": {
        "generators": [{"matrix": NON_LOXODROMIC[kind]}],
        "cyclic_diagnostic": True}}))
    code, _, err = main_io("--config", str(cfg), f"--out={tmp_path / 'out'}",
                           *cmd)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if cmd == ("group", "limitset"):
        assert code == 2
        assert err == f"validation error: generator 1 is {kind}, not loxodromic\n"


def test_bers_reads_measure_csv(std_config, tmp_path):
    """bers takes its measure from measure_csv, as measure does; --depth
    then is not checked."""
    csv = tmp_path / "m.csv"
    code, _, err = main_io("--config", std_config, "measure", "build", "--depth",
                           "6", "--delta", "0.2984", "--out", str(csv))
    assert code == 0, err
    cfg = tmp_path / "withcsv.json"
    cfg.write_text(json.dumps({**std_spec(), "measure_csv": str(csv)}))
    code, built, err = main_io("--config", std_config, "bers", "--depth", "6",
                               "--delta", "0.2984", "--samples", "1000")
    assert code == 0, err
    for extra in ((), ("--depth", "1")):
        code, read, err = main_io("--config", str(cfg), "bers", "--samples",
                                  "1000", *extra)
        assert code == 0, err
        assert json.loads(read)["results"] == json.loads(built)["results"]
