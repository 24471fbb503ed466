import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import STD_CENTERS, STD_RADIUS, make_standard_group

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
