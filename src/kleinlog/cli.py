"""Command-line interface: strict JSON config parsing, subcommand dispatch,
and deterministic JSON/CSV/PPM emission.

Exit codes: 0 success, 2 config or validation rejection, 3 numeric
non-convergence or runtime diagnostic.  Reports are JSON objects
{command, config_hash, results, diagnostics}; the hash covers only the
math-relevant effective settings, never --threads or output paths, so
runs stay byte-identical across thread counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .elliptic import ConvergenceRegimeError, elliptic_d2
from ._vec import fsum
from .moebius import INF, MoebiusMap, SpherePoint, as_sphere_point
from .poincare import (
    BLOCH_WIGNER_INTEGRAND,
    DomainError,
    IntegrandBoundError,
    automorphy_residual,
    bers_integral,
    convergence_report,
    evaluate,
    fundamental_domain_samples,
)
from .polylog import SingularArgumentError, bloch_wigner, li, ramakrishnan_D
from .psmeasure import (
    MeasureError,
    NayataniDensity,
    build_ps,
    quasi_invariance_residual,
    read_measure_csv,
    write_measure_csv,
)
from .schottky import (
    Circle,
    EstimationError,
    SchottkyError,
    SchottkyGroup,
    ValidationFailure,
    estimate_delta,
    limit_set,
    nielsen,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _want(obj, path, kind):
    if not isinstance(obj, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _complex_field(v, path) -> complex:
    if isinstance(v, str) and v == "inf":
        raise ConfigError(path, "infinity is not allowed here")
    if isinstance(v, (int, float)):
        return complex(float(v), 0.0)
    _want(v, path, list)
    if len(v) != 2 or not all(isinstance(c, (int, float)) for c in v):
        raise ConfigError(path, "complex values are two-element [re, im] arrays")
    return complex(float(v[0]), float(v[1]))


def _point_field(v, path) -> SpherePoint:
    if v == "inf":
        return INF
    return SpherePoint(_complex_field(v, path))


_GEN_KEYS = {"matrix", "fixed_points", "multiplier"}
_GROUP_KEYS = {"generators", "circles", "cyclic_diagnostic"}
_TOP_KEYS = {
    "group", "delta", "depth", "max_len", "tol", "seed", "weight", "samples",
    "mode", "window", "width", "height", "z", "q", "x", "resolution", "move",
    "element", "n", "m", "odd_denominator", "measure_csv",
}


@dataclass
class RunConfig:
    """Validated settings; None means "not given" and falls back to the
    owning module's default at dispatch time."""

    raw: dict = field(default_factory=dict)
    group_spec: dict = None
    delta: float = None
    depth: int = None
    max_len: int = None
    tol: float = None
    seed: int = None
    weight: str = None
    samples: int = None
    window: float = None
    width: int = None
    height: int = None
    z: SpherePoint = None
    q: complex = None
    x: complex = None
    resolution: float = None
    move: tuple = None
    element: object = None
    n: int = None
    m: int = None
    odd_denominator: str = None
    measure_csv: str = None

    def build_group(self) -> SchottkyGroup:
        if self.group_spec is None:
            raise ConfigError("group", "missing group spec")
        return _group_from_spec(self.group_spec)


def _group_from_spec(spec: dict) -> SchottkyGroup:
    gens = []
    for i, g in enumerate(spec.get("generators", [])):
        path = f"group.generators[{i}]"
        _want(g, path, dict)
        unknown = set(g) - _GEN_KEYS
        if unknown:
            raise ConfigError(path, f"unknown keys {sorted(unknown)}")
        if "matrix" in g:
            m = _want(g["matrix"], path + ".matrix", list)
            if len(m) != 4:
                raise ConfigError(path + ".matrix",
                                  "matrix is four [re, im] entries a, b, c, d")
            a, b, c, d = (_complex_field(e, f"{path}.matrix[{k}]")
                          for k, e in enumerate(m))
            try:
                gens.append(MoebiusMap(a, b, c, d))
            except ValueError as e:
                raise ConfigError(path + ".matrix", str(e))
        elif "fixed_points" in g or "multiplier" in g:
            fp = _want(g.get("fixed_points"), path + ".fixed_points", list)
            if len(fp) != 2:
                raise ConfigError(path + ".fixed_points",
                                  "need [attracting, repelling]")
            lam = _complex_field(g.get("multiplier"), path + ".multiplier")
            if abs(lam) <= 1.0:
                raise ConfigError(path + ".multiplier",
                                  f"multiplier modulus must exceed 1, got {abs(lam)}")
            p_att = _point_field(fp[0], path + ".fixed_points[0]")
            p_rep = _point_field(fp[1], path + ".fixed_points[1]")
            from .moebius import from_fixed_points_multiplier

            try:
                gens.append(from_fixed_points_multiplier(p_rep, p_att, lam))
            except ValueError as e:
                raise ConfigError(path, str(e))
        else:
            raise ConfigError(path, "need either matrix or fixed_points/multiplier")
    circles = None
    if "circles" in spec:
        circles = []
        for i, c in enumerate(spec["circles"]):
            path = f"group.circles[{i}]"
            _want(c, path, dict)
            unknown = set(c) - {"center", "radius"}
            if unknown:
                raise ConfigError(path, f"unknown keys {sorted(unknown)}")
            try:
                circles.append(Circle(_complex_field(c.get("center"), path + ".center"),
                                      float(c.get("radius", 0.0))))
            except ValueError as e:
                raise ConfigError(path, str(e))
    try:
        return SchottkyGroup(gens, circles,
                             cyclic_diagnostic=bool(spec.get("cyclic_diagnostic", False)))
    except ValidationFailure as e:
        raise ConfigError("group", "; ".join(e.report.violations))
    except SchottkyError as e:
        raise ConfigError("group", str(e))


def parse_config(path) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected with their path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"malformed JSON at line {e.lineno}: {e.msg}")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    _want(data, "config", dict)
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    cfg = RunConfig(raw=data)
    if "group" in data:
        g = _want(data["group"], "group", dict)
        bad = set(g) - _GROUP_KEYS
        if bad:
            raise ConfigError(f"group.{sorted(bad)[0]}", "unknown config key")
        _group_from_spec(g)  # validate now so errors surface as exit 2
        cfg.group_spec = g
    for key, conv in (("delta", float), ("tol", float), ("window", float),
                      ("resolution", float)):
        if key in data:
            v = data[key]
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise ConfigError(key, "expected a finite number")
            setattr(cfg, key, conv(v))
    for key in ("depth", "max_len", "seed", "samples", "width", "height",
                "n", "m"):
        if key in data:
            v = data[key]
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(key, "expected an integer")
            setattr(cfg, key, v)
    if "weight" in data:
        if data["weight"] not in ("holomorphic", "absolute"):
            raise ConfigError("weight", "must be holomorphic or absolute")
        cfg.weight = data["weight"]
    if "mode" in data and data["mode"] != "strict":
        # summation is always correctly rounded; "strict" stays accepted
        raise ConfigError("mode", f"must be strict, got {data['mode']!r}")
    if "odd_denominator" in data:
        cfg.odd_denominator = data["odd_denominator"]
    if "measure_csv" in data:
        cfg.measure_csv = _want(data["measure_csv"], "measure_csv", str)
    if "z" in data:
        cfg.z = _point_field(data["z"], "z")
    for key in ("q", "x"):
        if key in data:
            setattr(cfg, key, _complex_field(data[key], key))
    if "move" in data:
        mv = _want(data["move"], "move", dict)
        bad = set(mv) - {"kind", "i", "j"}
        if bad:
            raise ConfigError(f"move.{sorted(bad)[0]}", "unknown config key")
        kind = mv.get("kind")
        if kind not in ("invert", "swap", "multiply", "cyclic"):
            raise ConfigError("move.kind", "must be invert, swap, multiply or cyclic")
        parts = [kind]
        for idx_key in ("i", "j"):
            if idx_key in mv:
                v = mv[idx_key]
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ConfigError(f"move.{idx_key}", "expected an integer")
                parts.append(v)
        cfg.move = tuple(parts)
    if "element" in data:
        v = data["element"]
        if isinstance(v, int) and not isinstance(v, bool):
            cfg.element = v
        elif isinstance(v, list) and all(
                isinstance(l, int) and not isinstance(l, bool) for l in v):
            cfg.element = tuple(v)
        else:
            raise ConfigError("element", "expected a letter or a list of letters")
    return cfg


# serialization ----------------------------------------------------------------

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, SpherePoint):
        return "inf" if obj.is_infinity else [obj.value.real, obj.value.imag]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_hash(cfg: RunConfig, overrides: dict) -> str:
    """Hash of the math-relevant effective settings (config plus flag
    overrides); execution knobs are excluded by construction."""
    eff = dict(cfg.raw)
    eff.update({k: v for k, v in overrides.items() if v is not None})
    eff.pop("threads", None)
    canon = json.dumps(_jsonable(eff), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def emit_report(report: dict, out_path) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii") as f:
                f.write(text)
        except OSError as e:
            raise ConfigError(str(out_path), f"cannot write report: {e}")
    else:
        sys.stdout.write(text)


def render_limit_set_ppm(group: SchottkyGroup, depth: int, window: float,
                         width: int, height: int) -> bytes:
    """P6 raster of the limit-set sample in the window [-R, R]^2."""
    sample = limit_set(group, depth)
    img = np.zeros((height, width, 3), dtype=np.uint8)
    R = window
    for p in sample.points:
        if p.is_infinity:
            continue
        x, y = p.value.real, p.value.imag
        if not (-R <= x < R and -R < y <= R):
            continue
        i = int((x + R) / (2 * R) * width)
        j = int((R - y) / (2 * R) * height)
        if 0 <= i < width and 0 <= j < height:
            img[j, i] = (255, 255, 255)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()


def _write_bytes(data: bytes, out_path) -> None:
    if not out_path:
        raise ConfigError("--out", "binary output needs --out PATH")
    try:
        with open(out_path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise ConfigError(str(out_path), f"cannot write: {e}")


# dispatch ---------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand; the
    # SUPPRESS default keeps the subparser from clobbering a value that was
    # already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    S = argparse.SUPPRESS
    common.add_argument("--config", default=S, help="JSON config path")
    common.add_argument("--out", default=S, help="output path (default stdout)")
    common.add_argument("--tol", type=float, default=S)
    common.add_argument("--max-len", type=int, default=S, dest="max_len")
    common.add_argument("--depth", type=int, default=S)
    common.add_argument("--seed", type=int, default=S)
    common.add_argument("--weight", choices=("holomorphic", "absolute"), default=S)
    common.add_argument("--threads", type=int, default=S)
    # a no-op, since every sum is correctly rounded; it still enters
    # config_hash (via _overrides), so reports that pass it keep their hash
    common.add_argument("--strict", action="store_const", const="strict",
                        dest="mode", default=S)

    ap = argparse.ArgumentParser(prog="kleinlog", parents=[common],
                                 description="single-valued polylogarithms and "
                                             "Poincare series over Schottky groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polylog", parents=[common],
                       help="Li_n, Bloch-Wigner D, Ramakrishnan D_m")
    p.add_argument("--z", required=True, help="complex as re,im")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--bloch-wigner", action="store_true", dest="bw")
    kind.add_argument("--li", type=int, default=None, metavar="N")
    kind.add_argument("--ramakrishnan", type=int, default=None, metavar="M")
    p.add_argument("--odd-denominator", default=None, dest="odd_denominator")

    p = sub.add_parser("elliptic", parents=[common],
                       help="elliptic Bloch-Wigner average")
    p.add_argument("--q", required=False, help="complex as re,im")
    p.add_argument("--x", required=False, help="complex as re,im")

    p = sub.add_parser("group", parents=[common],
                       help="group validation, limit set, delta, moves")
    p.add_argument("action", choices=("validate", "limitset", "delta", "nielsen"))
    p.add_argument("--format", choices=("json", "ppm", "csv"), default="json")
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--move", default=None, help="kind:i[:j], e.g. multiply:1:2")
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)

    p = sub.add_parser("measure", parents=[common],
                       help="Patterson-Sullivan build and residuals")
    p.add_argument("action", choices=("build", "residual"))
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)

    p = sub.add_parser("series", parents=[common],
                       help="Poincare series evaluation and tests")
    p.add_argument("action", choices=("eval", "automorphy", "report"))
    p.add_argument("--z", default=None, help="complex as re,im, or inf")
    p.add_argument("--element", default=None, help="letter or comma letters")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--resolution", type=float, default=None)

    p = sub.add_parser("bers", parents=[common],
                       help="Monte-Carlo sphere integral of F^(2/delta)|D|")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    return ap


def _cli_complex(text: str, flag: str):
    if text == "inf":
        return INF
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(flag, f"expected re,im or inf, got {text!r}")


def _cli_move(text: str):
    parts = text.split(":")
    kind = parts[0]
    if kind not in ("invert", "swap", "multiply", "cyclic"):
        raise ConfigError("--move", f"unknown move kind {text!r}")
    try:
        return tuple([kind] + [int(p) for p in parts[1:]])
    except ValueError:
        raise ConfigError("--move", f"indices must be integers in {text!r}")


def _merged(cfg: RunConfig, args) -> RunConfig:
    # flags override config fields of the same name
    for key in ("tol", "max_len", "depth", "seed", "weight"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    for key in ("resolution", "samples", "window", "width", "height", "delta"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "move", None):
        cfg.move = _cli_move(args.move)
    if getattr(args, "element", None):
        el = args.element
        if "," in el:
            cfg.element = tuple(int(p) for p in el.split(","))
        else:
            cfg.element = int(el)
    if getattr(args, "z", None):
        p = _cli_complex(args.z, "--z")
        cfg.z = p if isinstance(p, SpherePoint) else SpherePoint(p)
    if getattr(args, "q", None):
        cfg.q = complex(_cli_complex(args.q, "--q"))
    if getattr(args, "x", None):
        cfg.x = complex(_cli_complex(args.x, "--x"))
    return cfg


def _overrides(args) -> dict:
    keys = ("tol", "max_len", "depth", "seed", "weight", "mode", "resolution",
            "samples", "window", "width", "height", "delta", "move", "element",
            "z", "q", "x")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


def _setting(value, default, flag: str, least):
    """The given value, or `default` when it was not given (None); a given
    value below `least` is rejected naming its flag."""
    if value is None:
        return default
    if not value >= least:
        raise ConfigError(flag, f"must be >= {least}, got {value!r}")
    return value


def _given(value, default):
    return default if value is None else value


def _run(args) -> tuple[dict, int]:
    config_path = getattr(args, "config", None)
    cfg = parse_config(config_path) if config_path else RunConfig(raw={})
    chash = config_hash(cfg, _overrides(args))
    cfg = _merged(cfg, args)
    out_path = getattr(args, "out", None)
    threads = _setting(getattr(args, "threads", None), 1, "--threads", 1)
    tol = cfg.tol
    if tol is not None and not tol > 0.0:
        raise ConfigError("--tol", f"must be positive, got {tol!r}")
    report = {"command": args.command, "config_hash": chash,
              "results": {}, "diagnostics": {}}
    code = EXIT_OK
    cmd = args.command

    if cmd == "polylog":
        z = cfg.z
        if z is None:
            raise ConfigError("--z", "polylog needs an argument point")
        if args.li is not None:
            r = li(args.li, z, _given(tol, 1e-12))
            report["results"] = {"kind": f"li{args.li}", "value": r.value,
                                 "error_bound": r.error_bound,
                                 "terms_used": r.terms_used}
        elif args.ramakrishnan is not None:
            kw = {}
            if cfg.odd_denominator or args.odd_denominator:
                kw["odd_denominator"] = args.odd_denominator or cfg.odd_denominator
            r = ramakrishnan_D(args.ramakrishnan, z, _given(tol, 1e-10),
                               **kw)
            report["results"] = {"kind": f"ramakrishnan_d{args.ramakrishnan}",
                                 "value": r.value, "error_bound": r.error_bound,
                                 "terms_used": r.terms_used}
        else:
            v = bloch_wigner(z)
            report["results"] = {"kind": "bloch_wigner", "value": v,
                                 "error_bound": 1e-14}

    elif cmd == "elliptic":
        if cfg.q is None or cfg.x is None:
            raise ConfigError("--q/--x", "elliptic needs q and x")
        r = elliptic_d2(cfg.q, cfg.x, _given(tol, 1e-10))
        report["results"] = {"value": r.value, "error_bound": r.error_bound,
                             "terms_used": r.terms_used}

    elif cmd == "group":
        group = cfg.build_group()
        if args.action == "validate":
            report["results"] = {"ok": group.validation.ok,
                                 "rank": group.rank,
                                 "violations": list(group.validation.violations)}
            report["results"]["group"] = _group_spec_dict(group)
        elif args.action == "limitset":
            depth = _setting(cfg.depth, 6, "--depth", 1)
            if args.format == "ppm":
                window = _given(cfg.window, 4.0)
                if not window > 0.0:
                    raise ConfigError("--window", f"must be positive, got {window!r}")
                data = render_limit_set_ppm(group, depth, window,
                                            _setting(cfg.width, 512, "--width", 1),
                                            _setting(cfg.height, 512, "--height", 1))
                _write_bytes(data, out_path)
                return None, EXIT_OK
            sample = limit_set(group, depth)
            pts = [_jsonable(p) for p in sample.points]
            report["results"] = {"depth": depth, "count": len(pts), "points": pts}
        elif args.action == "delta":
            est = estimate_delta(group, _given(cfg.resolution, 0.01),
                                 _setting(cfg.depth, 10, "--depth", 2),
                                 threads=threads)
            report["results"] = {"delta": est.delta, "bracket": list(est.bracket),
                                 "shell_ratios": list(est.shell_ratios),
                                 "max_depth": est.max_depth}
        elif args.action == "nielsen":
            if cfg.move is None:
                raise ConfigError("--move", "nielsen needs a move")
            moved = nielsen(group, cfg.move)
            report["results"] = {"move": list(cfg.move),
                                 "ok": moved.validation.ok,
                                 "violations": list(moved.validation.violations),
                                 "group": _group_spec_dict(moved)}
            report["diagnostics"]["classical_preserved"] = moved.validation.ok

    elif cmd == "measure":
        group = cfg.build_group()
        if cfg.measure_csv:
            measure = read_measure_csv(cfg.measure_csv)
        else:
            measure = _measure(group, cfg, threads)
        if args.action == "build":
            if out_path and out_path.endswith(".csv"):
                write_measure_csv(measure, out_path)
                return None, EXIT_OK
            report["results"] = {
                "delta": measure.delta, "depth": measure.depth,
                "n_atoms": len(measure),
                "basepoint": _jsonable(measure.basepoint),
                "mass": fsum(measure.weights),
            }
        else:
            res = quasi_invariance_residual(measure, group)
            report["results"] = {"residual": res, "delta": measure.delta,
                                 "depth": measure.depth}

    elif cmd == "series":
        group = cfg.build_group()
        max_len = cfg.max_len if cfg.max_len is not None else 10
        weight = cfg.weight or "holomorphic"
        stol = _given(tol, 1e-8)
        if args.action == "eval":
            z = cfg.z
            if z is None:
                raise ConfigError("--z", "series eval needs a point")
            ev = evaluate(group, None, z, weight, max_len, stol, threads)
            report["results"] = {
                "value": ev.value, "tail_estimate": ev.tail_estimate,
                "verdict": ev.verdict, "weight_mode": ev.weight_mode,
                "shells": [_jsonable(s) for s in ev.shells],
                "weight_shells": list(ev.weight_shells),
                "comparability": ev.comparability,
            }
            if ev.verdict != "converged":
                report["diagnostics"]["verdict"] = ev.verdict
                code = EXIT_NUMERIC
        elif args.action == "automorphy":
            n = _setting(cfg.samples, 8, "--samples", 1)
            samples = fundamental_domain_samples(
                group, n, _setting(cfg.seed, 0, "--seed", 0))
            elements = [cfg.element] if cfg.element is not None else \
                [l for l in group.letters if l > 0]
            per = {}
            for el in elements:
                per[str(el)] = automorphy_residual(group, None, samples, el,
                                                   max_len, weight, stol, threads)
            report["results"] = {"residuals": per, "max_len": max_len,
                                 "weight_mode": weight, "n_samples": n}
        else:
            rep = convergence_report(group, cfg.z, max_len,
                                     _given(cfg.resolution, 1e-3), threads)
            report["results"] = {
                "exponents": list(rep.exponents),
                "shell_sums": [list(r) for r in rep.shell_sums],
                "ratios": [list(r) for r in rep.ratios],
                "delta": rep.delta, "delta_bracket": list(rep.delta_bracket),
            }

    elif cmd == "bers":
        group = cfg.build_group()
        n_samples = _setting(cfg.samples, 10000, "--samples", 1000)
        density = NayataniDensity(_measure(group, cfg, threads))
        r = bers_integral(group, density, None, n_samples,
                          _setting(cfg.seed, 0, "--seed", 0), threads)
        report["results"] = {
            "estimate": r.estimate, "stderr": r.stderr,
            "n_samples": r.n_samples, "n_singular": r.n_singular,
            "decile_shares": list(r.decile_shares), "heavy_tail": r.heavy_tail,
            "density_rel_err": r.density_rel_err,
            "estimate_rel_err": r.estimate_rel_err,
        }
        if r.heavy_tail:
            report["diagnostics"]["heavy_tail"] = (
                "top decile carries more than half the sampled mass; the "
                "estimate is not trustworthy at this sample size")

    return report, code


def _measure(group: SchottkyGroup, cfg: RunConfig, threads: int):
    """build_ps at --depth (default 8) with --delta, or with delta estimated
    to --resolution at that depth (default 10)."""
    depth = _setting(cfg.depth, 8, "--depth", 2)
    delta = cfg.delta
    if delta is None:
        delta = estimate_delta(group, _given(cfg.resolution, 0.01),
                               _given(cfg.depth, 10), threads=threads).delta
    return build_ps(group, delta, depth)


def _group_spec_dict(group: SchottkyGroup) -> dict:
    gens = []
    for g in group.generators:
        gens.append({"matrix": [[g.a.real, g.a.imag], [g.b.real, g.b.imag],
                                [g.c.real, g.c.imag], [g.d.real, g.d.imag]]})
    spec = {"generators": gens}
    if group.circles is not None:
        spec["circles"] = [{"center": [c.center.real, c.center.imag],
                            "radius": c.radius} for c in group.circles]
    if group.cyclic_diagnostic:
        spec["cyclic_diagnostic"] = True
    return spec


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = _run(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except (ValidationFailure, SingularArgumentError, ConvergenceRegimeError) as e:
        sys.stderr.write(f"validation error: {e}\n")
        return EXIT_CONFIG
    except (EstimationError, DomainError, MeasureError, IntegrandBoundError) as e:
        sys.stderr.write(f"numeric error: {e}\n")
        return EXIT_NUMERIC
    except SchottkyError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return EXIT_CONFIG
    except ValueError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    if out is None:
        return EXIT_OK
    report, code = out
    if report is not None:
        emit_report(report, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
