"""Command-line interface: strict JSON config parsing, subcommand dispatch,
and deterministic JSON/CSV/PPM emission.

Exit codes: 0 success, 2 config or validation rejection, 3 numeric
non-convergence or runtime diagnostic.  Reports are JSON objects
{command, config_hash, results, diagnostics}; the hash covers only the
math-relevant effective settings, never output paths.  --threads is
accepted for compatibility and has no effect: every command runs on one
thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .elliptic import ConvergenceRegimeError, elliptic_d2
from ._vec import fsum
from .moebius import INF, MoebiusMap, SpherePoint, from_fixed_points_multiplier
from .poincare import (
    WEIGHT_MODES,
    DomainError,
    IntegrandBoundError,
    automorphy_residual,
    bers_integral,
    convergence_report,
    evaluate,
)
from .polylog import (
    ODD_DENOMINATORS,
    PolylogOverflowError,
    SingularArgumentError,
    _bloch_wigner_bounded,
    li,
    ramakrishnan_D,
)
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
    ShellOverflowError,
    estimate_delta,
    fundamental_domain_samples,
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


def _want(obj, path, kind):
    if not isinstance(obj, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _object(obj, path, keys) -> dict:
    """A JSON object whose keys all lie in `keys`."""
    unknown = sorted(set(_want(obj, path, dict)) - keys)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown config key")
    return obj


def _number(v, path) -> float:
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):  # nan, inf, ints past float
        raise ConfigError(path, "expected a finite number")
    return float(v)


def _integer(v, path) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(path, "expected an integer")
    return v


def _ranged(parse, bound: str, ok):
    """`parse`, then reject a value failing `ok` as not `bound`."""
    def check(v, path):
        v = parse(v, path)
        if not ok(v):
            raise ConfigError(path, f"must be {bound}, got {v!r}")
        return v
    return check


def _at_least(parse, least):
    return _ranged(parse, f">= {least}", lambda v: v >= least)


_positive = _ranged(_number, "positive", lambda x: x > 0.0)


def _choice(*options):
    def check(v, path):
        if not isinstance(v, str) or v not in options:
            raise ConfigError(path, f"must be {' or '.join(options)}, got {v!r}")
        return v
    return check


def _complex_field(v, path) -> complex:
    """A number, an [re, im] pair, or a complex from flag text."""
    if v == "inf":
        raise ConfigError(path, "infinity is not allowed here")
    if isinstance(v, complex):
        v = [v.real, v.imag]
    parts = v if isinstance(v, list) else [v, 0.0]
    if len(parts) != 2:
        raise ConfigError(path, "complex values are two-element [re, im] arrays")
    return complex(_number(parts[0], path), _number(parts[1], path))


def _point_field(v, path) -> SpherePoint:
    if v == "inf":
        return INF
    return SpherePoint(_complex_field(v, path))


_MOVE_INDICES = {"invert": ("i",), "swap": ("i", "j"), "multiply": ("i", "j"),
                 "cyclic": ()}


def _move_field(v, path) -> tuple:
    mv = _object(v, path, {"kind", "i", "j"})
    kind = mv.get("kind")
    if not isinstance(kind, str) or kind not in _MOVE_INDICES:
        raise ConfigError(path, "kind must be invert, swap, multiply or cyclic")
    keys = _MOVE_INDICES[kind]
    if set(mv) != {"kind", *keys}:
        raise ConfigError(path, f"{kind} takes the indices {list(keys)}")
    return (kind, *(_integer(mv[k], f"{path}.{k}") for k in keys))


def _element_field(v, path):
    """A letter, or a list of letters as a tuple."""
    if isinstance(v, list):
        return tuple(_integer(l, path) for l in v)
    return _integer(v, path)


def _group_from_spec(spec: dict, key: str) -> SchottkyGroup:
    """The group of a config's `key`, built and validated once, at parse
    time, so that its errors surface as exit 2."""
    _object(spec, key, {"generators", "circles", "cyclic_diagnostic"})
    gens = []
    for i, g in enumerate(_want(spec.get("generators", []), f"{key}.generators", list)):
        path = f"{key}.generators[{i}]"
        _object(g, path, {"matrix", "fixed_points", "multiplier"})
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
            p_att = _point_field(fp[0], path + ".fixed_points[0]")
            p_rep = _point_field(fp[1], path + ".fixed_points[1]")
            try:
                gens.append(from_fixed_points_multiplier(p_rep, p_att, lam))
            except ValueError as e:
                raise ConfigError(path, str(e))
        else:
            raise ConfigError(path, "need either matrix or fixed_points/multiplier")
    circles = None
    if "circles" in spec:
        circles = []
        for i, c in enumerate(_want(spec["circles"], f"{key}.circles", list)):
            path = f"{key}.circles[{i}]"
            _object(c, path, {"center", "radius"})
            center = _complex_field(c.get("center"), path + ".center")
            radius = _number(c.get("radius", 0.0), path + ".radius")
            try:
                circles.append(Circle(center, radius))
            except ValueError as e:
                raise ConfigError(path, str(e))
    cyclic = _want(spec.get("cyclic_diagnostic", False),
                   f"{key}.cyclic_diagnostic", bool)
    try:
        return SchottkyGroup(gens, circles, cyclic_diagnostic=cyclic)
    except ValueError as e:  # ValidationFailure lists every violation
        raise ConfigError(key, str(e))


# flag text in the form the config parsers take ----------------------------------

def _cli_complex(text: str, flag: str):
    if text == "inf":
        return text
    try:
        return complex(*(float(p) for p in text.split(",")))
    except (TypeError, ValueError):  # TypeError: more than two parts
        raise ConfigError(flag, f"expected re,im or inf, got {text!r}") from None


def _cli_move(text: str, flag: str) -> dict:
    kind, *parts = text.split(":")
    try:
        idx = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(flag, f"indices must be integers in {text!r}") from None
    if len(idx) > 2:
        raise ConfigError(flag, f"at most two indices in {text!r}")
    return {"kind": kind, **dict(zip("ij", idx))}


def _cli_element(text: str, flag: str):
    try:
        return [int(p) for p in text.split(",")] if "," in text else int(text)
    except ValueError:
        raise ConfigError(flag, "expected a letter or comma-separated letters, "
                                f"got {text!r}") from None


class Setting(NamedTuple):
    # parse(value, name) checks a config value, or a flag value argparse has
    # typed, and raises ConfigError naming the key or flag; text(text, flag)
    # turns untyped flag text into a value parse takes
    parse: Callable
    type: Callable = None  # argparse's type for the flag
    commands: tuple = ()  # the subcommands whose parsers take the flag
    shared: bool = False  # every parser takes the flag, before or after
    text: Callable = None
    help: str = None
    in_config: bool = True  # a config key too, not a flag only


# every setting of a run, keyed by its config key; its flag is --key with
# dashes for underscores.  _parser adds those flags, and by hand --strict
# (mode's flag) and polylog's --li and --ramakrishnan
SETTINGS = {
    "group": Setting(_group_from_spec),
    "delta": Setting(_at_least(_number, 0.0), float, ("measure", "bers")),
    "depth": Setting(_integer, int, shared=True),
    "max_len": Setting(_at_least(_integer, 0), int, shared=True),
    "tol": Setting(_positive, float, shared=True),
    "seed": Setting(_at_least(_integer, 0), int, shared=True),
    "weight": Setting(_choice(*WEIGHT_MODES), shared=True,
                      help=" or ".join(WEIGHT_MODES)),
    "samples": Setting(_integer, int, ("series", "bers")),
    "mode": Setting(_choice("strict")),
    "window": Setting(_positive, float, ("group",)),
    "width": Setting(_at_least(_integer, 1), int, ("group",)),
    "height": Setting(_at_least(_integer, 1), int, ("group",)),
    "z": Setting(_point_field, None, ("polylog", "series"), text=_cli_complex,
                 help="re,im, or inf"),
    "q": Setting(_complex_field, None, ("elliptic",), text=_cli_complex, help="re,im"),
    "x": Setting(_complex_field, None, ("elliptic",), text=_cli_complex, help="re,im"),
    "resolution": Setting(_ranged(_number, "in (0, 1]", lambda x: 0.0 < x <= 1.0),
                          float, ("group", "measure", "series", "bers")),
    "move": Setting(_move_field, None, ("group",), text=_cli_move,
                    help="kind:i[:j], e.g. multiply:1:2"),
    "element": Setting(_element_field, None, ("series",), text=_cli_element,
                       help="letter or comma letters"),
    "odd_denominator": Setting(_choice(*ODD_DENOMINATORS), None, ("polylog",)),
    "measure_csv": Setting(lambda v, path: _want(v, path, str)),
    "li": Setting(_at_least(_integer, 1), in_config=False),
    "ramakrishnan": Setting(_at_least(_integer, 1), in_config=False),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@dataclass
class RunConfig:
    """A parsed config: `raw` is the JSON as read, which config_hash covers,
    and `settings` maps SETTINGS keys to checked values.  An absent key was
    not given and falls back to the owning module's default at dispatch."""

    raw: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)

    def build_group(self) -> SchottkyGroup:
        """The config's group, which parsing has built and validated."""
        group = self.settings.get("group")
        if group is None:
            raise ConfigError("group", "missing group spec")
        return group


def parse_config(path) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected with their path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"malformed JSON at line {e.lineno}: {e.msg}")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, a NUL in the path
        raise ConfigError(str(path), f"cannot read config: {e}")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    _want(data, "config", dict)
    unknown = sorted(k for k in data if k not in SETTINGS or not SETTINGS[k].in_config)
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    return RunConfig(data, {k: SETTINGS[k].parse(v, k) for k, v in data.items()})


# serialization ----------------------------------------------------------------

def _jsonable(obj):
    """`obj` in JSON types, a record as its fields; a non-finite float is
    the string "inf", "-inf" or "nan", so every report is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, SpherePoint):
        return "inf" if obj.is_infinity else _jsonable(obj.value)
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
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
    eff = {**cfg.raw, **overrides}
    canon = json.dumps(_jsonable(eff), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


@contextmanager
def _writing(out_path):
    try:
        yield
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise ConfigError(str(out_path), f"cannot write: {e}") from None


def emit_report(report: dict, out_path) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def render_limit_set_ppm(group: SchottkyGroup, depth: int, window: float,
                         width: int, height: int) -> bytes:
    """P6 raster of the limit-set sample in the window [-R, R]^2."""
    img = np.zeros((height, width, 3), dtype=np.uint8)
    R = window
    for p in limit_set(group, depth):
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
    with _writing(out_path), open(out_path, "wb") as f:
        f.write(data)


# dispatch ---------------------------------------------------------------------

@cache
def _parser() -> argparse.ArgumentParser:
    # built once, on first use; each parse_args gives a fresh Namespace.
    # Shared flags are accepted before and after the subcommand; SUPPRESS
    # defaults keep unset flags out, and top-level values unclobbered
    common = argparse.ArgumentParser(add_help=False)
    S = argparse.SUPPRESS
    common.add_argument("--config", default=S, help="JSON config path")
    common.add_argument("--out", default=S, help="output path (default stdout)")
    # accepted and checked for compatibility; it has no effect and is left
    # out of config_hash
    common.add_argument("--threads", type=int, default=S)
    # a no-op, since every sum is correctly rounded; it still enters
    # config_hash (via _overrides), so reports that pass it keep their hash
    common.add_argument("--strict", action="store_const", const="strict",
                        dest="mode", default=S)
    # before the parsers that copy common's flags are made
    for key, s in SETTINGS.items():
        if s.shared:
            common.add_argument(_flag(key), type=s.type, default=S, help=s.help)

    ap = argparse.ArgumentParser(prog="kleinlog", parents=[common],
                                 description="single-valued polylogarithms and "
                                             "Poincare series over Schottky groups")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, parents=[common], help=text) for name, text in [
        ("polylog", "Li_n, Bloch-Wigner D, Ramakrishnan D_m"),
        ("elliptic", "elliptic Bloch-Wigner average"),
        ("group", "group validation, limit set, delta, moves"),
        ("measure", "Patterson-Sullivan build and residuals"),
        ("series", "Poincare series evaluation and tests"),
        ("bers", "Monte-Carlo sphere integral of F^(2/delta)|D|")]}
    kind = parsers["polylog"].add_mutually_exclusive_group()
    kind.add_argument("--bloch-wigner", action="store_true", dest="bw")
    kind.add_argument("--li", type=int, default=None, metavar="N")
    kind.add_argument("--ramakrishnan", type=int, default=None, metavar="M")
    parsers["group"].add_argument("action", choices=("validate", "limitset",
                                                     "delta", "nielsen"))
    parsers["group"].add_argument("--format", choices=("json", "ppm"), default="json")
    parsers["measure"].add_argument("action", choices=("build", "residual"))
    parsers["series"].add_argument("action", choices=("eval", "automorphy", "report"))
    for key, s in SETTINGS.items():
        for name in s.commands:
            parsers[name].add_argument(_flag(key), type=s.type, help=s.help)
    return ap


def _overrides(args) -> dict:
    """The settings given as flags, as argparse left them."""
    return {k: getattr(args, k) for k in SETTINGS
            if getattr(args, k, None) is not None}


def _merged(cfg: RunConfig, overrides: dict) -> dict:
    # flags override config settings of the same name
    for key, v in overrides.items():
        s, flag = SETTINGS[key], _flag(key)
        cfg.settings[key] = s.parse(s.text(v, flag) if s.text else v, flag)
    return cfg.settings


def _setting(settings: dict, key: str, default, least):
    """The setting, or `default` when it was not given; a value below
    `least` is rejected naming its flag."""
    return _at_least(lambda v, path: v, least)(settings.get(key, default),
                                               _flag(key))


def _depth_setting(group: SchottkyGroup, s: dict, key: str, default: int,
                   least: int, diagnostics: dict) -> int:
    """The setting, else `default` capped at the deepest that fits_depth
    allows; a cap is named in diagnostics["capped_default"]."""
    fits = next((n for n in range(default, least, -1) if group.fits_depth(n)), least)
    if key not in s and fits < default:
        diagnostics["capped_default"] = {key: fits}
    return _setting(s, key, fits, least)


def _run(args) -> tuple[dict, int]:
    for key, v in vars(args).items():
        if isinstance(v, list):  # argparse's value for "--flag=--"
            raise ConfigError(_flag(key), "expected a value, got '--'")
    config_path = getattr(args, "config", None)
    cfg = parse_config(config_path) if config_path else RunConfig()
    overrides = _overrides(args)
    chash = config_hash(cfg, overrides)
    s = _merged(cfg, overrides)
    out_path = getattr(args, "out", None)
    _setting(vars(args), "threads", 1, 1)
    report = {"command": args.command, "config_hash": chash,
              "results": {}, "diagnostics": {}}
    code = EXIT_OK
    cmd = args.command
    if cmd in ("group", "measure", "series", "bers"):
        group = cfg.build_group()

    if cmd == "polylog":
        if (z := s.get("z")) is None:
            raise ConfigError("--z", "polylog needs a point")
        if "li" in s or "ramakrishnan" in s:
            if "li" in s:
                kind, r = f"li{s['li']}", li(s["li"], z, s.get("tol", 1e-12))
            else:
                m = s["ramakrishnan"]
                kind, r = f"ramakrishnan_d{m}", ramakrishnan_D(
                    m, z, s.get("tol", 1e-10), s.get("odd_denominator", "2*m!"))
            report["results"] = {"kind": kind, **_jsonable(r)}
        else:
            value, bound = ((0.0, 0.0) if z.is_infinity
                            else _bloch_wigner_bounded(z.value, 1e-14))
            report["results"] = {"kind": "bloch_wigner", "value": value,
                                 "error_bound": bound}

    elif cmd == "elliptic":
        if "q" not in s or "x" not in s:
            raise ConfigError("--q/--x", "elliptic needs q and x")
        report["results"] = elliptic_d2(s["q"], s["x"], s.get("tol", 1e-10))

    elif cmd == "group":
        if args.action == "validate":
            report["results"] = {"ok": group.validation.ok,
                                 "rank": group.rank,
                                 "violations": group.validation.violations,
                                 "group": _group_spec_dict(group)}
        elif args.action == "limitset":
            depth = _setting(s, "depth", 6, 1)
            if args.format == "ppm":
                data = render_limit_set_ppm(group, depth, s.get("window", 4.0),
                                            s.get("width", 512),
                                            s.get("height", 512))
                _write_bytes(data, out_path)
                return None, EXIT_OK
            pts = limit_set(group, depth)
            report["results"] = {"depth": depth, "count": len(pts), "points": pts}
        elif args.action == "delta":
            depth = _setting(s, "depth", None, 4) if "depth" in s else None
            report["results"] = estimate_delta(group, s.get("resolution", 0.01),
                                               depth)
        elif args.action == "nielsen":
            move = s.get("move")
            if move is None:
                raise ConfigError("--move", "nielsen needs a move")
            moved = nielsen(group, move)
            report["results"] = {"move": move,
                                 "ok": moved.validation.ok,
                                 "violations": moved.validation.violations,
                                 "group": _group_spec_dict(moved)}
            report["diagnostics"]["classical_preserved"] = moved.validation.ok

    elif cmd == "measure":
        measure = _measure(group, s, report["diagnostics"])
        if args.action == "build":
            if out_path and out_path.endswith(".csv"):
                with _writing(out_path):
                    write_measure_csv(measure, out_path)
                return None, EXIT_OK
            report["results"] = {
                "delta": measure.delta, "depth": measure.depth,
                "n_atoms": len(measure),
                "basepoint": measure.basepoint,
                "mass": fsum(measure.weights),
            }
        else:
            res = quasi_invariance_residual(measure, group)
            report["results"] = {"residual": res, "delta": measure.delta,
                                 "depth": measure.depth}

    elif cmd == "series":
        max_len = _depth_setting(group, s, "max_len", 10, 0, report["diagnostics"])
        weight = s.get("weight", "holomorphic")
        stol = s.get("tol", 1e-8)
        if args.action == "eval":
            z = s.get("z")
            if z is None:
                raise ConfigError("--z", "series eval needs a point")
            ev = report["results"] = evaluate(group, None, z, weight, max_len, stol)
            if ev.verdict != "converged":
                report["diagnostics"]["verdict"] = ev.verdict
                code = EXIT_NUMERIC
        elif args.action == "automorphy":
            n = _setting(s, "samples", 8, 1)
            samples = fundamental_domain_samples(group, n, s.get("seed", 0))
            elements = [s["element"]] if "element" in s else \
                [l for l in group.letters if l > 0]
            res = automorphy_residual(group, None, samples, elements, max_len,
                                      weight, stol)
            per = {str(el): r for el, r in zip(elements, res)}
            report["results"] = {"residuals": per, "max_len": max_len,
                                 "weight_mode": weight, "n_samples": n}
        else:
            report["results"] = convergence_report(group, s.get("z"), max_len,
                                                   s.get("resolution", 1e-3))

    elif cmd == "bers":
        n_samples = _setting(s, "samples", 10000, 1000)
        density = NayataniDensity(_measure(group, s, report["diagnostics"]))
        r = report["results"] = bers_integral(density, None, n_samples,
                                              s.get("seed", 0))
        if r.heavy_tail:
            report["diagnostics"]["heavy_tail"] = (
                "top decile carries more than half the sampled mass; the "
                "estimate is not trustworthy at this sample size")

    return report, code


def _measure(group: SchottkyGroup, s: dict, diagnostics: dict):
    """The measure read from measure_csv if given.  Else build_ps at --depth
    (default 8, capped as _depth_setting caps it) with --delta, or with
    delta estimated to --resolution (default 0.01) at estimate_delta's
    default level cap; --depth is the depth of the measure only."""
    if "measure_csv" in s:
        try:
            return read_measure_csv(s["measure_csv"])
        except (OSError, ValueError) as e:  # MeasureError included
            raise ConfigError("measure_csv", str(e)) from None
    depth = _depth_setting(group, s, "depth", 8, 2, diagnostics)
    group.check_depth(depth)
    delta = s.get("delta")
    if delta is None:
        delta = estimate_delta(group, s.get("resolution", 0.01)).delta
    return build_ps(group, delta, depth)


def _group_spec_dict(group: SchottkyGroup) -> dict:
    spec = {"generators": [{"matrix": [g.a, g.b, g.c, g.d]}
                           for g in group.generators]}
    if group.circles is not None:
        spec["circles"] = group.circles
    if group.cyclic_diagnostic:
        spec["cyclic_diagnostic"] = True
    return spec


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = _run(args)
        if report is not None:
            emit_report(report, getattr(args, "out", None))
        return code
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except (EstimationError, ShellOverflowError, DomainError, MeasureError,
            IntegrandBoundError, PolylogOverflowError) as e:
        sys.stderr.write(f"numeric error: {e}\n")
        return EXIT_NUMERIC
    except (SchottkyError, SingularArgumentError, ConvergenceRegimeError) as e:
        sys.stderr.write(f"validation error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
