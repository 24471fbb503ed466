"""In-memory spans around the calls into kleinlog's layers, and the
statistics the benchmark reports from them.

The spans are recorded from outside the package: `instrument` swaps the
public functions and methods a CLI command calls for timing wrappers and
puts the originals back when it exits.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One timed call.  Spans of one command share `command`; `parent` is
    the index of the enclosing span, None for the command's root."""

    name: str
    command: int
    parent: int | None
    start: float
    end: float = math.nan
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "command": self.command, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "counters": self.counters}


class Tracer:
    """Records nested spans of a single thread; `command` labels the spans
    of the command that is running."""

    def __init__(self, command: int = 0):
        self.spans: list[Span] = []
        self.command = command
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.command, parent, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(i, ())]
        out.append(s.duration - _covered((lo, hi) for lo, hi in kids if hi > lo))
    return out


def median_of(values, min_samples: int = 1) -> float:
    """Median of the samples; refuses fewer than `min_samples`, so a
    reported median always rests on a stated number of samples."""
    values = list(values)
    if len(values) < max(1, min_samples):
        raise ValueError(f"median needs at least {max(1, min_samples)} "
                         f"samples, got {len(values)}")
    return statistics.median(values)


# layer wrappers ---------------------------------------------------------------

def _shell_counts(group, depth: int) -> dict:
    shells = [group.shell_matrices(n) for n in range(depth + 1)]
    return {"schottky.shells.words": sum(m.shape[0] for m in shells),
            "schottky.shells.bytes": sum(m.nbytes for m in shells)}


def _bisection_steps(est) -> int:
    # estimate_delta bisects down from the bracket [0, 2]
    lo, hi = est.bracket
    return round(math.log2(2.0 / (hi - lo)))


def _timed(tracer: Tracer, fn, name: str, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if count is not None:
            s.counters.update(count(args, result))
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer, shell_depth: int):
    """Wrap the public calls into each layer with spans for the duration of
    the block.

    RunConfig.build_group is wrapped too: after the group is built, its
    shells up to `shell_depth` are built in a span of their own, so shell
    construction is timed apart from the layers that later read the cache.
    """
    from kleinlog import cli, poincare
    from kleinlog.poincare import SeriesIntegrand
    from kleinlog.psmeasure import NayataniDensity
    from kleinlog.schottky import SchottkyGroup

    # (owner, attribute, span name, counters(args, result) or None); cli and
    # poincare are patched where the functions are looked up at call time
    layers = (
        (cli, "parse_config", "cli.config", None),
        (cli, "emit_report", "cli.emit", None),
        (cli, "evaluate", "poincare.evaluate", None),
        (poincare, "evaluate", "poincare.evaluate", None),
        (cli, "automorphy_residual", "poincare.automorphy", None),
        (cli, "bers_integral", "poincare.bers",
         lambda a, r: {"poincare.bers.resamples": r.n_singular}),
        (cli, "estimate_delta", "schottky.estimate_delta",
         lambda a, r: {"schottky.estimate_delta.steps": _bisection_steps(r)}),
        (cli, "build_ps", "psmeasure.build_ps",
         lambda a, r: {"psmeasure.atoms": len(r)}),
        (poincare, "uniform_sphere_points", "vec.sample", None),
        (SchottkyGroup, "shell_terms", "schottky.shell_terms",
         lambda a, r: {"schottky.shell_terms.points": r[0].size}),
        (SchottkyGroup, "shell_log_derivatives", "schottky.logderiv", None),
        (SeriesIntegrand, "eval_many", "polylog.D",
         lambda a, r: {"polylog.D.points": r.size}),
        (NayataniDensity, "F_many", "psmeasure.F",
         lambda a, r: {"psmeasure.F.pairs":
                       r[0].size * a[0].measure.weights.size}),
    )
    build_group = cli.RunConfig.build_group

    def build_group_then_shells(cfg):
        with tracer.span("cli.config"):
            group = build_group(cfg)
        with tracer.span("schottky.shells") as s:
            group.shell_matrices(shell_depth)
        s.counters.update(_shell_counts(group, shell_depth))
        return group

    saved = [(cli.RunConfig, "build_group", build_group)]
    try:
        cli.RunConfig.build_group = build_group_then_shells
        for owner, attr, name, count in layers:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _timed(tracer, fn, name, count))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# per-command layer metrics ----------------------------------------------------

ROOT_SPAN = "cli.main"

# span name -> its time metric; every layer time is a self time, so the
# times of one command add up to its traced duration
TIME_METRICS = {
    "cli.main": "cli.main.self_s",
    "cli.config": "cli.config.s",
    "cli.emit": "cli.emit.s",
    "schottky.shells": "schottky.shells.s",
    "schottky.shell_terms": "schottky.shell_terms.s",
    "schottky.logderiv": "schottky.logderiv.s",
    "schottky.estimate_delta": "schottky.estimate_delta.self_s",
    "polylog.D": "polylog.D.s",
    "poincare.evaluate": "poincare.evaluate.self_s",
    "poincare.automorphy": "poincare.automorphy.self_s",
    "poincare.bers": "poincare.bers.self_s",
    "vec.sample": "vec.sample.s",
    "psmeasure.build_ps": "psmeasure.build_ps.s",
    "psmeasure.F": "psmeasure.F.s",
}

COUNT_METRICS = (
    "schottky.shells.words", "schottky.shells.bytes",
    "schottky.shell_terms.points", "schottky.estimate_delta.steps",
    "polylog.D.points", "poincare.bers.resamples", "psmeasure.atoms",
    "psmeasure.F.pairs",
)


def command_metrics(spans: list[Span]) -> tuple[float, dict, dict]:
    """(traced duration, self time per time metric, counts) of one command's
    spans, which must hold exactly one root span."""
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != ROOT_SPAN:
        raise ValueError(f"expected one {ROOT_SPAN} root span, got "
                         f"{[s.name for s in roots]}")
    times = dict.fromkeys(TIME_METRICS.values(), 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for s, t in zip(spans, self_times(spans)):
        times[TIME_METRICS[s.name]] += t
        for k, v in s.counters.items():
            counts[k] += v
    return roots[0].duration, times, counts
