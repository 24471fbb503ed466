"""The four benchmark workloads: the inputs each command gets, generated
from the benchmark seed, and the checks each command's report must pass.

All commands run on the standard rank-2 group: circles of radius 0.5 at
+-2 and +-2i, generator i pairing circle 2i-2 with circle 2i-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from kleinlog.polylog import bloch_wigner
from kleinlog.schottky import Circle, SchottkyGroup, pairing_map

STD_CENTERS = (-2 + 0j, 2 + 0j, -2j, 2j)
STD_RADIUS = 0.5

SERIES_MAX_LEN = 12
SERIES_CHECKED_SHELLS = 6      # shells 0..6 are recomputed word by word
SHELL_RTOL = 1e-12             # against the shell's sum of |terms|
SUM_RTOL = 1e-15               # value against fsum(shells), over sum |shell|
POINT_MARGIN = 0.05            # chordal distance of z from every disk
AUTOMORPHY_MAX_LEN = 10
AUTOMORPHY_SAMPLES = 4
AUTOMORPHY_BOUND = 1e-8        # acceptance criterion 7
BERS_DEPTH = 8
BERS_SAMPLES = 10000
BERS_RESAMPLE_LIMIT = max(1, int(0.01 * BERS_SAMPLES))
DELTA_DEPTH = 12
DELTA_RESOLUTION = 1e-5
DELTA_REFERENCE = 0.29840
DELTA_TOL = 1e-3
# bers --depth 8 --samples 10000 --delta 0.29840 at the default Monte Carlo
# seed; delta is pinned so that a better delta estimator leaves it in place
BERS_REFERENCE = 85.16052887992889
BERS_REFERENCE_RTOL = 1e-9


def std_circles() -> list[Circle]:
    return [Circle(c, STD_RADIUS) for c in STD_CENTERS]


def std_group() -> SchottkyGroup:
    c = std_circles()
    return SchottkyGroup([pairing_map(c[0], c[1]), pairing_map(c[2], c[3])], c)


def std_spec() -> dict:
    """The standard group as a CLI config."""
    gens = [{"matrix": [[m.a.real, m.a.imag], [m.b.real, m.b.imag],
                        [m.c.real, m.c.imag], [m.d.real, m.d.imag]]}
            for m in std_group().generators]
    circles = [{"center": [c.real, c.imag], "radius": STD_RADIUS}
               for c in STD_CENTERS]
    return {"group": {"generators": gens, "circles": circles}}


@dataclass(frozen=True)
class Job:
    """One command: its arguments before the shared flags, and the point
    it evaluates at (series eval only)."""

    args: tuple[str, ...]
    z: complex | None = None


# inputs -------------------------------------------------------------------------

def _chordal(z, w):
    return 2.0 * np.abs(z - w) / np.sqrt((1.0 + np.abs(z) ** 2)
                                         * (1.0 + np.abs(w) ** 2))


def exterior_points(rng: np.random.Generator, circles, margin: float
                    ) -> Iterator[complex]:
    """Sphere-uniform points of the common exterior of the disks, at least
    `margin` (chordal) from each of them.  The distance to a disk is taken
    over its boundary circle sampled at 1 degree steps."""
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
    rim = np.concatenate([c.center + c.radius * angles for c in circles])
    while True:
        n3 = rng.uniform(-1.0, 1.0, 64)
        ang = rng.uniform(0.0, 2.0 * np.pi, 64)
        r = np.sqrt(1.0 - n3 * n3)
        for x, y, h in zip(r * np.cos(ang), r * np.sin(ang), n3):
            if 1.0 - h < 1e-12:
                continue
            z = complex(x, y) / (1.0 - h)
            if any(abs(z - c.center) <= c.radius for c in circles):
                continue
            if _chordal(z, rim).min() >= margin:
                yield z


def _series_jobs(seed: int) -> Iterator[Job]:
    for z in exterior_points(np.random.default_rng(seed), std_circles(),
                             POINT_MARGIN):
        yield Job(("series", "eval", "--max-len", str(SERIES_MAX_LEN),
                   f"--z={z.real!r},{z.imag!r}"), z)


def _program_seeds(seed: int) -> Iterator[int]:
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31))


def _automorphy_jobs(seed: int) -> Iterator[Job]:
    for s in _program_seeds(seed):
        yield Job(("series", "automorphy", "--max-len", str(AUTOMORPHY_MAX_LEN),
                   "--samples", str(AUTOMORPHY_SAMPLES), "--seed", str(s)))


def _bers_jobs(seed: int) -> Iterator[Job]:
    for s in _program_seeds(seed):
        yield Job(("bers", "--depth", str(BERS_DEPTH),
                   "--samples", str(BERS_SAMPLES), "--seed", str(s)))


def _delta_jobs(seed: int) -> Iterator[Job]:
    # the command has no random input; every job is the same
    while True:
        yield Job(("group", "delta", "--depth", str(DELTA_DEPTH),
                   "--resolution", repr(DELTA_RESOLUTION)))


BERS_REFERENCE_JOB = Job(("bers", "--depth", str(BERS_DEPTH),
                          "--samples", str(BERS_SAMPLES),
                          "--delta", repr(DELTA_REFERENCE)))


# checks -------------------------------------------------------------------------

class SeriesReference:
    """Shells recomputed word by word with scalar maps and the scalar
    Bloch-Wigner function; the words are enumerated once."""

    def __init__(self, group: SchottkyGroup, max_len: int):
        self.max_len = max_len
        self.words = [(w.length, w.map) for w in group.enumerate_words(max_len)]

    def shells(self, z: complex) -> list[tuple[complex, float]]:
        """(shell sum, sum of |terms|) for shells 0..max_len at z."""
        terms = [[] for _ in range(self.max_len + 1)]
        for n, m in self.words:
            terms[n].append(m.derivative(z) * bloch_wigner(m.apply(z)))
        return [(complex(math.fsum(t.real for t in ts),
                         math.fsum(t.imag for t in ts)),
                 math.fsum(abs(t) for t in ts)) for ts in terms]


def check_series(job: Job, report: dict, ref: SeriesReference) -> list[str]:
    res = report["results"]
    problems = []
    if res["verdict"] != "converged":
        problems.append(f"verdict {res['verdict']!r}, expected 'converged'")
    shells = [complex(*s) for s in res["shells"]]
    if len(shells) != SERIES_MAX_LEN + 1:
        return problems + [f"{len(shells)} shells, expected {SERIES_MAX_LEN + 1}"]
    for n, (want, scale) in enumerate(ref.shells(job.z)):
        if abs(shells[n] - want) > SHELL_RTOL * scale:
            problems.append(f"shell {n} is {shells[n]!r}, the word-by-word "
                            f"sum is {want!r}")
    total = complex(math.fsum(s.real for s in shells),
                    math.fsum(s.imag for s in shells))
    value = complex(*res["value"])
    if abs(value - total) > SUM_RTOL * math.fsum(abs(s) for s in shells):
        problems.append(f"value {value!r} is not the sum of its shells {total!r}")
    return problems


def check_automorphy(job: Job, report: dict, ref=None) -> list[str]:
    res = report["results"]
    problems = []
    if res["n_samples"] != AUTOMORPHY_SAMPLES or res["max_len"] != AUTOMORPHY_MAX_LEN:
        problems.append(f"ran {res['n_samples']} samples at max_len "
                        f"{res['max_len']}")
    if sorted(res["residuals"]) != ["1", "2"]:
        problems.append(f"residuals for {sorted(res['residuals'])}, "
                        "expected generators 1 and 2")
    for el, r in res["residuals"].items():
        if not r <= AUTOMORPHY_BOUND:
            problems.append(f"residual {r!r} of element {el} exceeds "
                            f"{AUTOMORPHY_BOUND}")
    return problems


def check_bers(job: Job, report: dict, ref=None) -> list[str]:
    res = report["results"]
    problems = []
    if res["n_samples"] != BERS_SAMPLES:
        problems.append(f"{res['n_samples']} samples, expected {BERS_SAMPLES}")
    if not 0 <= res["n_singular"] <= BERS_RESAMPLE_LIMIT:
        problems.append(f"{res['n_singular']} resamples, limit "
                        f"{BERS_RESAMPLE_LIMIT}")
    shares = res["decile_shares"]
    if len(shares) != 10 or abs(math.fsum(shares) - 1.0) > 1e-12:
        problems.append(f"decile shares {shares} do not sum to 1")
    elif any(a > b for a, b in zip(shares, shares[1:])):
        problems.append(f"decile shares {shares} are not sorted")
    est, err = res["estimate"], res["stderr"]
    if not (0.0 < est < math.inf and 0.0 <= err < math.inf):
        problems.append(f"estimate {est!r} +- {err!r} is not finite and positive")
    if job == BERS_REFERENCE_JOB and not (
            abs(est - BERS_REFERENCE) <= BERS_REFERENCE_RTOL * BERS_REFERENCE):
        problems.append(f"default-seed estimate {est!r}, reference "
                        f"{BERS_REFERENCE!r}")
    return problems


def check_delta(job: Job, report: dict, ref=None) -> list[str]:
    res = report["results"]
    lo, hi = res["bracket"]
    d = res["delta"]
    problems = []
    if not (hi - lo <= DELTA_RESOLUTION and lo <= d <= hi):
        problems.append(f"bracket [{lo!r}, {hi!r}] around {d!r} is wider than "
                        f"{DELTA_RESOLUTION}")
    if not abs(d - DELTA_REFERENCE) <= DELTA_TOL:
        problems.append(f"delta {d!r} is not within {DELTA_TOL} of "
                        f"{DELTA_REFERENCE}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[int], Iterator[Job]]
    check: Callable[[Job, dict, object], list[str]]
    shell_depth: int             # deepest shell the command builds
    warmup: Job | None = None    # first command of a run; else the first job
    reference: Callable[[], object] = lambda: None  # what `check` needs


WORKLOADS = {
    w.name: w for w in (
        Workload("series", _series_jobs, check_series, SERIES_MAX_LEN,
                 reference=lambda: SeriesReference(std_group(),
                                                   SERIES_CHECKED_SHELLS)),
        Workload("automorphy", _automorphy_jobs, check_automorphy,
                 AUTOMORPHY_MAX_LEN),
        Workload("bers", _bers_jobs, check_bers, BERS_DEPTH, BERS_REFERENCE_JOB),
        Workload("delta", _delta_jobs, check_delta, DELTA_DEPTH),
    )
}

