import cmath
import math

import numpy as np
import pytest

from kleinlog._vec import act
from kleinlog.moebius import MoebiusMap, _homogeneous, as_sphere_point
from kleinlog.schottky import (
    Circle,
    Orbit,
    SchottkyGroup,
    estimate_delta,
    pairing_map,
)

STD_CENTERS = (-2 + 0j, 2 + 0j, -2j, 2j)
STD_RADIUS = 0.5


def make_standard_group(radius: float = STD_RADIUS) -> SchottkyGroup:
    """Rank-2 group pairing circles at +-2 and +-2i."""
    circles = [Circle(c, radius) for c in STD_CENTERS]
    g1 = pairing_map(circles[0], circles[1])
    g2 = pairing_map(circles[2], circles[3])
    return SchottkyGroup([g1, g2], circles)


def make_rank3_group() -> SchottkyGroup:
    """Rank-3 group pairing circles of radius 0.4 at 3 exp(i pi k / 3)."""
    c = [Circle(3.0 * cmath.exp(1j * math.pi * k / 3), 0.4)
         for k in (0, 3, 1, 4, 2, 5)]
    return SchottkyGroup([pairing_map(c[i], c[i + 1]) for i in (0, 2, 4)], c)


def make_random_group(seed: int = 3, rank: int = 2) -> SchottkyGroup:
    """A random classical group: 2g disks with centres uniform in [-3, 3]^2
    and radii uniform in [0.2, 1], drawn again until they are at least 0.05
    apart.  Generator i is z -> c2 + u r1 r2 / (z - c1) with a random
    |u| = 1, so, unlike pairing_map's, its matrix entries are not dyadic
    and products of them round."""
    rng = np.random.default_rng(seed)
    while True:
        centres = rng.uniform(-3, 3, 2 * rank) + 1j * rng.uniform(-3, 3, 2 * rank)
        radii = rng.uniform(0.2, 1.0, 2 * rank)
        gaps = np.abs(centres[:, None] - centres) - (radii[:, None] + radii)
        if np.all(gaps[np.triu_indices(2 * rank, 1)] >= 0.05):
            break
    circles = [Circle(complex(c), float(r)) for c, r in zip(centres, radii)]
    gens = []
    for (c1, r1), (c2, r2) in zip(zip(centres[::2], radii[::2]),
                                  zip(centres[1::2], radii[1::2])):
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        gens.append(MoebiusMap(complex(c2), complex(u * r1 * r2 - c1 * c2), 1.0,
                               complex(-c1)))
    return SchottkyGroup(gens, circles)


def matrix_orbit(group: SchottkyGroup, n: int, z) -> Orbit:
    """The Orbit of z under the length-n words, its num and den by act on
    their matrices; the letters are left at 0."""
    m = group.shell_matrices(n)
    zz, ww = _homogeneous(as_sphere_point(z))
    letters = np.zeros(m.shape[0], dtype=np.int32)
    return Orbit(*act(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1], zz, ww)[2:],
                 letters, letters)


@pytest.fixture(scope="session")
def std_group():
    return make_standard_group()


@pytest.fixture(scope="session")
def sharp_delta(std_group):
    # bisected finely enough that the bracket error no longer dominates
    # downstream quasi-invariance residuals
    return estimate_delta(std_group, resolution=1e-5, max_depth=12)
