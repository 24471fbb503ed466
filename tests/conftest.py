import cmath
import math

import pytest

from kleinlog.schottky import Circle, SchottkyGroup, estimate_delta, pairing_map

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


@pytest.fixture(scope="session")
def std_group():
    return make_standard_group()


@pytest.fixture(scope="session")
def sharp_delta(std_group):
    # bisected finely enough that the bracket error no longer dominates
    # downstream quasi-invariance residuals
    return estimate_delta(std_group, resolution=1e-5, max_depth=12)
