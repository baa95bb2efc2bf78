import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest
from fractions import Fraction

from atomcur.connection import ChartConnection
from atomcur.jets import RATIONAL


@pytest.fixture(scope="session")
def flat2():
    return ChartConnection.flat(2)


@pytest.fixture(scope="session")
def flat3():
    return ChartConnection.flat(3)


@pytest.fixture(scope="session")
def s2():
    return ChartConnection.from_metric(
        ["theta", "phi"], [["1", "0"], ["0", "sin(theta)^2"]],
        [(0.6, 2.5), (0.2, 6.0)], name="round-s2")


@pytest.fixture(scope="session")
def hyperbolic():
    return ChartConnection.from_metric(
        ["x", "y"], [["1/y^2", "0"], ["0", "1/y^2"]],
        [(-2.0, 2.0), (0.4, 3.0)], name="hyperbolic")


@pytest.fixture(scope="session")
def poly2():
    return ChartConnection.from_metric(
        ["x", "y"], [["1 + x^2", "x*y/2"], ["x*y/2", "1 + y^2"]],
        [(-1.0, 1.0), (-1.0, 1.0)], name="poly2")


@pytest.fixture(scope="session")
def poly2_point(poly2):
    return poly2.resolve((Fraction(1, 4), Fraction(-1, 3)), RATIONAL)
