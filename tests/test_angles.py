import math
from fractions import Fraction

import pytest

from ghzstab import Angle, DirectionList, classify
from ghzstab.angles import PI
from ghzstab.errors import DomainError, ShapeError


def test_exact_lowest_terms():
    a = Angle.exact(2, 4)
    frac = a.pi_multiple
    assert (frac.numerator, frac.denominator) == (1, 2)
    assert frac == Fraction(1, 2)


def test_exact_to_radians():
    for num, den in [(1, 2), (-3, 4), (7, 5), (0, 1), (4, 3)]:
        a = Angle.exact(num, den)
        assert abs(a.to_radians() - num * math.pi / den) <= 1e-15


def test_negative_denominator_normalizes():
    a = Angle.exact(1, -2)
    assert a.pi_multiple.denominator > 0
    assert a.pi_multiple == Fraction(-1, 2)


def test_arithmetic_preserves_exactness():
    a = Angle.exact(1, 2) + Angle.exact(1, 3)
    assert a.is_exact and a.pi_multiple == Fraction(5, 6)
    b = Angle.exact(1, 2) - Angle.exact(1, 2)
    assert b.is_exact and b.pi_multiple == 0
    c = Angle.exact(1, 2) + Angle.radians(0.25)
    assert not c.is_exact
    assert abs(c.to_radians() - (math.pi / 2 + 0.25)) <= 1e-15


def test_pi_minus():
    assert (PI - Angle.exact(1, 3)).pi_multiple == Fraction(2, 3)
    assert abs((PI - Angle.radians(1.0)).to_radians() - (math.pi - 1.0)) <= 1e-15


def test_non_finite_radians_are_rejected():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            Angle.radians(value)
        with pytest.raises(DomainError, match="finite"):
            classify(DirectionList.from_radians([value, 1.0]))
        with pytest.raises(DomainError, match="finite"):
            DirectionList.from_radians([1.0, 1.0], [0.0, value])


def test_direction_list_validation():
    with pytest.raises(ShapeError):
        DirectionList(n_parties=2, thetas=(PI,), phis=(PI, PI))
    with pytest.raises(DomainError):
        DirectionList(n_parties=0, thetas=(), phis=())


def test_direction_list_builders():
    d = DirectionList.from_rationals([(1, 2), (1, 3)])
    assert d.n_parties == 2
    assert d.all_exact
    assert all(p.pi_multiple == 0 for p in d.phis)
    d2 = DirectionList.from_radians([0.1, 0.2], [0.3, 0.4])
    assert not d2.all_exact
    assert d2.phi_radians() == [0.3, 0.4]
