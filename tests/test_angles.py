from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet.angles import HALF_PI, PI, ZERO, RationalAngle, angle

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=360
)


def test_reduction_and_normalization():
    a = RationalAngle(2, 4)
    assert (a.num, a.den) == (1, 2)
    b = RationalAngle(-3, -6)
    assert (b.num, b.den) == (1, 2)
    assert RationalAngle(0, 7) == ZERO


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalAngle(1, 0)


@given(fractions)
def test_from_fraction_round_trip(f):
    assert RationalAngle.from_fraction(f).frac == f


@given(fractions, fractions)
def test_arithmetic_matches_fraction_arithmetic(f, g):
    a, b = RationalAngle.from_fraction(f), RationalAngle.from_fraction(g)
    assert (a + b).frac == f + g
    assert (a - b).frac == f - g
    assert (-a).frac == -f
    assert (a * 3).frac == 3 * f
    assert (a / 2).frac == f / 2


@given(fractions)
def test_supplement_is_involutive(f):
    a = RationalAngle.from_fraction(f)
    assert a.supplement().supplement() == a
    assert a.supplement().frac == 1 - f


def test_float_value():
    assert math.isclose(float(angle(1, 3)), math.pi / 3)
    assert float(ZERO) == 0.0


def test_ordering():
    assert angle(1, 3) < HALF_PI < angle(2, 3) < PI
    assert sorted([PI, ZERO, HALF_PI]) == [ZERO, HALF_PI, PI]


def test_open_interval_predicate():
    assert angle(1, 7).in_open_0_pi()
    assert not ZERO.in_open_0_pi()
    assert not PI.in_open_0_pi()
    assert not angle(9, 8).in_open_0_pi()


def test_str_forms():
    assert str(angle(1, 2)) == "pi/2"
    assert str(angle(2, 3)) == "2pi/3"
    assert str(PI) == "pi"
    assert str(ZERO) == "0"
