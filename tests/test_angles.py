from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet.angles import HALF_PI, PI, ZERO, RationalAngle, angle
from sphertet.geometry import PythagoreanQuadruple

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=360
)
nonzero_ints = st.integers(min_value=-50, max_value=50).filter(bool)
nonzero_fractions = fractions.filter(bool)


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


@given(st.integers(min_value=-1000, max_value=1000), nonzero_ints)
def test_construction_matches_fraction(num, den):
    a = RationalAngle(num, den)
    f = Fraction(num, den)
    assert (a.num, a.den) == (f.numerator, f.denominator)
    assert type(a.num) is int and type(a.den) is int


@given(fractions, nonzero_fractions)
def test_construction_from_fraction_arguments(f, g):
    a = RationalAngle(f, g)
    assert a.frac == f / g and a.den > 0
    assert RationalAngle(f) == RationalAngle.from_fraction(f)


@given(fractions, fractions)
def test_comparisons_and_hash_match_fraction(f, g):
    a, b = RationalAngle.from_fraction(f), RationalAngle.from_fraction(g)
    assert (a < b) == (f < g)
    assert (a <= b) == (f <= g)
    assert (a > b) == (f > g)
    assert (a >= b) == (f >= g)
    assert (a == b) == (f == g)
    if f == g:
        assert hash(a) == hash(b)


@given(fractions)
def test_open_interval_and_supplement_match_fraction(f):
    a = RationalAngle.from_fraction(f)
    assert a.in_open_0_pi() == (0 < f < 1)
    assert a.supplement().frac == 1 - f


@given(fractions, nonzero_ints, nonzero_fractions)
def test_scaling_matches_fraction(f, k, g):
    a = RationalAngle.from_fraction(f)
    assert (a * k).frac == f * k and (k * a).frac == f * k
    assert (a / k).frac == f / k
    assert (a * g).frac == f * g and (g * a).frac == f * g
    assert (a / g).frac == f / g
    assert all(x.den > 0 for x in (a * k, a / k, a * g, a / g))


@given(st.lists(fractions, max_size=20))
def test_sorting_angles_sorts_their_fractions(fs):
    angles = [RationalAngle.from_fraction(f) for f in fs]
    assert sorted(angles) == sorted(angles, key=lambda x: x.frac)
    assert [x.frac for x in sorted(angles)] == sorted(fs)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        angle(1, 3) / 0
    with pytest.raises(ZeroDivisionError):
        angle(1, 3) / Fraction(0)


@pytest.mark.parametrize("make", [
    lambda: RationalAngle(0.1),
    lambda: RationalAngle(1, 2.0),
    lambda: RationalAngle.from_fraction(0.4),
    lambda: RationalAngle.from_fraction("2/5"),
    lambda: angle(1, 3) * 0.5,
    lambda: 0.5 * angle(1, 3),
    lambda: angle(1, 3) / 2.0,
])
def test_floats_are_rejected(make):
    """An inexact operand would turn 0.4 into 3602879701896397/2^53."""
    with pytest.raises(TypeError, match=r"0\.1|2\.0|0\.4|'2/5'|0\.5"):
        make()


def test_quadruple_from_floats_is_rejected():
    with pytest.raises(TypeError, match="0.4"):
        PythagoreanQuadruple.from_fractions(0.4, 0.4, 0.6, 0.2)
