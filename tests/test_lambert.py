from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet import lambert
from sphertet.angles import RationalAngle, angle
from sphertet.cyclotomic import CyclotomicNumber, cos_as_cyclotomic
from sphertet.geometry import PreconditionError, is_pythagorean
from sphertet.lambert import (
    LambertCube,
    companion_tetrahedra,
    lambert_residual,
    lambert_volume,
    search_rational_lambert_cubes,
)
from sphertet.records import load_lambert_fixture

L1 = LambertCube(angle(3, 4), angle(2, 3), angle(2, 3))
L2 = LambertCube(angle(2, 3), angle(3, 5), angle(4, 5))


def squared_residual(a: RationalAngle, b: RationalAngle,
                     c: RationalAngle) -> CyclotomicNumber:
    """cos^2 a + cos^2 b + cos^2 c - 1 from products of cosines, each in
    its own field; equals lambert_residual, which doubles the angles
    instead, exactly."""
    total = CyclotomicNumber.zero(1) - Fraction(1)
    for x in (a, b, c):
        cx = cos_as_cyclotomic(x)
        total = total + cx * cx
    return total


# Denominators divide 1260 so that combined cyclotomic orders stay small.
_DENS = (3, 4, 5, 6, 7, 9, 10, 12, 14, 15)
window_angles = st.builds(
    lambda d, k: RationalAngle(d + k, 2 * d),
    st.sampled_from(_DENS),
    st.integers(min_value=1, max_value=6),
).filter(lambda a: Fraction(1, 2) < a.frac < 1)


def test_cube_angles_sorted_and_validated():
    cube = LambertCube(angle(3, 5), angle(4, 5), angle(2, 3))
    assert (cube.a, cube.b, cube.c) == (angle(4, 5), angle(2, 3), angle(3, 5))
    with pytest.raises(PreconditionError):
        LambertCube(angle(1, 2), angle(2, 3), angle(2, 3))
    with pytest.raises(PreconditionError):
        LambertCube(angle(2, 3), angle(2, 3), angle(1, 1))


def test_known_cubes_satisfy_the_cosine_square_relation():
    assert lambert_residual(*L1.angles).is_zero()
    assert lambert_residual(*L2.angles).is_zero()


def test_all_right_angles_miss_by_one():
    res = lambert_residual(angle(1, 2), angle(1, 2), angle(1, 2))
    assert res.rational_value == -1


@given(window_angles, window_angles, window_angles)
def test_angle_doubling_reduction_is_an_identity(a, b, c):
    assert (lambert_residual(a, b, c) - squared_residual(a, b, c)).is_zero()


def test_volumes_of_the_two_cubes():
    assert lambert_volume(L1).value == Fraction(31, 576)
    assert lambert_volume(L2).value == Fraction(17, 360)


def test_volume_requires_the_relation():
    bad = LambertCube(angle(3, 4), angle(3, 4), angle(3, 4))
    with pytest.raises(PreconditionError):
        lambert_volume(bad)


def test_search_finds_exactly_the_two_cubes():
    report = search_rational_lambert_cubes()
    found = {tuple(x.frac for x in cube.angles) for cube in report.cubes}
    golden = {g["angles"] for g in load_lambert_fixture()}
    assert found == golden
    assert {v.value for v in report.volumes} \
        == {g["vol"] for g in load_lambert_fixture()}
    assert report.no_continuous_family


def test_the_family_pattern_tuples_of_the_slice_leave_cos_y3_minus_one():
    """The b = 0 tuples (y3, 0, y1, y2) over 420 with y1 + y2 = pi: each
    has y3 = pi, which is what no_continuous_family checks."""
    grid = lambert.PAPER_GRID
    pattern = [(y3, y1, y2) for y3, b, y1, y2 in grid.zero_sum_tuples
               if b == 0 and y1 + y2 == 210]
    assert grid.order == 420
    assert pattern == [(210, 105, 105), (210, 112, 98), (210, 120, 90), (210, 126, 84),
                       (210, 140, 70), (210, 150, 60), (210, 154, 56), (210, 168, 42),
                       (210, 180, 30), (210, 182, 28), (210, 196, 14)]


def test_a_pattern_tuple_with_another_y3_breaks_the_family_exclusion(monkeypatch):
    """no_continuous_family is read off the slice: a stand-in grid whose
    slice adds (196, 0, 140, 70), y1 + y2 = pi but y3 != pi, makes it
    False and leaves the cubes alone."""
    grid = lambert.PAPER_GRID
    stand_in = SimpleNamespace(order=grid.order, exponents=grid.exponents,
                               zero_sum_tuples=[*grid.zero_sum_tuples, (196, 0, 140, 70)])
    monkeypatch.setattr(lambert, "PAPER_GRID", stand_in)
    report = search_rational_lambert_cubes()
    assert not report.no_continuous_family
    assert len(report.cubes) == 2


def test_companions_share_the_cube_volumes():
    t1, t2 = companion_tetrahedra()
    assert t1.vol.value == Fraction(31, 576)
    assert t2.vol.value == Fraction(17, 360)
    golden = {g["companion"] for g in load_lambert_fixture()}
    ours = {tuple(a.frac for a in t.quadruple.angles) for t in (t1, t2)}
    assert ours == golden


def test_companions_take_the_reflection_group_volume_route():
    """The companions fail the four-cosine equation, so their volume
    comes from the one-essential-angle family with rational parameter."""
    for comp, k in zip(companion_tetrahedra(),
                       (Fraction(144, 31), Fraction(90, 17))):
        assert not is_pythagorean(comp.quadruple)
        assert comp.coxeter_parameter == k
        assert comp.vol.value == 1 / (4 * k)
