from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert report.prefilter_hits == 2


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
        assert comp.volume_route == "coxeter-parametric"
        assert comp.coxeter_parameter == k
        assert comp.vol.value == 1 / (4 * k)
