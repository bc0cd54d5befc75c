from __future__ import annotations

import copy
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet.angles import RationalAngle, angle
from sphertet.certify import (
    CertificationInconclusive,
    LinkTriangle,
    area_diophantine,
    area_weights,
    coxeter_catalog,
    diameter_certificate,
    lifted_volume_fraction,
    link_triangle_sides,
    nondecomposability_certificate,
    normalized_area,
    recheck_obstruction,
    sides_within,
    volume_fraction,
)
from sphertet.geometry import PreconditionError, PythagoreanQuadruple

REFERENCE_QUAD = PythagoreanQuadruple.of(
    angle(5, 18), angle(2, 9), angle(13, 18), angle(11, 18)
)
REFERENCE_LINK = LinkTriangle(angle(5, 18), angle(2, 9), angle(11, 18))
OCTANT = LinkTriangle(angle(1, 2), angle(1, 2), angle(1, 2))


# -- Coxeter cell catalog -----------------------------------------------------


def test_catalog_has_eleven_cells_with_exact_volumes():
    cells = coxeter_catalog()
    assert len(cells) == 11
    by_symbol = {c.symbol: c for c in cells}
    assert by_symbol["A4"].volume() == Fraction(1, 60)
    assert by_symbol["H4"].volume() == Fraction(1, 7200)
    assert by_symbol["A1x4"].volume() == Fraction(1, 8)
    parametric = [c for c in cells if c.vol is None]
    assert len(parametric) == 2


def test_parametric_cell_volumes():
    by_symbol = {c.symbol: c for c in coxeter_catalog()}
    product = by_symbol["I2(k)xI2(l)"]
    prism = by_symbol["I2(k)xA1x2"]
    assert product.volume(9, 9) == Fraction(1, 162)
    assert product.volume(2, 2) == Fraction(1, 8)
    assert prism.volume(2) == Fraction(1, 8)
    with pytest.raises(PreconditionError):
        product.volume(9)
    with pytest.raises(PreconditionError):
        prism.volume()


# -- link triangles and their sides -------------------------------------------


def test_link_triangle_rejects_degenerate_angles():
    with pytest.raises(PreconditionError):
        LinkTriangle(angle(1, 2), angle(1, 4), angle(1, 4))  # sum = pi
    with pytest.raises(PreconditionError):
        LinkTriangle(angle(9, 10), angle(9, 10), angle(1, 10))
    with pytest.raises(PreconditionError):
        LinkTriangle(angle(1, 1), angle(1, 2), angle(1, 2))


def test_octant_triangle_has_quarter_circle_sides():
    for enc in link_triangle_sides(OCTANT):
        assert enc.lo <= 0 <= enc.hi
        assert enc.hi - enc.lo < Fraction(1, 10**9)
    assert sides_within(OCTANT, angle(1, 3), angle(2, 3))
    # the sides equal pi/2 exactly, so a strict pi/2 bound cannot certify
    assert not sides_within(OCTANT, angle(1, 6), angle(1, 2))


def test_equilateral_two_thirds_triangle_side_cosine():
    t = LinkTriangle(angle(2, 3), angle(2, 3), angle(2, 3))
    third = Fraction(-1, 3)
    for enc in link_triangle_sides(t):
        assert enc.lo <= third <= enc.hi
        assert enc.hi - enc.lo < Fraction(1, 10**9)


def test_reference_link_sides_are_strictly_short():
    assert sides_within(REFERENCE_LINK, angle(1, 6), angle(1, 2))


# -- certified diameter bounds -------------------------------------------------


def test_diameter_certificate_at_reference_center():
    cert = diameter_certificate(REFERENCE_LINK, RationalAngle(4, 25),
                                RationalAngle(1, 4))
    assert cert.holds
    assert cert.precision == 64
    assert all(m.sign == 1 for m in cert.margins)


def test_diameter_certificate_fails_off_center():
    cert = diameter_certificate(REFERENCE_LINK, RationalAngle(1, 20),
                                RationalAngle(1, 4))
    assert not cert.holds
    assert any(m.sign == -1 for m in cert.margins)


@pytest.mark.parametrize("larger", [Fraction(1, 3), Fraction(2, 5)])
def test_diameter_certificate_is_monotone_in_radius(larger):
    cert = diameter_certificate(REFERENCE_LINK, RationalAngle(4, 25),
                                RationalAngle.from_fraction(larger))
    assert cert.holds


def test_exact_boundary_distance_is_inconclusive():
    # for angles (pi/2, pi/2, pi/9) one vertex sits at the pole, exactly
    # pi/2 from every equatorial center: no precision can decide a strict
    # comparison against radius pi/2, and the failure must be explicit
    t = LinkTriangle(angle(1, 2), angle(1, 2), angle(1, 9))
    with pytest.raises(CertificationInconclusive):
        diameter_certificate(t, RationalAngle(1, 5), RationalAngle(1, 2),
                             max_bits=128)


# -- the area Diophantine equation --------------------------------------------


def test_area_weights_are_rederived():
    assert area_weights() == (10, 5, 2)


def test_normalized_areas():
    assert normalized_area(OCTANT) == 30
    assert normalized_area(LinkTriangle(angle(1, 2), angle(1, 3), angle(1, 5))) == 2
    assert normalized_area(REFERENCE_LINK) == Fraction(20, 3)


@pytest.mark.parametrize("target,expected", [
    (Fraction(20, 3), None),
    (17, (1, 1, 1)),
    (1, None),
    (3, None),
    (30, (3, 0, 0)),
    (0, (0, 0, 0)),
    (Fraction(7, 2), None),
    (-4, None),
])
def test_area_diophantine_cases(target, expected):
    assert area_diophantine(target) == expected


@given(st.integers(min_value=0, max_value=400))
def test_area_diophantine_solutions_are_sound_and_complete(total):
    sol = area_diophantine(total)
    brute = any(
        10 * k + 5 * l <= total and (total - 10 * k - 5 * l) % 2 == 0
        for k in range(total // 10 + 1)
        for l in range(total // 5 + 1)
    )
    if sol is None:
        assert not brute
    else:
        k, l, m = sol
        assert min(k, l, m) >= 0
        assert 10 * k + 5 * l + 2 * m == total


# -- the combined obstruction certificate --------------------------------------


def test_reference_quadruple_is_certified_nondecomposable():
    cert = nondecomposability_certificate(REFERENCE_QUAD,
                                          center=RationalAngle(4, 25))
    assert cert is not None
    assert cert.vertex_index == 0
    assert cert.center == RationalAngle(4, 25)
    assert cert.area_target == Fraction(20, 3)
    assert cert.weights == (10, 5, 2)
    assert all(m.sign == 1 for m in cert.margins)

    payload = cert.to_payload()
    assert payload["kind"] == "nondecomposability-obstruction"
    assert recheck_obstruction(payload)

    tampered = copy.deepcopy(payload)
    tampered["radius"] = {"num": 1, "den": 12}
    assert not recheck_obstruction(tampered)


def test_all_right_quadruple_has_no_obstruction():
    quad = PythagoreanQuadruple.of(angle(1, 2), angle(1, 2),
                                   angle(1, 2), angle(1, 2))
    assert nondecomposability_certificate(quad) is None


def test_polar_vertex_quadruple_has_no_obstruction():
    quad = PythagoreanQuadruple.of(angle(1, 2), angle(1, 2),
                                   angle(1, 9), angle(1, 9))
    assert nondecomposability_certificate(quad) is None


# -- suspension lifts ----------------------------------------------------------


def test_lifted_volume_fractions():
    f3 = Fraction(1, 324)
    assert lifted_volume_fraction(f3, 3) == Fraction(1, 324)
    assert lifted_volume_fraction(f3, 4) == Fraction(1, 648)
    assert lifted_volume_fraction(f3, 8) == Fraction(1, 10368)
    with pytest.raises(PreconditionError):
        lifted_volume_fraction(f3, 2)


def test_tetrahedron_and_coxeter_routes_agree_at_every_dimension():
    by_symbol = {c.symbol: c for c in coxeter_catalog()}
    tet_f3 = volume_fraction(Fraction(1, 162))
    cox_f3 = volume_fraction(by_symbol["I2(k)xI2(l)"].volume(9, 9))
    for n in range(3, 9):
        assert lifted_volume_fraction(tet_f3, n) == lifted_volume_fraction(cox_f3, n)
