from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import _interval_gram_minor_signs

from sphertet.angles import angle
from sphertet.cyclotomic import sign
from sphertet.families import (
    DOMAIN_A,
    DOMAIN_B,
    DOMAIN_SEGMENT,
    SEGMENT_END,
    FamilySpec,
    VolumeForm,
    builtin_families,
    classify_quadruple,
    export_catalog,
    family_by_id,
    gram_sums,
    instantiate,
    member_of,
    residual_poly,
    verify_domain,
    verify_identity,
    verify_volume_form,
)
from sphertet.geometry import PythagoreanQuadruple, realizability, volume
from sphertet.records import load_family_fixture
from sphertet.trigpoly import AngleForm, PositivityError


def quad(p, q, r, s):
    return PythagoreanQuadruple.of(angle(*p), angle(*q), angle(*r), angle(*s))


def test_catalog_size_and_split():
    fams = builtin_families()
    assert len(fams) == 42
    assert sum(1 for f in fams if f.domain == DOMAIN_SEGMENT) == 34
    assert sum(1 for f in fams if f.domain in (DOMAIN_A, DOMAIN_B)) == 8
    assert [f.family_id for f in fams] == list(range(1, 43))


def test_twin_map_is_an_involution_swapping_r_and_s():
    fams = {f.family_id: f for f in builtin_families()}
    for f in fams.values():
        twin = fams[f.twin_id]
        assert twin.twin_id == f.family_id
        assert twin.p == f.p and twin.q == f.q
        assert (twin.r, twin.s) == (f.s, f.r)


@pytest.mark.parametrize("fam_id", range(1, 43))
def test_identity_holds_exactly(fam_id):
    assert verify_identity(family_by_id(fam_id))


@pytest.mark.parametrize("fam_id", range(1, 43))
def test_volume_polynomial_matches_closed_form(fam_id):
    assert verify_volume_form(family_by_id(fam_id))


def test_all_domains_certified(domain_certificates):
    assert len(domain_certificates) == 42
    for fam_id, cert in domain_certificates.items():
        assert cert.valid, f"family {fam_id} domain not certified"
    # one-parameter rows use interval bisection, two-parameter rows a
    # factorization of each cosine sum into a product of two cosines
    assert domain_certificates[2].mode == "interval-bisection"
    assert domain_certificates[40].mode == "sine-factorization"


def test_segment_domain_certificates_have_witnesses(domain_certificates):
    cert = domain_certificates[2]
    assert len(cert.witnesses) == 4
    for w in cert.witnesses:
        assert w.bisection_segments > 0
        assert w.variable_range == (Fraction(0), SEGMENT_END)


# Rational sample points of each domain: both ends and the middle of the
# segment; the centroid of each triangle and a point near each vertex.
_TRIANGLES = {
    DOMAIN_A: ((0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))),
    DOMAIN_B: ((0, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))),
}


def _sample_points(fam):
    if fam.domain == DOMAIN_SEGMENT:
        end = Fraction(1, 420)
        return [(end, 0), (Fraction(1, 12), 0), (SEGMENT_END - end, 0)]
    vertices = _TRIANGLES[fam.domain]
    center = tuple(sum(Fraction(v[i]) for v in vertices) / 3 for i in (0, 1))
    near = [tuple(v[i] + (center[i] - v[i]) / 60 for i in (0, 1))
            for v in vertices]
    return [center, *near]


@pytest.mark.parametrize("fam_id", range(1, 43))
def test_gram_sums_agree_with_interval_gram_minors(fam_id):
    """Independent oracle for the domain certificates: at rational points
    of the open domain the 3x3 minor and the determinant of the 4x4 Gram
    matrix, from 128-bit mpmath interval cosines, are positive, the
    quadruple is realizable, and every sum of gram_sums is positive."""
    fam = family_by_id(fam_id)
    for tau, mu in _sample_points(fam):
        q = instantiate(fam, tau, mu).quadruple
        assert _interval_gram_minor_signs(q) == (1, 1), (tau, mu)
        assert realizability(q).realizable
        assert [sign(s.eval_exact(tau, mu)) for s in gram_sums(fam)] == [1] * 4


def test_product_certificate_rejects_a_factor_that_changes_sign():
    """S- - P = sin 2t - sin u = 2 cos(t + u/2) sin(t - u/2), and
    cos(t + u/2) crosses zero inside region A."""
    fam = FamilySpec(99, AngleForm(Fraction(1, 2)), AngleForm(Fraction(1, 2), 0, -1),
                     AngleForm(1, -2), AngleForm(0, 2), VolumeForm(), DOMAIN_A, 99)
    with pytest.raises(PositivityError, match="not positive throughout region A"):
        verify_domain(fam)


def test_residual_poly_is_nonzero_off_family():
    poly = residual_poly(family_by_id(1))
    # evaluating anywhere on the family gives zero
    assert poly.eval_exact(Fraction(1, 12), Fraction(0)).is_zero()


def test_instantiate_reference_member():
    inst = instantiate(family_by_id(11), Fraction(1, 18))
    assert tuple(a.frac for a in inst.quadruple.angles) == (
        Fraction(5, 18), Fraction(2, 9), Fraction(13, 18), Fraction(11, 18),
    )
    assert inst.vol.value == Fraction(1, 162)
    assert volume(inst.quadruple).value == Fraction(1, 162)


def test_instantiate_rejects_boundary_and_exterior():
    fam = family_by_id(11)
    with pytest.raises(ValueError):
        instantiate(fam, Fraction(0))
    with pytest.raises(ValueError):
        instantiate(fam, SEGMENT_END)
    with pytest.raises(ValueError):
        instantiate(fam, Fraction(1, 2))


@pytest.mark.parametrize("fam_id", [1, 9, 11, 20, 35, 42])
def test_members_are_recognized_in_domain(fam_id):
    fam = family_by_id(fam_id)
    if fam.domain == DOMAIN_A:
        tau, mu = Fraction(1, 6), Fraction(1, 12)
    elif fam.domain == DOMAIN_B:
        tau, mu = Fraction(1, 12), Fraction(1, 6)
    else:
        tau, mu = Fraction(1, 12), Fraction(0)
    inst = instantiate(fam, tau, mu)
    hit = member_of(inst.quadruple, fam, extent="domain")
    assert hit is not None
    assert hit.family_id == fam_id


def test_membership_modes_differ_beyond_the_printed_domain():
    """Family 9 keeps solving the equation past its printed parameter
    range; those points match in curve mode but not in domain mode."""
    fam = family_by_id(9)
    beyond = quad((2, 3), (8, 15), (8, 15), (1, 2))
    assert member_of(beyond, fam, extent="domain") is None
    assert member_of(beyond, fam, extent="curve") is not None


def test_curve_mode_respects_the_printed_ordering():
    """Where the parametric forms cross (p below q), the published
    convention files the quadruple as sporadic: ordered matching must
    not catch it."""
    sporadic_member = quad((4, 5), (2, 3), (4, 5), (1, 2))
    assert classify_quadruple(sporadic_member, extent="curve") is None


def test_classify_quadruple_finds_some_family():
    inst = instantiate(family_by_id(20), Fraction(1, 10))
    hit = classify_quadruple(inst.quadruple)
    assert hit is not None


def test_nonmember_is_not_classified():
    stray = quad((2, 3), (1, 3), (3, 5), (1, 5))  # a sporadic row
    assert classify_quadruple(stray, extent="curve") is None


@given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(45, 100),
                    max_denominator=60))
@settings(max_examples=30)
def test_two_param_instances_have_consistent_volume(tau):
    fam = family_by_id(35)
    mu = tau / 2  # strictly inside region A: 0 < mu < tau, tau + mu < 1
    if not fam.interior_parameters(tau, mu):
        return
    inst = instantiate(fam, tau, mu)
    assert inst.vol.value == volume(inst.quadruple).value


def test_export_matches_shipped_fixture():
    assert json.dumps(export_catalog(), sort_keys=True) == json.dumps(
        load_family_fixture(), sort_keys=True
    )
