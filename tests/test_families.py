from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import _interval_gram_minor_signs

from sphertet.angles import RationalAngle, angle
from sphertet.cli import EXIT_OK, main
from sphertet.cyclotomic import CyclotomicNumber, sign
from sphertet.families import (
    DOMAIN_A,
    DOMAIN_B,
    DOMAIN_SEGMENT,
    SEGMENT_END,
    FamilyMembership,
    FamilySpec,
    VolumeForm,
    _family_index,
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


# The positivity witnesses of the 34 segment rows, one string per sum of
# gram_sums: "<bisection segments> <left end> <right end>", where an end
# is "v" (positive value) or "s<vanishing order>@<strip width>" (Taylor
# strip).  Any change to the exact signs, the derivative order or the
# interval enclosures that moves a decision shows here.
_SEGMENT_WITNESSES = {
    1: ('1 v v', '1 v v', '1 v v', '1 v v'),
    2: ('1 v s1@1/24', '1 v v', '1 v v', '4 v s1@1/24'),
    3: ('1 v v', '1 v v', '1 v v', '1 v v'),
    4: ('1 s1@1/24 v', '1 v v', '1 v v', '1 s1@1/24 v'),
    5: ('1 v v', '1 v v', '1 v v', '2 v v'),
    6: ('1 v v', '1 v v', '1 v v', '1 v v'),
    7: ('2 v v', '1 v v', '1 v v', '1 v v'),
    8: ('1 v s1@1/24', '1 v v', '1 v v', '3 v s1@1/24'),
    9: ('1 v v', '1 v v', '1 v v', '2 v v'),
    10: ('1 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    11: ('4 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    12: ('1 v v', '1 v s1@1/24', '1 v v', '1 v s1@1/24'),
    13: ('1 v v', '1 v v', '1 v v', '1 v v'),
    14: ('1 v v', '1 v v', '1 v v', '1 v v'),
    15: ('3 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    16: ('1 v v', '1 v s1@1/24', '1 v v', '4 v s1@1/24'),
    17: ('1 v v', '1 v s1@1/24', '1 v v', '4 v s1@1/24'),
    18: ('4 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    19: ('1 v v', '1 v s1@1/24', '1 v v', '3 v s1@1/24'),
    20: ('1 v s2@1/24', '1 v v', '1 v v', '1 v s2@1/24'),
    21: ('1 v v', '1 v v', '1 v v', '2 v v'),
    22: ('1 v s1@1/24', '1 v v', '1 v v', '4 v s1@1/24'),
    23: ('1 v v', '1 v v', '1 v v', '1 v v'),
    24: ('1 s1@1/24 v', '1 v v', '1 v v', '1 s1@1/24 v'),
    25: ('1 v v', '1 v s1@1/24', '1 v v', '1 v s1@1/24'),
    26: ('1 v v', '4 v s1@1/24', '1 v v', '1 v s1@1/24'),
    27: ('2 v v', '1 v v', '1 v v', '1 v v'),
    28: ('1 v v', '1 v v', '1 v v', '2 v v'),
    29: ('3 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    30: ('1 v s1@1/24', '1 v v', '1 v v', '1 v s1@1/24'),
    31: ('1 v v', '1 v s1@1/24', '1 v v', '3 v s1@1/24'),
    32: ('1 v s1@1/24', '1 v v', '1 v v', '3 v s1@1/24'),
    33: ('1 v v', '1 v v', '1 v v', '1 v v'),
    34: ('1 v v', '4 v s1@1/24', '1 v v', '1 v s1@1/24'),
}


def _end(e) -> str:
    if e.method == "positive-value":
        assert (e.vanishing_order, e.strip_width) == (0, 0)
        return "v"
    assert e.method == "taylor-strip"
    return f"s{e.vanishing_order}@{e.strip_width}"


def test_segment_witnesses_match_the_golden_table(domain_certificates):
    got = {fid: tuple(f"{w.bisection_segments} {_end(w.left)} {_end(w.right)}"
                      for w in cert.witnesses)
           for fid, cert in domain_certificates.items()
           if cert.mode == "interval-bisection"}
    assert got == _SEGMENT_WITNESSES


def test_verify_families_prints_the_golden_segment_counts(capsys):
    assert main(["verify-families"]) == EXIT_OK
    printed = dict(re.findall(r"family +(\d+):.*segments=(\d+)", capsys.readouterr().out))
    assert {int(fid): int(n) for fid, n in printed.items()} == {
        fid: sum(int(w.split()[0]) for w in sums)
        for fid, sums in _SEGMENT_WITNESSES.items()}


def test_families_verify_without_interval_refinement(monkeypatch):
    """Every exact sign behind the 42 certificates is proved by the
    float64 filter: with interval refinement refused, all still verify."""
    def refuse(self, bits=64):
        raise AssertionError("float_interval reached")

    monkeypatch.setattr(CyclotomicNumber, "float_interval", refuse)
    for fam in builtin_families():
        assert verify_identity(fam) and verify_volume_form(fam)
        assert verify_domain(fam).valid


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


# -- membership against a brute-force oracle ------------------------------


def _solve_linear(rows):
    """One exact solution of the rows beta*tau + gamma*mu = rhs, or None.

    Free coordinates default to zero; every candidate is checked against
    all rows at the end, so any returned pair genuinely solves the
    system.
    """
    tau = mu = Fraction(0)
    pivot = next((row for row in rows if row[0] != 0), None)
    if pivot is not None:
        b1, g1, r1 = pivot
        for b, g, r in rows:
            g2, r2 = g - b / b1 * g1, r - b / b1 * r1
            if g2 != 0:
                mu = r2 / g2
                break
        tau = (r1 - g1 * mu) / b1
    else:
        for b, g, r in rows:
            if g != 0:
                mu = r / g
                break
    if all(b * tau + g * mu == r for b, g, r in rows):
        return tau, mu
    return None


_ORACLE_SWAPS = ((False, False), (False, True), (True, False), (True, True))


def _oracle_members(angles, fam):
    """(curve, domain) membership of the angles (p, q, r, s) in the family
    by eliminating each of the four swapped systems of rows
    beta*tau + gamma*mu = angle - alpha: "curve" is the unswapped
    solution, "domain" the first swap solved inside the closed domain."""
    p, q, r, s = angles
    curve = domain = None
    for swap_pq, swap_rs in _ORACLE_SWAPS:
        targets = ((q, p) if swap_pq else (p, q)) + ((s, r) if swap_rs else (r, s))
        if any(f.is_constant and f.pi_part != x for f, x in zip(fam.angle_forms, targets)):
            continue  # a constant angle differs, so _solve_linear's check fails
        solved = _solve_linear([(f.t_part, f.u_part, x - f.pi_part)
                                for f, x in zip(fam.angle_forms, targets)])
        if solved is None:
            continue
        hit = FamilyMembership(fam.family_id, RationalAngle.from_fraction(solved[0]),
                               RationalAngle.from_fraction(solved[1]), swap_pq, swap_rs)
        if not (swap_pq or swap_rs):
            curve = FamilyMembership(hit.family_id, hit.t, hit.u, False, False)
        if domain is None and fam.contains_parameters(*solved):
            domain = hit
    return curve, domain


def _first(hits) -> Optional[FamilyMembership]:
    return next((h for h in hits if h is not None), None)


def _assert_membership_matches_oracle(q):
    angles = q.fractions
    oracle = [_oracle_members(angles, fam) for fam in builtin_families()]
    for fam, (curve, domain) in zip(builtin_families(), oracle):
        assert member_of(q, fam, extent="curve") == curve, (q, fam.family_id)
        assert member_of(q, fam, extent="domain") == domain, (q, fam.family_id)
    assert classify_quadruple(q, extent="curve") == _first(c for c, _ in oracle), q
    assert classify_quadruple(q, extent="domain") == _first(d for _, d in oracle), q


def test_family_index_groups_the_catalog_by_span():
    """18 spans: 16 lines carry the 34 segment rows and 2 planes the 8
    two-parameter rows; every catalog row is in exactly one group."""
    index = _family_index()
    rows = {1: [], 2: []}
    for span, table in index:
        ids = [inv.fam.family_id for group in table.values() for _, inv in group]
        rows[len(span.pivots)].append(ids)
    assert (len(rows[1]), len(rows[2])) == (16, 2)
    assert sorted(i for ids in rows[1] for i in ids) == list(range(1, 35))
    assert sorted(i for ids in rows[2] for i in ids) == list(range(35, 43))


def test_membership_matches_the_oracle_on_raw_solutions(sporadic_report):
    assert len(sporadic_report.raw_solutions) == 790
    for q in sporadic_report.raw_solutions:
        _assert_membership_matches_oracle(q)


def _interior_point(fam, x, y):
    """A point of the open domain from x, y in (0, 1): on the segment, or
    in the triangle spanned from (0, 0) by its other two vertices."""
    if fam.domain == DOMAIN_SEGMENT:
        return x * SEGMENT_END, Fraction(0)
    tau, mu = x * (1 - y / 2), x * y / 2
    return (tau, mu) if fam.domain == DOMAIN_A else (mu, tau)


_OPEN_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda v: 0 < v < 1)


@given(st.integers(1, 42), _OPEN_UNIT, _OPEN_UNIT)
@settings(max_examples=100)
def test_interior_members_match_the_oracle(fam_id, x, y):
    fam = family_by_id(fam_id)
    q = instantiate(fam, *_interior_point(fam, x, y)).quadruple
    assert member_of(q, fam, extent="domain") is not None
    _assert_membership_matches_oracle(q)


_EPS = Fraction(1, 60)
# Region A's vertices, a point inside each edge (u = 0, t + u = 1, t = u)
# and a point just outside each edge; region B mirrors them in t = u.
_REGION_A_PROBES = (
    (0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), 0), (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 3), -_EPS), (Fraction(2, 3) + _EPS / 2, Fraction(1, 3) + _EPS / 2),
    (Fraction(1, 4) - _EPS / 2, Fraction(1, 4) + _EPS / 2),
)


def _boundary_probes(fam):
    if fam.domain == DOMAIN_SEGMENT:
        return [(tau, 0) for tau in (0, SEGMENT_END, -_EPS, SEGMENT_END + _EPS)]
    probes = [(Fraction(t), Fraction(u)) for t, u in _REGION_A_PROBES]
    return probes if fam.domain == DOMAIN_A else [(u, t) for t, u in probes]


@pytest.mark.parametrize("fam_id", range(1, 43))
def test_boundary_points_match_the_oracle(fam_id):
    """The closed domain's ends, edges and vertices are members, and they
    and points just outside match the oracle (an outside point may still
    be a member through a swap)."""
    fam = family_by_id(fam_id)
    probed = 0
    for tau, mu in _boundary_probes(fam):
        angles = [f.value_in_pi_units(tau, mu) for f in fam.angle_forms]
        if not all(0 < a < 1 for a in angles):
            continue  # a degenerate angle: no quadruple
        q = PythagoreanQuadruple.from_fractions(*angles)
        if fam.contains_parameters(tau, mu):
            assert member_of(q, fam, extent="domain") is not None, (tau, mu)
        _assert_membership_matches_oracle(q)
        probed += 1
    assert probed >= 2


def test_unknown_extent_is_rejected():
    q = instantiate(family_by_id(11), Fraction(1, 18)).quadruple
    with pytest.raises(ValueError, match="unknown extent"):
        member_of(q, family_by_id(11), extent="line")
    with pytest.raises(ValueError, match="unknown extent"):
        classify_quadruple(q, extent="line")


def test_curve_and_domain_membership_differ_by_three_points_of_family_9(sporadic_report):
    """On the 208 realizable quadruples, "domain" membership is "curve"
    membership minus three points where family 9,
    (2pi/3, pi/3 + t, pi/3 + t, pi/2), runs on past its printed end
    t = pi/6: the convention that makes 59 sporadic rather than 62."""
    realizable = sporadic_report.realizable
    assert len(realizable) == 208
    curve = {q for q in realizable if classify_quadruple(q, extent="curve")}
    domain = {q for q in realizable if classify_quadruple(q, extent="domain")}
    assert domain <= curve
    assert (len(domain), len(curve)) == (146, 149)
    fam9 = family_by_id(9)
    beyond = {
        quad((2, 3), (8, 15), (8, 15), (1, 2)): Fraction(1, 5),
        quad((2, 3), (3, 5), (3, 5), (1, 2)): Fraction(4, 15),
        quad((2, 3), (2, 3), (2, 3), (1, 2)): Fraction(1, 3),
    }
    assert curve - domain == set(beyond)
    for q, tau in beyond.items():
        assert tau > SEGMENT_END
        assert member_of(q, fam9, extent="curve").t.frac == tau
        assert member_of(q, fam9, extent="domain") is None
