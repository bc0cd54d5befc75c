from __future__ import annotations

import copy
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet import certify
from sphertet.angles import RationalAngle, angle, frac_obj
from sphertet.certify import (
    CertificationInconclusive,
    LinkTriangle,
    ObstructionCertificate,
    area_diophantine,
    area_weights,
    coxeter_catalog,
    diameter_certificate,
    lifted_volume_fraction,
    link_triangle_sides,
    nondecomposability_certificate,
    normalized_area,
    recheck_obstruction,
    volume_fraction,
)
from sphertet.families import builtin_families, instantiate
from sphertet.geometry import PreconditionError, PythagoreanQuadruple, vertex_links
from sphertet.lambert import companion_tetrahedra
from sphertet.records import load_sporadic_fixture

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


@pytest.mark.parametrize("k, l", [(0, 9), (-3, 9), (1, 1), (9, 1), (9.0, 9), (True, 9),
                                  (Fraction(9), 9)])
def test_parametric_cell_volumes_need_dihedral_orders(k, l):
    """k and l are orders of dihedral groups, ints of at least 2."""
    by_symbol = {c.symbol: c for c in coxeter_catalog()}
    with pytest.raises(PreconditionError):
        by_symbol["I2(k)xI2(l)"].volume(k, l)
    if l != 9:
        return
    with pytest.raises(PreconditionError):
        by_symbol["I2(k)xA1x2"].volume(k)


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


def test_equilateral_two_thirds_triangle_side_cosine():
    t = LinkTriangle(angle(2, 3), angle(2, 3), angle(2, 3))
    third = Fraction(-1, 3)
    for enc in link_triangle_sides(t):
        assert enc.lo <= third <= enc.hi
        assert enc.hi - enc.lo < Fraction(1, 10**9)


def test_reference_link_sides_are_strictly_short():
    # pi/6 < side < pi/2 iff 0 < cos(side) < sqrt(3)/2
    for enc in link_triangle_sides(REFERENCE_LINK):
        assert 0 < enc.lo and enc.hi * enc.hi < Fraction(3, 4)


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


def test_area_weight_guard_fires_when_rederived(monkeypatch):
    # the weights are derived once per process; a fresh derivation from
    # wrong link angles must still raise instead of returning a value
    right = certify._RIGHT_TRIANGLE_LINKS
    assert area_weights() == (10, 5, 2)
    try:
        with monkeypatch.context() as m:
            # a cached value is not derived again
            m.setattr(certify, "_RIGHT_TRIANGLE_LINKS", right[:2])
            assert area_weights() == (10, 5, 2)

            area_weights.cache_clear()
            m.setattr(certify, "_RIGHT_TRIANGLE_LINKS",
                      right[:2] + ((Fraction(1, 2), Fraction(1, 3),
                                    Fraction(1, 7)),))
            with pytest.raises(ArithmeticError, match="non-integral"):
                area_weights()

            area_weights.cache_clear()
            m.setattr(certify, "_RIGHT_TRIANGLE_LINKS", right[:2] + right[:1])
            with pytest.raises(ArithmeticError, match="expected"):
                area_weights()
    finally:
        area_weights.cache_clear()
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


def _forged_payload(quad, idx, center, radius):
    """A payload for the link at vertex idx with a ball it never proved."""
    t = LinkTriangle(*vertex_links(quad)[idx])
    return {"kind": "nondecomposability-obstruction",
            "quadruple": [frac_obj(a.frac) for a in quad.angles],
            "vertex_index": idx,
            "triangle": [frac_obj(a.frac) for a in t.angles],
            "center": frac_obj(center), "radius": frac_obj(radius),
            "area_target": frac_obj(normalized_area(t)),
            "weights": list(area_weights())}


ROW_26 = PythagoreanQuadruple.of(angle(4, 7), angle(2, 7), angle(4, 7), angle(1, 3))


@pytest.mark.parametrize("center, radius", [(0, Fraction(1, 2)), (0, Fraction(-1, 2)),
                                            (Fraction(1, 15), Fraction(1, 3))])
def test_a_ball_wider_than_a_quarter_circle_is_refused(center, radius):
    """Row 26 has no certificate, and its vertex-0 link has an infeasible
    area; each of these balls contains that link, but only a radius in
    (0, pi/4] excludes a D(2,2,n)."""
    assert nondecomposability_certificate(ROW_26) is None
    t = LinkTriangle(*vertex_links(ROW_26)[0])
    assert area_diophantine(normalized_area(t)) is None
    assert diameter_certificate(t, RationalAngle.from_fraction(center),
                                RationalAngle.from_fraction(radius)).holds
    assert not recheck_obstruction(_forged_payload(ROW_26, 0, center, radius))


def test_no_sporadic_row_without_a_certificate_rechecks_a_forged_ball():
    for row in load_sporadic_fixture():
        quad = PythagoreanQuadruple.of(*(RationalAngle.from_fraction(row[k])
                                         for k in "pqrs"))
        if nondecomposability_certificate(quad) is not None:
            continue
        for idx in range(4):
            for radius in (Fraction(1, 2), Fraction(-1, 2)):
                payload = _forged_payload(quad, idx, 0, radius)
                assert not recheck_obstruction(payload), (row["no"], idx, radius)


def _malformed(payload):
    yield {"kind": "nondecomposability-obstruction"}
    # the keys a recheck reads; it recomputes the margins and their precision
    for key in ("kind", "quadruple", "vertex_index", "triangle", "center", "radius",
                "area_target", "weights"):
        yield {k: v for k, v in payload.items() if k != key}
    for key, value in (("vertex_index", "0"), ("vertex_index", True),
                       ("vertex_index", 9), ("vertex_index", 0.0),
                       ("quadruple", payload["quadruple"][:3]),
                       ("quadruple", [frac_obj(Fraction(1, 10))] * 4),  # no link
                       ("radius", {"num": 1, "den": 0}),
                       ("radius", {"num": 0.25, "den": 1}),
                       ("center", "0"), ("weights", 10)):
        yield dict(payload, **{key: value})
    zero_angle = copy.deepcopy(payload)
    zero_angle["quadruple"][3] = {"num": 0, "den": 1}
    yield zero_angle


def test_a_malformed_payload_rechecks_false():
    cert = nondecomposability_certificate(REFERENCE_QUAD, center=RationalAngle(4, 25))
    payload = json.loads(json.dumps(cert.to_payload()))
    assert recheck_obstruction(payload)
    for bad in _malformed(payload):
        assert recheck_obstruction(bad) is False, bad


@pytest.mark.parametrize("payload", [[], "x", None])
def test_a_payload_that_is_not_an_object_rechecks_false(payload):
    """A certificate file line holding a JSON array, string or null."""
    cert = nondecomposability_certificate(REFERENCE_QUAD, center=RationalAngle(4, 25))
    assert recheck_obstruction(json.loads(json.dumps(cert.to_payload())))
    assert recheck_obstruction(payload) is False


def test_all_right_quadruple_has_no_obstruction():
    quad = PythagoreanQuadruple.of(angle(1, 2), angle(1, 2),
                                   angle(1, 2), angle(1, 2))
    assert nondecomposability_certificate(quad) is None


def test_polar_vertex_quadruple_has_no_obstruction():
    quad = PythagoreanQuadruple.of(angle(1, 2), angle(1, 2),
                                   angle(1, 9), angle(1, 9))
    assert nondecomposability_certificate(quad) is None


def test_a_given_center_is_tried_once_per_link(monkeypatch):
    # every diameter check is made to fail, so each candidate of the
    # link is tried; a suggested center the scan also proposes must not
    # be certified a second time
    t = REFERENCE_LINK
    scanned = certify._center_candidates(t, RationalAngle(1, 4))
    assert len(scanned) > 1
    given_center = scanned[-1]
    real = certify.diameter_certificate
    calls = []

    def failing(tri, c, radius, **kw):
        calls.append((tri, c))
        return dataclasses.replace(real(tri, c, radius, **kw), holds=False)

    monkeypatch.setattr(certify, "diameter_certificate", failing)
    assert nondecomposability_certificate(REFERENCE_QUAD,
                                          center=given_center) is None
    assert [c for tri, c in calls if tri == t] == (
        [given_center] + [c for c in scanned if c != given_center])
    assert len(calls) == len(set(calls))


# -- the search against the exhaustive loop -----------------------------------


def _reference_candidates(t, radius, den=120):
    """The float centre scan with its trigonometry evaluated per call."""
    verts = certify._float_vertices(t)
    cos_r = math.cos(float(radius))
    out = []
    for j in range(den):
        lam = math.pi * j / den
        cl, sl = math.cos(lam), math.sin(lam)
        worst = min(v[0] * cl + v[1] * sl for v in verts)
        if worst > cos_r:
            out.append((worst - cos_r, RationalAngle(j, den)))
    out.sort(key=lambda pair: -pair[0])
    return [c for _, c in out[:8]]


def _reference_weights():
    weights = tuple(int((sum(a) - 1) * 60)
                    for a in certify._RIGHT_TRIANGLE_LINKS)
    assert weights == (10, 5, 2)
    return weights


def _reference_certificate(quad, radius=RationalAngle(1, 4)):
    """Every one of the four vertex links tried, repeats included, with
    the weights derived and the longitudes evaluated on every call."""
    weights = _reference_weights()
    for idx, angles in enumerate(vertex_links(quad)):
        try:
            t = LinkTriangle(*angles)
        except PreconditionError:
            continue
        target = normalized_area(t)
        if area_diophantine(target) is not None:
            continue
        for c in _reference_candidates(t, radius):
            try:
                cert = diameter_certificate(t, c, radius)
            except CertificationInconclusive:
                continue
            if cert.holds:
                return ObstructionCertificate(
                    quad, idx, t, c, radius, cert.margins, cert.precision,
                    target, weights)
    return None


def _common_order(fam, tau, mu):
    n = 1
    for form in fam.angle_forms:
        den = 2 * form.value_in_pi_units(tau, mu).denominator
        n = n * den // math.gcd(n, den)
    return n


def _member_at_order(fam, order, rng):
    """An interior member of the family whose angles have exactly this
    common cyclotomic order, drawn from parameters dividing 2*order."""
    dens = [d for d in range(2, 2 * order + 1) if 2 * order % d == 0]
    while True:
        m, d = rng.choice(dens), rng.choice(dens)
        tau = Fraction(rng.randrange(1, m), m)
        mu = Fraction(rng.randrange(1, d), d) if fam.two_param else Fraction(0)
        if (fam.interior_parameters(tau, mu)
                and _common_order(fam, tau, mu) == order):
            return instantiate(fam, tau, mu).quadruple


def _oracle_quadruples():
    quads = [PythagoreanQuadruple.of(*(RationalAngle.from_fraction(row[k])
                                       for k in "pqrs"))
             for row in load_sporadic_fixture()]
    quads += [c.quadruple for c in companion_tetrahedra()]
    rng = random.Random(13)
    for order in (36, 420, 2520):
        quads += [_member_at_order(fam, order, rng)
                  for fam in builtin_families()]
    return quads


def test_each_distinct_link_gives_the_exhaustive_loop_certificates(monkeypatch):
    scans = []
    real_scan = certify._center_candidates

    def counted(t, radius, den=120):
        scans.append(t)
        return real_scan(t, radius, den)

    monkeypatch.setattr(certify, "_center_candidates", counted)
    quads = _oracle_quadruples()
    assert len(quads) == 59 + 2 + 3 * 42
    found = 0
    for quad in quads:
        scans.clear()
        cert = nondecomposability_certificate(quad)
        ref = _reference_certificate(quad)
        if ref is None:
            assert cert is None, quad
        else:
            payload = json.dumps(cert.to_payload())
            assert payload == json.dumps(ref.to_payload()), quad
            assert recheck_obstruction(json.loads(payload))
            found += 1
        _, _, r, s = quad.angles
        assert len(scans) == len(set(scans)) <= (1 if r == s else 2), quad
    assert found > 0

    # a repeated link is scanned once: r = s gives a single link
    polar = PythagoreanQuadruple.of(angle(1, 2), angle(1, 2),
                                    angle(1, 9), angle(1, 9))
    scans.clear()
    assert nondecomposability_certificate(polar) is None
    assert len(scans) == 1


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
