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
from mpmath import iv

from iv_oracle import _iv_to_signed_interval, iv_precision
from sphertet import certify
from sphertet.angles import RationalAngle, angle, frac_obj
from sphertet.certify import (
    BALL_RADIUS,
    CertificationInconclusive,
    LinkTriangle,
    ObstructionCertificate,
    area_diophantine,
    area_weights,
    coxeter_catalog,
    diameter_certificate,
    lifted_volume_fraction,
    nondecomposability_certificate,
    normalized_area,
    recheck_obstruction,
    volume_fraction,
)
from sphertet.cyclotomic import SignedInterval
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


def _fraction_verdict(angles) -> str:
    """The existence conditions of a link in Fractions of pi: the message
    LinkTriangle raises, or "" for a triangle."""
    a, b, c = (x.frac for x in angles)
    for x in (a, b, c):
        if not 0 < x < 1:
            return f"link angle {x}*pi outside (0, pi)"
    if a + b + c <= 1:
        return "degenerate link: angle sum at most pi"
    if any(x + y - z >= 1 for x, y, z in ((a, b, c), (b, c, a), (c, a, b))):
        return "no spherical triangle with these angles"
    return ""


def _integer_verdict(angles) -> str:
    try:
        t = LinkTriangle(*angles)
    except PreconditionError as exc:
        return str(exc)
    a, b, c = (x.frac for x in angles)
    assert normalized_area(t) == (a + b + c - 1) * 60
    return ""


link_angles = st.builds(RationalAngle, st.integers(min_value=-1, max_value=61),
                        st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10, 12, 18, 25, 60)))


@pytest.mark.parametrize("angles, verdict", [
    ((angle(1, 2), angle(1, 4), angle(1, 4)), "degenerate link: angle sum at most pi"),
    ((angle(1, 3), angle(1, 3), angle(1, 3)), "degenerate link: angle sum at most pi"),
    ((angle(2, 3), angle(2, 3), angle(1, 3)), "no spherical triangle with these angles"),
    ((angle(1, 2), angle(9, 10), angle(2, 5)), "no spherical triangle with these angles"),
    ((angle(3, 4), angle(1, 4), angle(1, 2)), "no spherical triangle with these angles"),
    ((angle(1, 60), angle(1, 3), angle(13, 20)), "degenerate link: angle sum at most pi"),
    ((angle(0), angle(1, 2), angle(2, 3)), "link angle 0*pi outside (0, pi)"),
    ((angle(1, 2), angle(1), angle(2, 3)), "link angle 1*pi outside (0, pi)"),
    ((angle(1, 2), angle(2, 3), angle(-1, 6)), "link angle -1/6*pi outside (0, pi)"),
    ((angle(1, 2), angle(1, 2), angle(1, 60)), ""),
    ((angle(5, 18), angle(2, 9), angle(11, 18)), ""),
])
def test_integer_link_checks_decide_the_boundaries_as_fractions_do(angles, verdict):
    """Angle sum exactly pi, x + y - z exactly pi and an angle of 0 or pi
    are refused, with the message of the Fraction definition."""
    assert _fraction_verdict(angles) == verdict
    assert _integer_verdict(angles) == verdict


@given(st.tuples(link_angles, link_angles, link_angles))
def test_integer_link_checks_accept_and_reject_as_fractions_do(angles):
    assert _integer_verdict(angles) == _fraction_verdict(angles)


def _link_sides(t, bits=64):
    """The enclosures of the side cosines (opposite alpha, beta, gamma)
    that the link's vertices are built from, at bits."""
    w = certify._working_bits(t, bits)
    trig = [certify._cos_sin(x, w) for x in t.angles]
    return [certify._signed(c, w, bits) for c in certify._side_cosines(trig, w)]


def test_octant_triangle_has_quarter_circle_sides():
    for enc in _link_sides(OCTANT):
        assert enc.lo <= 0 <= enc.hi
        assert enc.hi - enc.lo < Fraction(1, 10**9)


def test_equilateral_two_thirds_triangle_side_cosine():
    t = LinkTriangle(angle(2, 3), angle(2, 3), angle(2, 3))
    third = Fraction(-1, 3)
    for enc in _link_sides(t):
        assert enc.lo <= third <= enc.hi
        assert enc.hi - enc.lo < Fraction(1, 10**9)


def test_reference_link_sides_are_strictly_short():
    # pi/6 < side < pi/2 iff 0 < cos(side) < sqrt(3)/2
    for enc in _link_sides(REFERENCE_LINK):
        assert 0 < enc.lo and enc.hi * enc.hi < Fraction(3, 4)


# -- the integer enclosures against mpmath's ------------------------------------


def _iv_cos_sin(x: RationalAngle):
    a = iv.pi * iv.mpf(x.num) / iv.mpf(x.den)
    return iv.cos(a), iv.sin(a)


def _iv_link(t: LinkTriangle):
    """Side cosines and vertex (x, y) coordinates of the link in mpmath
    interval arithmetic at its current precision: the same formulas,
    evaluated independently of the integer enclosures."""
    def sin_from_cos(c):
        square = 1 - c * c
        return iv.sqrt(iv.mpf([max(square.a, 0), min(max(square.b, 0), 1)]))

    (ca, sa), (cb, sb), (cg, sg) = (_iv_cos_sin(x) for x in t.angles)
    sides = ((ca + cb * cg) / (sb * sg), (cb + cg * ca) / (sg * sa),
             (cg + ca * cb) / (sa * sb))
    _, cos_lb, cos_lg = sides
    vertices = ((iv.mpf(1), iv.mpf(0)), (cos_lg, sin_from_cos(cos_lg)),
                (cos_lb, sin_from_cos(cos_lb) * ca))
    return sides, vertices


def _iv_margins(t: LinkTriangle, centers, bits: int):
    """(side cosines, {center: margins}) from mpmath at bits."""
    with iv_precision(bits):
        sides, vertices = _iv_link(t)
        cos_r, _ = _iv_cos_sin(BALL_RADIUS)
        margins = {}
        for c in centers:
            cl, sl = _iv_cos_sin(c)
            margins[c] = [_iv_to_signed_interval(x * cl + y * sl - cos_r, bits)
                          for x, y in vertices]
        return [_iv_to_signed_interval(x, bits) for x in sides], margins


def _verdict(margins):
    if all(m.sign == 1 for m in margins):
        return True
    return False if any(m.sign == -1 for m in margins) else None


def _oracle_links() -> list[LinkTriangle]:
    """The distinct valid vertex links of the 59 sporadic rows, the two
    Lambert companions and the paper's example."""
    quads = [PythagoreanQuadruple.of(*(RationalAngle.from_fraction(row[k]) for k in "pqrs"))
             for row in load_sporadic_fixture()]
    quads += [c.quadruple for c in companion_tetrahedra()] + [REFERENCE_QUAD]
    links = {}
    for quad in quads:
        for angles in vertex_links(quad):
            try:
                links.setdefault(angles, LinkTriangle(*angles))
            except PreconditionError:
                continue
    return list(links.values())


def _scanned_centers(t):
    """The centres the scan proposes on link t, as angles."""
    return [RationalAngle(j, certify._SCAN_DEN) for j in certify._center_candidates(t)]


# mpmath's own 256-bit enclosures are wider than the integer ones at 256
# bits, so the oracle that every enclosure must contain runs at 512.
ORACLE_BITS = 512


def _contains(got, want) -> bool:
    return got.lo <= want.lo and want.hi <= got.hi


def test_integer_link_enclosures_contain_mpmaths_and_decide_as_it_does():
    """At 64, 128 and 256 bits, at the paper's center and at every center
    the scan proposes, each integer side cosine and margin contains
    mpmath's enclosure, is no wider than 2^-bits, and its verdict is
    mpmath's at the same precision wherever mpmath decides."""
    paper = RationalAngle(4, 25)
    links = _oracle_links()
    assert REFERENCE_LINK in links and len(links) > 59
    verdicts = set()
    for t in links:
        centers = [paper] + [c for c in _scanned_centers(t) if c != paper]
        want_sides, want_margins = _iv_margins(t, centers, ORACLE_BITS)
        for bits in (64, 128, 256):
            _, iv_margins = _iv_margins(t, centers, bits)
            for got, want in zip(_link_sides(t, bits), want_sides):
                assert _contains(got, want) and got.width <= Fraction(1, 1 << bits), (t, bits)
            for c in centers:
                got = certify._margins(t, c, BALL_RADIUS, bits)
                for m, want in zip(got, want_margins[c]):
                    assert _contains(m, want) and m.width <= Fraction(1, 1 << bits), (t, c, bits)
                expected = _verdict(iv_margins[c])
                if expected is not None:
                    assert _verdict(got) is expected, (t, c, bits)
                    verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("den", [1, 2, 3, 7, 25, 2520])
def test_any_rational_angle_reduces_to_its_cosine_and_sine_exactly(den):
    """cos and sin of pi n/d for n over three turns each way are those of
    n mod 2d, bit for bit, and contain mpmath's 256-bit enclosures."""
    w = 96
    with iv_precision(256):
        oracle = {n: [_iv_to_signed_interval(f(iv.pi * n / den), 256) for f in (iv.cos, iv.sin)]
                  for n in range(2 * den)}
    for n in range(-6 * den, 6 * den + 1, max(1, den // 60)):
        x = RationalAngle(n, den)
        got = certify._cos_sin(x, w)
        assert got == certify._cos_sin(RationalAngle(n % (2 * den), den), w), x
        for (lo, hi), want in zip(got, oracle[n % (2 * den)]):
            assert _contains(SignedInterval(Fraction(lo, 1 << w), Fraction(hi, 1 << w), w),
                             want), x


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


def test_exact_boundary_distance_is_inconclusive(monkeypatch):
    # for angles (pi/2, pi/2, pi/9) one vertex sits at the pole, exactly
    # pi/2 from every equatorial center: no precision can decide a strict
    # comparison against radius pi/2, and the failure must be explicit
    monkeypatch.setattr(certify, "_MAX_BITS", 128)
    t = LinkTriangle(angle(1, 2), angle(1, 2), angle(1, 9))
    with pytest.raises(CertificationInconclusive, match="undecided at 128 bits"):
        diameter_certificate(t, RationalAngle(1, 5), RationalAngle(1, 2))


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


@pytest.mark.parametrize("turns", [-1, 1, 2])
def test_a_center_shifted_by_whole_turns_gives_the_same_ball(turns):
    """The paper's center moved by 2 pi j: the recheck holds, and the
    verdict, margins and precision are those at 4 pi/25."""
    cert = nondecomposability_certificate(REFERENCE_QUAD, center=RationalAngle(4, 25))
    shifted = Fraction(4, 25) + 2 * turns
    payload = dict(cert.to_payload(), center=frac_obj(shifted))
    assert recheck_obstruction(json.loads(json.dumps(payload)))
    at = diameter_certificate(cert.triangle, RationalAngle.from_fraction(shifted), BALL_RADIUS)
    assert (at.holds, at.margins, at.precision) == (True, cert.margins, 64)


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


def test_a_ball_with_a_vertex_on_its_boundary_rechecks_false():
    """Vertex A lies exactly pi/4 from longitude pi/4, so its margin is 0
    at every precision: the recheck cannot confirm the ball."""
    cert = nondecomposability_certificate(REFERENCE_QUAD, center=RationalAngle(4, 25))
    payload = dict(json.loads(json.dumps(cert.to_payload())),
                   center={"num": 1, "den": 4})
    t = LinkTriangle(*vertex_links(REFERENCE_QUAD)[payload["vertex_index"]])
    with pytest.raises(CertificationInconclusive):
        diameter_certificate(t, RationalAngle(1, 4), BALL_RADIUS)
    assert recheck_obstruction(payload) is False


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


def _count_roots(monkeypatch) -> list[tuple[int, int, int]]:
    """The (order, bits, k) of every _root_fixed call certify makes."""
    calls = []
    real = certify._root_fixed

    def counted(order, bits, k=1):
        calls.append((order, bits, k))
        return real(order, bits, k)

    monkeypatch.setattr(certify, "_root_fixed", counted)
    return calls


def _link_roots(t: LinkTriangle) -> set[tuple[int, int]]:
    """(order, k) of the roots _cos_sin reads for the link's angles."""
    return {(2 * x.den, min(x.num % (2 * x.den), 2 * x.den - x.num % (2 * x.den)))
            for x in t.angles}


def test_the_recheck_computes_its_own_roots(monkeypatch):
    """A certificate made earlier in the process leaves nothing the
    recheck reuses: it builds the link's roots itself."""
    cert = nondecomposability_certificate(REFERENCE_QUAD)
    payload = json.loads(json.dumps(cert.to_payload()))
    roots = _count_roots(monkeypatch)
    assert recheck_obstruction(payload)
    w = certify._working_bits(cert.triangle, cert.precision)
    assert {(order, k) for order, bits, k in roots if bits == w} >= _link_roots(cert.triangle)


def _count_scans(monkeypatch) -> list[LinkTriangle]:
    """The link of every centre scan certify runs."""
    scans = []
    real = certify._center_candidates

    def counted(t):
        scans.append(t)
        return real(t)

    monkeypatch.setattr(certify, "_center_candidates", counted)
    return scans


def test_a_given_center_that_certifies_runs_no_scan(monkeypatch):
    """The paper's example with its centre 4/25, as `certify
    --paper-example` asks: the ball holds at the first link tried."""
    scans = _count_scans(monkeypatch)
    cert = nondecomposability_certificate(REFERENCE_QUAD, center=RationalAngle(4, 25))
    assert cert is not None and cert.center == RationalAngle(4, 25)
    assert scans == []


def test_a_given_center_is_tried_once_per_link(monkeypatch):
    # every diameter check is made to fail, so each candidate of the
    # link is tried; a suggested center the scan also proposes must not
    # be certified a second time
    t = REFERENCE_LINK
    scanned = _scanned_centers(t)
    assert len(scanned) > 1
    given_center = scanned[-1]
    real = certify.diameter_certificate
    calls = []

    def failing(tri, c, radius):
        calls.append((tri, c))
        return dataclasses.replace(real(tri, c, radius), holds=False)

    monkeypatch.setattr(certify, "diameter_certificate", failing)
    assert nondecomposability_certificate(REFERENCE_QUAD,
                                          center=given_center) is None
    assert [c for tri, c in calls if tri == t] == (
        [given_center] + [c for c in scanned if c != given_center])
    assert len(calls) == len(set(calls))


# -- the search against the exhaustive loop -----------------------------------


def _reference_candidates(t, den=120):
    """The float centre scan over all longitudes pi*j/den, vertex A
    included, with its trigonometry evaluated per call."""
    verts = ((1.0, 0.0),) + certify._float_vertices(t)
    cos_r = math.cos(float(BALL_RADIUS))
    out = []
    for j in range(den):
        lam = math.pi * j / den
        cl, sl = math.cos(lam), math.sin(lam)
        worst = min(v[0] * cl + v[1] * sl for v in verts)
        if worst > cos_r:
            out.append((worst - cos_r, j))
    out.sort(key=lambda pair: -pair[0])
    return [j for _, j in out[:8]]


def test_the_center_scan_is_the_full_scan():
    """Skipping the longitudes that vertex A already rules out leaves the
    proposals of the scan over all 120 longitudes, in the same order, on
    every oracle link and on the links of family members up to order 2520."""
    links = _oracle_links()
    rng = random.Random(29)
    for order in (60, 420, 1260, 2520):
        for fam in builtin_families():
            for angles in vertex_links(_member_at_order(fam, order, rng)):
                try:
                    links.append(LinkTriangle(*angles))
                except PreconditionError:
                    continue
    assert len(links) > 59 + 4 * 42
    for t in links:
        assert certify._center_candidates(t) == _reference_candidates(t), t


def _reference_weights():
    weights = tuple(int((sum(a) - 1) * 60)
                    for a in certify._RIGHT_TRIANGLE_LINKS)
    assert weights == (10, 5, 2)
    return weights


def _reference_certificate(quad):
    """Every one of the four vertex links tried, repeats included, with
    the weights derived and the longitudes evaluated on every call."""
    weights = _reference_weights()
    radius = RationalAngle(1, 4)
    for idx, angles in enumerate(vertex_links(quad)):
        try:
            t = LinkTriangle(*angles)
        except PreconditionError:
            continue
        target = normalized_area(t)
        if area_diophantine(target) is not None:
            continue
        for j in _reference_candidates(t):
            c = RationalAngle(j, 120)
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
    scans = _count_scans(monkeypatch)
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
