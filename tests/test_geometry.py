from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from sphertet.angles import RationalAngle, angle
from sphertet.cyclotomic import cos_as_cyclotomic, iv_precision, sign
from sphertet.geometry import (
    PreconditionError,
    PythagoreanQuadruple,
    RawQuadruple,
    edge_lengths,
    is_pythagorean,
    is_realizable,
    pair_to_quadruple,
    quadruple_residual,
    realizability,
    vertex_links,
    volume,
)

open_angles = st.builds(
    RationalAngle,
    st.integers(min_value=1, max_value=29),
    st.sampled_from((2, 3, 5, 6, 10, 15, 30)),
).filter(lambda a: a.in_open_0_pi())


def quad(p, q, r, s):
    return PythagoreanQuadruple.of(angle(*p), angle(*q), angle(*r), angle(*s))


ALL_RIGHT = quad((1, 2), (1, 2), (1, 2), (1, 2))
ROW_1 = quad((2, 3), (1, 3), (3, 5), (1, 5))
ROW_4 = quad((2, 5), (1, 5), (2, 3), (1, 2))
ROW_30 = quad((3, 5), (2, 5), (3, 5), (1, 3))


def test_canonical_ordering():
    q = PythagoreanQuadruple.of(angle(1, 3), angle(2, 3), angle(1, 5), angle(3, 5))
    assert q.p >= q.q and q.r >= q.s
    assert q.p == angle(2, 3) and q.r == angle(3, 5)


def test_angles_must_be_interior():
    with pytest.raises(ValueError):
        PythagoreanQuadruple.of(angle(0), angle(1, 2), angle(1, 2), angle(1, 2))
    with pytest.raises(ValueError):
        PythagoreanQuadruple.of(angle(1), angle(1, 2), angle(1, 2), angle(1, 2))


@pytest.mark.parametrize("q", [ALL_RIGHT, ROW_1, ROW_4, ROW_30])
def test_known_solutions_have_zero_residual(q):
    assert quadruple_residual(q).is_zero()
    assert is_pythagorean(q)


def test_non_solution_detected():
    q = quad((1, 3), (1, 3), (1, 2), (1, 2))
    assert not is_pythagorean(q)


@given(open_angles, open_angles)
def test_pair_form_matches_four_cosine_form(a, b):
    """The (p, q) = ((a+b)/2, (a-b)/2) substitution sends the four-term
    cosine sum to the quadruple residual, doubled."""
    if a <= b or a.frac + b.frac >= 2:
        return
    c, d = angle(1, 3), angle(3, 5)
    q = pair_to_quadruple(a, b, c, d)
    if q is None:
        return
    lhs = sum(
        (cos_as_cyclotomic(x) for x in (a, b, c, d)),
        cos_as_cyclotomic(angle(0)) * 0,
    )
    assert (quadruple_residual(q) * 2 - lhs).is_zero()


def test_volume_of_the_all_right_tetrahedron():
    assert volume(ALL_RIGHT).value == Fraction(1, 8)


@pytest.mark.parametrize(
    "q,expected",
    [
        (ROW_1, Fraction(7, 90)),
        (ROW_4, Fraction(7, 720)),
        (ROW_30, Fraction(49, 450)),
    ],
)
def test_volumes_of_reference_rows(q, expected):
    assert volume(q).value == expected


def test_volume_requires_a_solution():
    with pytest.raises(PreconditionError):
        volume(quad((1, 3), (1, 3), (1, 2), (1, 2)))


def test_edge_lengths_pattern():
    lengths = edge_lengths(ROW_1)
    assert lengths.lp == ROW_1.p
    assert lengths.lq == ROW_1.q
    assert lengths.lr == ROW_1.r.supplement()
    assert lengths.ls == ROW_1.s.supplement()


def test_realizability_certificates():
    cert = realizability(ALL_RIGHT)
    assert cert.realizable
    # nearly degenerate but strictly positive definite
    thin = PythagoreanQuadruple.of(
        angle(1, 18), angle(1, 18), angle(17, 18), angle(17, 18)
    )
    assert is_realizable(thin)
    # an indefinite Gram matrix
    flat = PythagoreanQuadruple.of(
        angle(5, 6), angle(5, 6), angle(1, 2), angle(1, 2)
    )
    cert = realizability(flat)
    assert not cert.realizable
    assert len(cert.signs) == 4 and min(cert.signs) < 0


def test_realizability_stays_in_the_field_of_the_angles():
    """A family-9 member whose angles live in Q(zeta_1680): the half-angle
    cosines would need order 3360, above MAX_ORDER."""
    q = PythagoreanQuadruple.from_fractions(
        Fraction(2, 3), Fraction(319, 840), Fraction(1, 2), Fraction(319, 840))
    assert realizability(q).signs == (1, 1, 1, 1)
    assert volume(q).value > 0


def _interval_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _interval_det([row[:j] + row[j + 1:]
                                                     for row in m[1:]])
               for j in range(len(m)))


def _interval_sign(x) -> int:
    """Sign of an interval, 0 when it straddles zero."""
    return 1 if x.a > 0 else -1 if x.b < 0 else 0


def _interval_gram_minor_signs(q: PythagoreanQuadruple) -> tuple[int, int]:
    """Signs of the 3x3 minor and the determinant of the 4x4 Gram matrix
    from 128-bit mpmath interval cosines, by cofactor expansion."""
    with iv_precision(128):
        cp, cq, cr, cs = (-iv.cos(iv.pi * f.numerator / f.denominator)
                          for f in q.fractions)
        g = [[1, cr, cp, cq], [cr, 1, cq, cp],
             [cp, cq, 1, cs], [cq, cp, cs, 1]]
        return (_interval_sign(_interval_det([row[:3] for row in g[:3]])),
                _interval_sign(_interval_det(g)))


def test_four_sums_agree_with_interval_gram_minors(sporadic_report):
    """Independent oracle: the 3x3 minor and the determinant of the 4x4
    Gram matrix from mpmath interval cosines, by cofactor expansion.
    Sylvester's criterion (the 1x1 and 2x2 minors are 1 and sin^2 r)
    must agree with the four-sum certificate wherever both enclosures
    exclude zero; an enclosure that straddles zero belongs to a
    degenerate Gram matrix, which the certificate marks with a zero.  The
    certificate's signs are also those of the four half-angle cosine sums
    evaluated literally (all in Q(zeta_420) on this grid)."""
    straddles = realizable = 0
    for q in sporadic_report.raw_solutions:
        half_diff = cos_as_cyclotomic((q.r - q.s) / 2)
        half_sum = cos_as_cyclotomic((q.r + q.s) / 2)
        cp, cq = cos_as_cyclotomic(q.p), cos_as_cyclotomic(q.q)
        sums = (half_diff - half_sum - (cp + cq),
                half_diff - half_sum + (cp + cq),
                half_diff + half_sum - (cp - cq),
                half_diff + half_sum + (cp - cq))
        assert realizability(q).signs == tuple(sign(x) for x in sums), q
        g3, g4 = _interval_gram_minor_signs(q)
        cert = realizability(q)
        if g3 and g4:
            assert cert.realizable == (g3 > 0 and g4 > 0), q
            assert 0 not in cert.signs, q
        else:
            straddles += 1
            assert 0 in cert.signs and not cert.realizable, q
        realizable += cert.realizable
    assert len(sporadic_report.raw_solutions) == 790
    assert straddles == 420
    assert realizable == 208


def test_vertex_links_shape():
    links = vertex_links(ROW_1)
    assert len(links) == 4
    p, q, r, s = ROW_1.angles
    assert links[0] == (p, q, s)
    assert links[2] == (p, q, r)


def test_raw_quadruple_round_trip():
    raw = RawQuadruple(angle(2, 3), angle(1, 3), angle(3, 5), angle(1, 5))
    assert len(raw.angles) == 4
