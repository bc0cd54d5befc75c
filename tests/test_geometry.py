from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from sphertet import cyclotomic, geometry
from sphertet.angles import RationalAngle, angle
from sphertet.cyclotomic import (
    MAX_ORDER,
    CyclotomicNumber,
    CyclotomicOrderError,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_sum,
    iv_precision,
    sign,
)
from sphertet.families import builtin_families, instantiate
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


def test_realizability_needs_the_common_order_within_max_order():
    """The cosine sums live in Q(zeta_N), N = lcm(2 den) of the four
    angles, even where cos p is rational: here N = lcm(4, 1890) = 3780."""
    q = PythagoreanQuadruple.from_fractions(
        Fraction(1, 2), Fraction(1, 945), Fraction(2, 945), Fraction(4, 945))
    with pytest.raises(CyclotomicOrderError):
        realizability.__wrapped__(q)
    with pytest.raises(CyclotomicOrderError):
        quadruple_residual(q)


def _product_form_signs(q: PythagoreanQuadruple) -> tuple[int, ...]:
    """Test oracle: the certificate signs from det M+- written as
    (1 -+ cos r)(1 -+ cos s) - (cos p +- cos q)^2 and multiplied out,
    each cosine in its own field and every mixed pair embedded into
    the common one."""
    cp, cq, cr, cs = (cos_as_cyclotomic(x) for x in q.angles)
    signs: tuple[int, ...] = ()
    for square, x in (((1 - cr) * (1 - cs), cp + cq),
                      ((1 + cr) * (1 + cs), cp - cq)):
        sx = sign(x)
        det = sign(square - x * x) if sx else 1
        signs += (det if sx > 0 else 1, det if sx < 0 else 1)
    return signs


# Denominators d with 2d | MAX_ORDER, so that every quadruple drawn from
# them has a common order of at most MAX_ORDER; the small ones make
# rational cosines and coincidences between angles likely.
_ORACLE_DENS = tuple(d for d in range(2, MAX_ORDER // 2 + 1) if MAX_ORDER // 2 % d == 0)
_SMALL_DENS = (2, 3, 4, 5, 6, 9, 10, 12)


def _random_quadruple(rng: random.Random) -> PythagoreanQuadruple:
    """Four angles in (0, pi), with q = p (Q = 0) or q = pi - p (P = 0)
    one time in four each."""
    def draw() -> Fraction:
        d = rng.choice(_SMALL_DENS if rng.random() < 0.5 else _ORACLE_DENS)
        return Fraction(rng.randrange(1, d), d)

    p, q, r, s = draw(), draw(), draw(), draw()
    q = rng.choice((q, q, p, 1 - p))
    return PythagoreanQuadruple.from_fractions(p, q, r, s)


def _arbitrary_quadruples() -> list[PythagoreanQuadruple]:
    rng = random.Random(20181)
    return [_random_quadruple(rng) for _ in range(600)]


def test_realizability_matches_the_product_form_on_arbitrary_quadruples():
    """Quadruples that need not solve the equation, at common orders up
    to MAX_ORDER: the linear cosine sums and the multiplied-out
    determinants give the same four signs."""
    high = zero_sums = zero_dets = 0
    for q in _arbitrary_quadruples():
        signs = realizability.__wrapped__(q).signs
        assert signs == _product_form_signs(q), q
        high += math.lcm(*(2 * x.den for x in q.angles)) > 420
        zero_sums += q.p == q.q or q.p + q.q == angle(1)
        zero_dets += 0 in signs
    assert high >= 150 and zero_sums >= 250 and zero_dets >= 1


_ZERO_SIGN_CASES = [
    # p + q = pi: P = 0
    ((Fraction(2, 3), Fraction(1, 3), Fraction(3, 5), Fraction(1, 5)), (1, 1, 1, 1)),
    ((Fraction(6, 7), Fraction(1, 7), Fraction(11, 630), Fraction(1, 9)), (1, 1, 1, 1)),
    # p = q: Q = 0
    ((Fraction(2, 5), Fraction(2, 5), Fraction(3, 5), Fraction(1, 5)), (-1, 1, 1, 1)),
    # det M+ = 1 * 1 - 1^2 = 0, with Q = 0
    ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)), (0, 1, 1, 1)),
    # P = 0 and det M- = 1 * 1 - (-1)^2 = 0
    ((Fraction(2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)), (1, 1, 1, 0)),
    # det M- = (1/2)(1/2) - (cos 2pi/5 - cos pi/5)^2 = 0
    ((Fraction(2, 5), Fraction(1, 5), Fraction(2, 3), Fraction(2, 3)), (1, 1, 1, 0)),
]


@pytest.mark.parametrize("fracs,expected", _ZERO_SIGN_CASES)
def test_realizability_at_zero_signs(fracs, expected):
    q = PythagoreanQuadruple.from_fractions(*fracs)
    assert realizability.__wrapped__(q).signs == _product_form_signs(q) == expected


def test_realizability_multiplies_nothing_and_stays_in_one_order(
        sporadic_report, monkeypatch):
    """With products refused and embeddings into another order refused,
    realizability still decides the default grid and the order-1680
    family-9 member."""
    def refuse_product(self, other):
        raise AssertionError("cyclotomic product")

    embed = CyclotomicNumber.embed

    def same_order_only(self, order):
        if order != self.order:
            raise AssertionError(f"embedding {self.order} -> {order}")
        return embed(self, order)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", refuse_product)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", refuse_product)
    monkeypatch.setattr(CyclotomicNumber, "embed", same_order_only)
    certs = [realizability.__wrapped__(q) for q in sporadic_report.raw_solutions]
    assert sum(c.realizable for c in certs) == 208
    family9 = PythagoreanQuadruple.from_fractions(
        Fraction(2, 3), Fraction(319, 840), Fraction(1, 2), Fraction(319, 840))
    assert realizability.__wrapped__(family9).signs == (1, 1, 1, 1)


def _element_signs(q: PythagoreanQuadruple) -> tuple[int, ...]:
    """Test oracle: the four signs with cos p, cos q, a and b each built
    as its own cosine_sum element, P, Q, a - b and a + b formed by element
    arithmetic, and every sign from sign(), realness check included."""
    order, (p, q_, r, s) = angle_exponents(q.angles)
    cp, cq = cosine_sum(order, ((1, p),)), cosine_sum(order, ((1, q_),))
    a = cosine_sum(order, ((1, r + s), (1, r - s), (-1, 2 * p), (-1, 2 * q_)))
    b = cosine_sum(order, ((2, r), (2, s), (2, p + q_), (2, p - q_)))
    signs: tuple[int, ...] = ()
    for x, det in ((cp + cq, a - b), (cp - cq, a + b)):
        sx = sign(x)
        det_sign = sign(det) if sx else 1
        signs += (det_sign if sx > 0 else 1, det_sign if sx < 0 else 1)
    return signs


def _oracle_cases(sporadic_report) -> list[PythagoreanQuadruple]:
    """The 790 raw solutions, the 600 arbitrary quadruples and the six
    zero-sign cases."""
    return (list(sporadic_report.raw_solutions) + _arbitrary_quadruples()
            + [PythagoreanQuadruple.from_fractions(*f) for f, _ in _ZERO_SIGN_CASES])


def test_stacked_rows_match_the_element_oracle(sporadic_report):
    cases = _oracle_cases(sporadic_report)
    assert len(cases) == 790 + 600 + 6
    for q in cases:
        assert realizability.__wrapped__(q).signs == _element_signs(q), q


def test_realizability_conjugates_nothing(sporadic_report, monkeypatch):
    """The stacked rows are real by construction, so no realness check
    runs: with conjugation refused the default grid still gives 208."""
    def refuse(self):
        raise AssertionError("conjugation")

    monkeypatch.setattr(CyclotomicNumber, "conjugate", refuse)
    certs = [realizability.__wrapped__(q) for q in sporadic_report.raw_solutions]
    assert sum(c.realizable for c in certs) == 208


def test_stacked_rows_are_real_elements(sporadic_report):
    for q in sporadic_report.raw_solutions:
        order, rows = geometry._gram_rows(q)
        assert rows.shape == (4, cyclotomic.totient(order))
        for row in rows:
            assert CyclotomicNumber(order, row.tolist(), 2).is_real(), q


def test_realizability_on_python_ints_matches_the_oracle(sporadic_report, monkeypatch):
    """With the int64 bound forced down, every table product runs on
    Python ints (dtype=object) and the signs do not change."""
    cases = _oracle_cases(sporadic_report)[::4]
    expected = [_element_signs(q) for q in cases]
    monkeypatch.setattr(cyclotomic, "_INT64_SAFE", 1)
    assert geometry._gram_rows(cases[0])[1].dtype == object
    assert [realizability.__wrapped__(q).signs for q in cases] == expected


def test_realizability_fallback_matches_the_oracle(sporadic_report, monkeypatch):
    """With the float64 filter declining every row, each sign that
    realizability uses comes from interval refinement in sign(), and the
    signs do not change."""
    cases = _oracle_cases(sporadic_report)[::25]
    expected = [_element_signs(q) for q in cases]

    def decline(order, nums):
        return [None] * len(nums)

    monkeypatch.setattr(cyclotomic, "filter_signs", decline)
    monkeypatch.setattr(geometry, "filter_signs", decline)
    refined = []
    original = CyclotomicNumber.float_interval

    def counted(self, bits=64):
        refined.append(bits)
        return original(self, bits)

    monkeypatch.setattr(CyclotomicNumber, "float_interval", counted)
    assert [realizability.__wrapped__(q).signs for q in cases] == expected
    assert len(refined) >= 2 * len(cases)


# Cyclotomic orders from 36 to MAX_ORDER, each reachable by every family.
_MEMBER_ORDERS = (36, 48, 60, 84, 120, 168, 240, 360, 420, 720, 1008, 1680, 2520)


def _member_at_order(fam, order: int, rng: random.Random) -> PythagoreanQuadruple:
    """An interior member of fam whose angles have common order exactly order."""
    dens = [d for d in range(2, 2 * order + 1) if 2 * order % d == 0]
    for _ in range(2000):
        m = rng.choice(dens)
        if fam.two_param:
            d = rng.choice(dens)
            tau, mu = Fraction(rng.randrange(1, m), m), Fraction(rng.randrange(1, d), d)
        else:  # 0 < tau < 1/6
            tau, mu = Fraction(rng.randrange(1, max(2, -(-m // 6))), m), Fraction(0)
        if not fam.interior_parameters(tau, mu):
            continue
        if math.lcm(*(2 * f.value_in_pi_units(tau, mu).denominator
                      for f in fam.angle_forms)) == order:
            return instantiate(fam, tau, mu).quadruple
    raise AssertionError(f"no member of family {fam.family_id} at order {order}")


def test_family_members_need_no_interval_refinement(monkeypatch):
    """Beyond the default grid: one member of each of the 42 families at
    each order from 36 to 2520 is realizable, every sign decided by the
    float64 filter."""
    rng = random.Random(2520)
    quads = [_member_at_order(fam, order, rng)
             for order in _MEMBER_ORDERS for fam in builtin_families()]

    def refuse(self, bits=64):
        raise AssertionError("float_interval reached")

    monkeypatch.setattr(CyclotomicNumber, "float_interval", refuse)
    assert len(quads) == 42 * len(_MEMBER_ORDERS)
    assert all(realizability.__wrapped__(q).realizable for q in quads)


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


def test_realizability_needs_no_interval_refinement(sporadic_report, monkeypatch):
    """Every realizability sign on the default grid is decided by the
    float64 filter of sign(); the interval fallback is never reached."""
    def refuse(self, bits=64):
        raise AssertionError("float_interval reached")

    monkeypatch.setattr(CyclotomicNumber, "float_interval", refuse)
    certs = [realizability.__wrapped__(q) for q in sporadic_report.raw_solutions]
    assert len(certs) == 790
    assert sum(c.realizable for c in certs) == 208


def test_vertex_links_shape():
    links = vertex_links(ROW_1)
    assert len(links) == 4
    p, q, r, s = ROW_1.angles
    assert links[0] == (p, q, s)
    assert links[2] == (p, q, r)


def test_raw_quadruple_round_trip():
    raw = RawQuadruple(angle(2, 3), angle(1, 3), angle(3, 5), angle(1, 5))
    assert len(raw.angles) == 4
