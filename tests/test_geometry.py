from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from sphertet import cyclotomic, geometry
from sphertet.angles import RationalAngle, angle
from iv_oracle import iv_precision
from sphertet.cyclotomic import (
    MAX_ORDER,
    CyclotomicNumber,
    CyclotomicOrderError,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_sum,
    sign,
)
from sphertet.families import builtin_families, instantiate
from sphertet.records import load_sporadic_fixture
from sphertet.geometry import (
    PreconditionError,
    PythagoreanQuadruple,
    edge_lengths,
    gram_orbit,
    is_pythagorean,
    is_realizable,
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
    q = PythagoreanQuadruple.of((a + b) / 2, (a - b) / 2, c, d)
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


# angles whose denominators divide 1260, so every quadruple lives in an
# order dividing 2520
wide_angles = st.builds(
    RationalAngle,
    st.integers(min_value=1, max_value=1259),
    st.sampled_from((2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 35, 36, 60, 84, 90, 126, 140,
                     180, 252, 315, 420, 630, 1260)),
).filter(lambda a: a.in_open_0_pi())

# (pi/2, q, r, pi - r) has residual cos q * 0 + cos(pi/2) cos(r - pi/2) = 0
wide_solutions = st.builds(
    lambda q, r: PythagoreanQuadruple.of(angle(1, 2), q, r, r.supplement()),
    wide_angles, wide_angles)
wide_quadruples = st.one_of(
    wide_solutions,
    st.builds(PythagoreanQuadruple.of, wide_angles, wide_angles, wide_angles, wide_angles))


def _fraction_volume(q: PythagoreanQuadruple) -> Fraction:
    p, q, r, s = q.fractions
    return (r * (2 - r) / 2 + p * p + q * q + s * (2 - s) / 2 - 1) / 2


def _check_residual_and_volume(q: PythagoreanQuadruple) -> bool:
    """is_pythagorean is the element's zero test, and the unchecked
    volume is the closed form in Fractions (refused outside (0, 2))."""
    zero = quadruple_residual(q).is_zero()
    assert is_pythagorean(q) is zero, q
    want = _fraction_volume(q)
    if 0 < want < 2:
        assert volume(q, checked=False).value == want, q
    else:
        with pytest.raises(ValueError):
            volume(q, checked=False)
    return zero


@given(wide_quadruples)
def test_the_key_test_and_the_integer_volume_agree_with_the_element_and_fractions(q):
    _check_residual_and_volume(q)


def test_the_key_test_and_the_integer_volume_on_solutions_up_to_order_2520():
    """The sporadic rows and family members at orders up to 2520, every
    one a solution, and each with its last angle nudged within its
    order, none of them."""
    quads = [PythagoreanQuadruple.from_fractions(*(row[k] for k in "pqrs"))
             for row in load_sporadic_fixture()]
    rng = random.Random(31)
    for fam in builtin_families():
        while len(quads) < 59 + 3 * fam.family_id:
            m = rng.choice((12, 35, 90, 126, 210, 315, 630, 1260))
            tau = Fraction(rng.randrange(1, m), m)
            mu = Fraction(rng.randrange(1, m), m) if fam.two_param else Fraction(0)
            if fam.interior_parameters(tau, mu):
                quads.append(instantiate(fam, tau, mu).quadruple)
    assert max(angle_exponents(q.angles)[0] for q in quads) == 2520
    assert all(_check_residual_and_volume(q) for q in quads)
    # s moved by pi / D, D the lcm of the denominators: the same order
    steps = [angle(1, math.lcm(*(x.den for x in q.angles))) for q in quads]
    nudged = [PythagoreanQuadruple.of(q.p, q.q, q.r, q.s + d)
              for q, d in zip(quads, steps) if q.s + d < q.r]
    assert len(nudged) > len(quads) // 2
    assert not any(_check_residual_and_volume(q) for q in nudged)


def test_the_key_test_falls_back_to_the_unpacked_sum(request):
    """With 8-bit digits and no headroom (narrow_slots), the residual of
    an order-2520 quadruple fails the packed bound, and is_pythagorean,
    volume and edge_lengths still decide it as the element does."""
    fam = builtin_families()[0]
    rng = random.Random(37)
    while True:
        tau = Fraction(rng.randrange(1, 1260), 1260)
        mu = Fraction(rng.randrange(1, 1260), 1260) if fam.two_param else Fraction(0)
        if fam.interior_parameters(tau, mu):
            solution = instantiate(fam, tau, mu).quadruple
            if angle_exponents(solution.angles)[0] == 2520:
                break
    nudged = PythagoreanQuadruple.of(solution.p, solution.q, solution.r,
                                     solution.s + angle(1, 1260))
    request.getfixturevalue("narrow_slots")
    order, terms = geometry._residual_terms(solution)
    with pytest.raises(ArithmeticError):
        cyclotomic.cosine_key(order, terms)
    assert is_pythagorean(solution) and quadruple_residual(solution).is_zero()
    assert not is_pythagorean(nudged) and not quadruple_residual(nudged).is_zero()
    assert volume(solution).value == _fraction_volume(solution)
    assert edge_lengths(solution).lp == solution.p


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
    runs: with is_real refused the default grid still gives 208."""
    def refuse(self):
        raise AssertionError("realness check")

    monkeypatch.setattr(CyclotomicNumber, "is_real", refuse)
    certs = [realizability.__wrapped__(q) for q in sporadic_report.raw_solutions]
    assert sum(c.realizable for c in certs) == 208


def test_stacked_rows_are_real_elements(sporadic_report):
    """The exact numerators of the four Gram sums are real elements."""
    for q in sporadic_report.raw_solutions:
        order, sums = geometry._gram_sums(q)
        assert len(sums) == 4
        for terms in sums:
            num = cyclotomic.cosine_numerator(order, terms)
            assert len(num) == cyclotomic.totient(order)
            assert CyclotomicNumber(order, num, 2).is_real(), q


def test_realizability_on_python_ints_matches_the_oracle(sporadic_report, request):
    """With 8-bit digits and no headroom (narrow_slots), the order-420
    Gram sums fail the packed bound and are summed in Python ints, and
    the signs do not change."""
    cases = _oracle_cases(sporadic_report)[::4]
    expected = [_element_signs(q) for q in cases]
    request.getfixturevalue("narrow_slots")
    order, sums = next(g for g in map(geometry._gram_sums, cases) if g[0] == 420)
    assert cyclotomic._order_data(order).width == 8
    assert cyclotomic._order_data(order).packed(cyclotomic._cosine_powers(sums[2])) is None
    assert [realizability.__wrapped__(q).signs for q in cases] == expected


def _power_basis_filter(order: int, num: list[int]) -> Optional[int]:
    """Test oracle: the float64 filter that realizability ran before its
    sums were filtered from their cosine terms.  It takes the exact
    numerator in the power basis: 0 for a zero row, None when an entry
    reaches 2^53 or |num . c| <= (E sum|num_j| + gamma_(phi+1)
    |num| . |c|)(1 + 16u) over the first phi entries of the order's
    cosine table, and the sign of num . c otherwise."""
    if not any(num):
        return 0
    if max(map(abs, num)) >= 1 << 53:
        return None
    od = cyclotomic._order_data(order)
    u = 2.0 ** -53
    n = od.phi + 1
    gamma = n * u / (1 - n * u)
    dot = abs_dot = 0.0
    for k, c in zip(num, od.cos[:od.phi]):
        dot += k * c
        abs_dot += abs(k) * abs(c)
    bound = (od.cos_err * sum(map(abs, num)) + gamma * abs_dot) * (1 + 16 * u)
    if abs(dot) <= bound:
        return None
    return 1 if dot > 0 else -1


def test_angle_space_filter_matches_the_power_basis_filter(sporadic_report):
    """On the 790 raw solutions, the 600 arbitrary quadruples and the six
    zero-sign cases, the filter over the cosine terms of the four Gram
    sums (P, Q, a - b, a + b) decides exactly the sums that the
    power-basis filter decides, with the same signs, and declines exactly
    the zero sums."""
    outcomes: dict[tuple, int] = {}
    for q in _oracle_cases(sporadic_report):
        order, (p_sum, q_sum, a_sum, b_sum) = geometry._gram_sums(q)
        minus_b = tuple((-k, e) for k, e in b_sum)
        sums = (p_sum, q_sum, a_sum + minus_b, a_sum + b_sum)
        for terms, s in zip(sums, cyclotomic.filter_signs(order, sums)):
            old = _power_basis_filter(order, cyclotomic.cosine_numerator(order, terms))
            assert s == (None if old == 0 else old), (q, terms)
            outcomes[old, s] = outcomes.get((old, s), 0) + 1
    assert outcomes == {(1, 1): 1769, (-1, -1): 2580, (0, None): 1235}


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


# -- the Gram symmetry group ---------------------------------------------------

# Each map on (p, q, r, s) * pi/den, with the sign it puts on the residual
# and the permutation it applies to the certificate signs
# (S- - P, S- + P, S+ - Q, S+ + Q), as gram_orbit's docstring derives.
_GRAM_MAPS = {
    "A": (lambda p, q, r, s, d: (d - p, d - q, r, s), 1, (1, 0, 3, 2)),
    "B": (lambda p, q, r, s, d: (d - p, q, d - s, d - r), -1, (3, 2, 1, 0)),
    "p<->q": (lambda p, q, r, s, d: (q, p, r, s), 1, (0, 1, 3, 2)),
    "r<->s": (lambda p, q, r, s, d: (p, q, s, r), 1, (0, 1, 2, 3)),
}


def _numerators(q: PythagoreanQuadruple, den: Optional[int] = None):
    """(numerators, den) of q's angles over den, by default their lcm."""
    den = den or math.lcm(*(x.den for x in q.angles))
    return tuple(x.num * (den // x.den) for x in q.angles), den


def _over(nums, den: int) -> PythagoreanQuadruple:
    return PythagoreanQuadruple.of(*(RationalAngle(n, den) for n in nums))


def _check_gram_maps(q: PythagoreanQuadruple) -> None:
    """Each map sends the residual to +-residual, and permutes the
    certificate signs as derived; canonicalizing an image with p < q
    applies p <-> q once more."""
    nums, den = _numerators(q)
    residual, cert = quadruple_residual(q), realizability(q)
    swap_pq = _GRAM_MAPS["p<->q"][2]
    for name, (image_of, residual_sign, perm) in _GRAM_MAPS.items():
        image = image_of(*nums, den)
        moved = _over(image, den)
        expected = residual if residual_sign > 0 else -residual
        assert quadruple_residual(moved) == expected, (name, q)
        assert is_pythagorean(moved) is is_pythagorean(q)
        signs = tuple(cert.signs[i] for i in perm)
        if image[0] < image[1]:
            signs = tuple(signs[i] for i in swap_pq)
        assert realizability(moved).signs == signs, (name, q)
        assert realizability(moved).realizable is cert.realizable


def _orbit_oracle(nums, den: int) -> frozenset:
    """The closure of nums under the four maps, canonicalized."""
    seen, todo = set(), [nums]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo += [image_of(*x, den) for image_of, _, _ in _GRAM_MAPS.values()]
    return frozenset(_numerators(_over(x, den), den)[0] for x in seen)


@given(wide_quadruples)
def test_gram_maps_act_as_derived(q):
    """At orders up to 2520, on solutions and on arbitrary quadruples;
    the orbit over a multiple of the denominator is the same one."""
    _check_gram_maps(q)
    nums, den = _numerators(q)
    orbit = gram_orbit(nums, den)
    assert orbit == _orbit_oracle(nums, den)
    doubled = gram_orbit(_numerators(q, 2 * den)[0], 2 * den)
    assert doubled == {tuple(2 * n for n in x) for x in orbit}


def test_gram_maps_on_the_paper_solutions(sporadic_report):
    for q in sporadic_report.raw_solutions:
        assert is_pythagorean(q)
        _check_gram_maps(q)


def test_gram_orbits_of_the_paper_solutions(sporadic_report):
    """790 solutions in 262 orbits of 1 to 4, each inside the raw set;
    the 208 realizable ones fill 89 of them."""
    raw = {_numerators(q, 420)[0] for q in sporadic_report.raw_solutions}
    realizable = {_numerators(q, 420)[0] for q in sporadic_report.realizable}
    orbits = {gram_orbit(x, 420) for x in raw}
    assert len(raw) == 790 and len(orbits) == 262
    assert {len(o) for o in orbits} == {1, 2, 3, 4}
    assert all(o <= raw for o in orbits)
    assert all(x in gram_orbit(x, 420) for x in raw)
    met = {o for o in orbits if o & realizable}
    assert len(realizable) == 208 and len(met) == 89
    assert all(o <= realizable for o in met)


def test_vertex_links_shape():
    links = vertex_links(ROW_1)
    assert len(links) == 4
    p, q, r, s = ROW_1.angles
    assert links[0] == (p, q, s)
    assert links[2] == (p, q, r)
