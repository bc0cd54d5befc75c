from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from sphertet import cyclotomic
from sphertet.angles import RationalAngle, angle
from iv_oracle import _iv_to_signed_interval, iv_precision
from sphertet.cyclotomic import (
    CyclotomicNumber,
    _OrderData,
    common_order,
    cos_as_cyclotomic,
    cosine_key,
    cosine_sum,
    cyclotomic_polynomial,
    filter_signs,
    sign,
    totient,
)

# denominators dividing 1260 keep every combined order within the
# supported cyclotomic cap no matter how many terms are mixed
small_angles = st.builds(
    RationalAngle,
    st.integers(min_value=-24, max_value=24),
    st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 18, 21, 30)),
)


def cyclotomics(draw_depth=3):
    return st.lists(
        st.tuples(
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                         max_denominator=12),
            small_angles,
        ),
        min_size=1,
        max_size=draw_depth,
    ).map(
        lambda terms: sum(
            (cos_as_cyclotomic(a) * c for c, a in terms),
            CyclotomicNumber.zero(1),
        )
    )


def test_totient_and_cyclotomic_polynomial():
    assert [totient(n) for n in (1, 2, 3, 4, 12, 30)] == [1, 1, 2, 2, 4, 8]
    # Phi_12(x) = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in [*range(1, 201), 420, 1008, 1680, 2520]:
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n), n
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


def _mobius_cyclotomic_polynomial(n):
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), for any n: the binomials
    with mu = +1 multiplied in, then those with mu = -1 divided out."""
    primes = cyclotomic._prime_factors(n)
    times, over = [], []
    for k in range(len(primes) + 1):
        for ps in itertools.combinations(primes, k):
            (over if k % 2 else times).append(n // math.prod(ps))
    poly = [1]
    for d in times:
        poly = [0] * d + poly
        for k in range(len(poly) - d):
            poly[k] -= poly[k + d]
    for d in over:
        q = [0] * (len(poly) - d)
        for k in range(len(q)):
            q[k] = (q[k - d] if k >= d else 0) - poly[k]
        assert poly[len(q):] == ([0] * d + q)[len(q):]
        poly = q
    return tuple(poly)


# the cyclotomic orders of the benchmark's library queries
QUERY_ORDERS = (36, 48, 60, 84, 120, 168, 240, 360, 420, 720, 1008, 1680, 2520)


def test_non_squarefree_orders_stretch_their_kernel():
    # Phi_n(x) = Phi_rad(n)(x^(n/rad n)); only squarefree n run the
    # Moebius product, so check every other n against it directly
    def squarefree(n):
        return all(n % (p * p) for p in cyclotomic._prime_factors(n))

    orders = [n for n in range(1, 1001) if not squarefree(n)]
    assert len(orders) == 392
    for n in [*orders, *QUERY_ORDERS]:
        assert cyclotomic_polynomial(n) == _mobius_cyclotomic_polynomial(n), n


def test_rational_cosines_collapse_to_order_one():
    assert cos_as_cyclotomic(angle(1, 3)).rational_value == Fraction(1, 2)
    assert cos_as_cyclotomic(angle(1, 2)).rational_value == 0
    assert cos_as_cyclotomic(angle(1, 1)).rational_value == -1
    assert cos_as_cyclotomic(angle(0)).rational_value == 1
    assert cos_as_cyclotomic(angle(2, 3)).rational_value == Fraction(-1, 2)


def test_golden_ratio_cosines():
    # cos(pi/5) - cos(2pi/5) = 1/2
    x = cos_as_cyclotomic(angle(1, 5)) - cos_as_cyclotomic(angle(2, 5))
    assert x.rational_value == Fraction(1, 2)


def test_roots_of_unity():
    assert CyclotomicNumber.root_of_unity(2, 1).rational_value == -1
    z = CyclotomicNumber.root_of_unity(10, 2)  # e^(2i pi/5)
    assert (z * z * z * z * z).rational_value == 1


# -- the classical vanishing-sum relations ----------------------------------

_T = Fraction(1, 7)  # a generic rational parameter for the one-parameter item


def _cos(num, den):
    return cos_as_cyclotomic(angle(num, den))


_ZERO_RELATIONS = {
    1: _cos(1, 3) - _cos(1, 3),
    2: (-cos_as_cyclotomic(RationalAngle.from_fraction(_T))
        + cos_as_cyclotomic(RationalAngle.from_fraction(_T + Fraction(1, 3)))
        + cos_as_cyclotomic(RationalAngle.from_fraction(_T - Fraction(1, 3)))),
    3: _cos(1, 5) - _cos(2, 5) - _cos(1, 3),
    4: _cos(1, 7) - _cos(2, 7) + _cos(3, 7) - _cos(1, 3),
    5: _cos(1, 5) - _cos(1, 15) + _cos(4, 15) - _cos(1, 3),
    6: -_cos(2, 5) + _cos(2, 15) - _cos(7, 15) - _cos(1, 3),
}

_HALF_RELATIONS = {
    7: _cos(1, 7) + _cos(3, 7) - _cos(1, 21) + _cos(8, 21),
    8: _cos(1, 7) - _cos(2, 7) + _cos(2, 21) - _cos(5, 21),
    9: -_cos(2, 7) + _cos(3, 7) + _cos(4, 21) + _cos(10, 21),
    10: -_cos(1, 15) + _cos(2, 15) + _cos(4, 15) - _cos(7, 15),
}


@pytest.mark.parametrize("item", sorted(_ZERO_RELATIONS))
def test_vanishing_relations_are_exactly_zero(item):
    assert _ZERO_RELATIONS[item].is_zero()


@pytest.mark.parametrize("item", sorted(_HALF_RELATIONS))
def test_half_relations_are_exactly_one_half(item):
    assert _HALF_RELATIONS[item].rational_value == Fraction(1, 2)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(1),
                    max_denominator=40))
def test_one_parameter_relation_holds_for_every_rational_parameter(t):
    x = (-cos_as_cyclotomic(RationalAngle.from_fraction(t))
         + cos_as_cyclotomic(RationalAngle.from_fraction(t + Fraction(1, 3)))
         + cos_as_cyclotomic(RationalAngle.from_fraction(t - Fraction(1, 3))))
    assert x.is_zero()


# -- field arithmetic laws ---------------------------------------------------


@given(cyclotomics(), cyclotomics())
@settings(max_examples=40)
def test_addition_commutes_and_multiplication_distributes(x, y):
    assert (x + y - (y + x)).is_zero()
    z = cos_as_cyclotomic(angle(1, 5))
    assert ((x + y) * z - (x * z + y * z)).is_zero()


@given(cyclotomics(), cyclotomics())
@settings(max_examples=40)
def test_subtraction_is_adding_the_negative(x, y):
    assert x - y == x + (-y)
    assert (x - y) + y == x and (x + y) - y == x
    assert x - x == CyclotomicNumber.zero(x.order)


def test_same_order_sums_skip_the_common_order(monkeypatch):
    """Two elements of one order, with equal or unequal denominators,
    combine without an embedding and without common_order."""
    x = cosine_sum(420, ((1, 1), (3, 7)))        # denominator 2
    y = cosine_sum(420, ((2, 5),))               # denominator 1
    z = cosine_sum(420, ((1, 4),))               # denominator 2
    expected = [x + y, x - y, x + z, x - z]

    def refuse(*args):
        raise AssertionError("common order")

    monkeypatch.setattr(cyclotomic, "common_order", refuse)
    assert [x + y, x - y, x + z, x - z] == expected
    assert (x - z).den == 2 and (x + y).den == 2
    assert x + z == cosine_sum(420, ((1, 1), (3, 7), (1, 4)))
    assert x - y == cosine_sum(420, ((1, 1), (3, 7), (-2, 5)))


@given(cyclotomics())
@settings(max_examples=40)
def test_real_elements_equal_their_conjugate(x):
    assert (x - x.conjugate()).is_zero()
    assert x.is_real()


@given(small_angles, small_angles)
def test_product_to_sum_identity(a, b):
    lhs = cos_as_cyclotomic(a) * cos_as_cyclotomic(b)
    rhs = (cos_as_cyclotomic(a + b) + cos_as_cyclotomic(a - b)) * Fraction(1, 2)
    assert (lhs - rhs).is_zero()


def test_embed_round_trip():
    x = cos_as_cyclotomic(angle(1, 5))
    assert (x.embed(30) - x).is_zero()
    assert common_order(10, 12) == 60


@given(cyclotomics(), cyclotomics())
@settings(max_examples=40)
def test_representation_is_canonical(x, y):
    for v in (x, y, x * y):
        assert v.den > 0 and math.gcd(v.den, *v.num) == 1
    z = (x + y) - y
    n = common_order(x.order, z.order)
    assert (z.embed(n).num, z.embed(n).den) == (x.embed(n).num, x.embed(n).den)


def test_products_beyond_int64_stay_exact():
    big, other = 10**30 + 1, 10**30 + 3
    c7, c5 = cos_as_cyclotomic(angle(1, 7)), cos_as_cyclotomic(angle(1, 5))
    a = c7 * big
    b = c5 * other + Fraction(1, 7)
    # magnitudes this large pack the product in digits wider than 64
    # bits, and its reduction sums unpacked rows in Python ints
    assert max(map(abs, a.num)) * max(map(abs, b.num)) >= 1 << 62
    product = a * b
    assert product == (c7 * c5) * (big * other) + c7 * Fraction(big, 7)
    enc = product.float_interval(256)
    enc_a, enc_b = a.float_interval(256), b.float_interval(256)
    assert enc_a.lo > 0 and enc_b.lo > 0
    assert enc_a.lo * enc_b.lo <= enc.hi and enc.lo <= enc_a.hi * enc_b.hi
    assert enc.width < enc.lo / 2**200


def _reference_powers(order: int) -> list[list[int]]:
    """x^e mod Phi_N for e < N: multiply by x and replace x^phi using
    Phi_N, in Python ints."""
    poly = cyclotomic_polynomial(order)
    row, out = [1] + [0] * (len(poly) - 2), []
    for _ in range(order):
        out.append(row)
        top, row = row[-1], [0] + row[:-1]
        row = [r - top * c for r, c in zip(row, poly)]
    return out


@pytest.mark.parametrize("order", (1, 2, 12, 105, 420))
def test_reduction_table_rows_are_powers_of_x(order):
    od = _OrderData(order)
    rows = [od.unpack(od.row(e)) for e in range(order)]
    assert rows == _reference_powers(order)
    assert od.row_max >= max(abs(c) for row in rows for c in row)


def test_reduction_table_refuses_entries_past_its_limit(monkeypatch):
    """With only 8-bit digits and no headroom, a table whose entry bound
    reaches 2^7 is refused: order 385 (bound 163, Phi_385 has height 3)
    raises, order 105 (bound 51) is built and exact."""
    monkeypatch.setattr(cyclotomic, "_SLOT_WIDTHS", (8,))
    monkeypatch.setattr(cyclotomic, "_SLOT_TERMS", 1)
    with pytest.raises(ArithmeticError):
        _OrderData(385)
    od = _OrderData(105)
    assert od.width == 8
    assert [od.unpack(od.row(e)) for e in range(105)] == _reference_powers(105)


def test_narrow_digits_never_wrap(request):
    """Results first with the default tables; then with 8-bit digits and
    no headroom (narrow_slots) the order-420 sums below fail the packed
    bound and are summed unpacked in Python ints.  Every result is the
    same, and a cosine key, which must be canonical, raises instead."""
    terms_x, terms_y = ((1, 1), (3, 7), (-5, 100)), ((2, 5), (1, 13))

    def results():
        x, y = cosine_sum(420, terms_x), cosine_sum(420, terms_y)
        return (x, y, x * y, x - y, x.conjugate(), x.is_real(), sign(x - y),
                cos_as_cyclotomic(angle(1, 7)).embed(420),
                CyclotomicNumber.root_of_unity(420, 7))

    expected = results()
    request.getfixturevalue("narrow_slots")
    od = cyclotomic._order_data(420)
    assert od.width == 8
    assert od.packed(cyclotomic._cosine_powers(terms_x)) is None
    assert results() == expected
    with pytest.raises(ArithmeticError):
        cosine_key(420, terms_x)


def _reference_bound(order: int, rows: list[list[int]]) -> int:
    """The entry bound of the step-1 recurrence that built the rows:
    1 + h * sum|c| over the digits c it folded back, the top entry of
    each row but the last, h the height of Phi_N."""
    height = max(map(abs, cyclotomic_polynomial(order)))
    return 1 + height * sum(abs(row[-1]) for row in rows[:-1])


@pytest.mark.parametrize("order, stride", ((36, 6), (384, 64), (720, 24), (1008, 24), (2520, 12)))
def test_kernel_built_tables_equal_the_step_one_table(order, stride):
    """Built from the rows at stride N/rad(N), every row read through
    row(), the entry bound and the digit width equal the step-1
    table's."""
    od = _OrderData(order)
    assert od.stride == stride
    rows = _reference_powers(order)
    assert [od.unpack(od.row(e)) for e in range(order)] == rows
    assert od.row_max == _reference_bound(order, rows)
    limits = [(1 << (w - 1)) // cyclotomic._SLOT_TERMS for w in cyclotomic._SLOT_WIDTHS]
    assert od.width == next(w for w, lim in zip(cyclotomic._SLOT_WIDTHS, limits)
                            if od.row_max < lim)


def test_the_stride_keeps_the_digit_bound(monkeypatch):
    """With only 8-bit digits and no headroom, an order is refused or
    built exactly as its squarefree kernel is: 1925 = 5^2 7 11 like 385,
    and 315 = 3^2 5 7 at 8 bits with the entry bound of 105."""
    monkeypatch.setattr(cyclotomic, "_SLOT_WIDTHS", (8,))
    monkeypatch.setattr(cyclotomic, "_SLOT_TERMS", 1)
    for order in (385, 1925):
        with pytest.raises(ArithmeticError):
            _OrderData(order)
    od = _OrderData(315)
    assert (od.stride, od.width, od.row_max) == (3, 8, _OrderData(105).row_max)
    assert [od.unpack(od.row(e)) for e in range(315)] == _reference_powers(315)


def test_narrow_digits_never_wrap_across_row_gaps(request):
    """As test_narrow_digits_never_wrap, at order 2520, whose table has
    rows only at multiples of 12 until others are read: with 8-bit
    digits and no headroom a one-row sum stays packed and every longer
    sum is summed unpacked, and every result equals the default one."""
    terms_x, terms_y = ((1, 1), (3, 7), (-5, 1000)), ((2, 5), (1, 2519))

    def results():
        x, y = cosine_sum(2520, terms_x), cosine_sum(2520, terms_y)
        return (x, y, x * y, x - y, x.conjugate(), x.is_real(), sign(x - y),
                cos_as_cyclotomic(angle(1, 9)).embed(2520),
                CyclotomicNumber.root_of_unity(360, 7).embed(2520),
                CyclotomicNumber.root_of_unity(2520, 13) * CyclotomicNumber.root_of_unity(2520, 1))

    expected = results()
    request.getfixturevalue("narrow_slots")
    od = cyclotomic._order_data(2520)
    assert od.width == 8
    assert od.packed(((1, 7),)) is not None
    assert od.packed(cyclotomic._cosine_powers(terms_x)) is None
    assert results() == expected


def _made(od: _OrderData) -> list[int]:
    return [row for row in od.rows if row is not None]


def test_a_table_holds_its_kernel_rows_until_others_are_read():
    """Structure, not timing: a table of order 2520 = 12 * 210 holds the
    210 rows at multiples of 12 and no more, a squarefree order all of
    its rows; a 4-term cosine sum makes at most its 8 rows (here all 8
    lie off the multiples of 12); and the 96-bit cosine table that the
    float table rounds is not kept."""
    cyclotomic._cosine_table.cache_clear()
    od = _OrderData(2520)
    assert cyclotomic._cosine_table.cache_info().currsize == 0
    assert len(_made(od)) == 210
    assert len(_made(_OrderData(210))) == 210
    od.powers(cyclotomic._cosine_powers(((1, 1), (2, 5), (-3, 7), (1, 1000))))
    assert len(_made(od)) == 210 + 8


# -- certified numerics ------------------------------------------------------


@given(small_angles)
def test_float_enclosure_contains_the_true_value(a):
    x = cos_as_cyclotomic(a)
    enc = x.float_interval(128)
    assert enc.width < Fraction(1, 10**20)
    assert float(enc.lo) <= math.cos(float(a)) + 1e-9
    assert float(enc.hi) >= math.cos(float(a)) - 1e-9


@given(cyclotomics())
@settings(max_examples=60)
def test_sign_agrees_with_certified_enclosure(x):
    s = sign(x)
    if s == 0:
        assert x.is_zero()
    else:
        enc = x.float_interval(256)
        if enc.sign != 0:
            assert enc.sign == s


@pytest.mark.parametrize("bad", [0, -5, True, 64.0])
def test_float_interval_needs_an_int_precision_of_at_least_one_bit(bad):
    """0 and -5 used to label enclosures with those precisions, True
    counted as 1 and 64.0 raised AttributeError."""
    with pytest.raises(ValueError, match="bits must be an int >= 1"):
        cos_as_cyclotomic(RationalAngle(1, 5)).float_interval(bad)


def test_sign_rejects_a_non_real_element():
    with pytest.raises(ValueError):
        sign(CyclotomicNumber.root_of_unity(6, 1))  # e^(i pi/3)


def _count_float_intervals(monkeypatch) -> list[int]:
    """Record the precision of every float_interval call from now on."""
    bits_seen: list[int] = []
    original = CyclotomicNumber.float_interval

    def counted(self, bits=64):
        bits_seen.append(bits)
        return original(self, bits)

    monkeypatch.setattr(CyclotomicNumber, "float_interval", counted)
    return bits_seen


def test_sign_of_tiny_but_nonzero_difference(monkeypatch):
    # cos(pi/60) against a 16-digit rational approximation: the numerator
    # reaches 10^16 > 2^53, so the float64 filter declines and the first
    # (64-bit) interval enclosure decides
    approx = Fraction(9986295347545738, 10**16)
    x = cos_as_cyclotomic(angle(1, 60)) - approx
    bits_seen = _count_float_intervals(monkeypatch)
    s = sign(x)
    assert bits_seen == [64]
    assert s == x.float_interval(512).sign != 0


def test_sign_refines_past_64_bits_near_zero(monkeypatch):
    # within about 1e-25 of zero: no 64-bit enclosure excludes it
    c = cos_as_cyclotomic(angle(1, 60))
    r = Fraction(round(c.float_interval(256).midpoint * 10**25), 10**25)
    x = c - r
    bits_seen = _count_float_intervals(monkeypatch)
    s = sign(x)
    assert max(bits_seen) > 64
    assert s == x.float_interval(512).sign != 0


def test_float_cosine_table_is_within_its_bound():
    # oracle: 256-bit mpmath enclosures of cos(2 pi e/N), every e < N
    for order in (d for d in range(1, 2521) if 2520 % d == 0):
        od = _OrderData(order)
        table, err = od.cos, Fraction(od.cos_err)
        assert len(table) == order
        assert err < 2.0**-52
        with iv_precision(256):
            encs = [iv.cos(2 * iv.pi * e / order) for e in range(order)]
        for e, (c, enc) in enumerate(zip(table, encs)):
            ivl = _iv_to_signed_interval(enc, 256)
            assert ivl.lo - err <= Fraction(c) <= ivl.hi + err, (order, e)


DIVISORS_2520 = [d for d in range(1, 2521) if 2520 % d == 0]


def _contains(lo, hi, enc) -> bool:
    return lo <= enc.lo and enc.hi <= hi


def test_integer_seeds_enclose_pi_and_the_root_of_unity():
    """The Machin and Taylor enclosures contain mpmath's 256-bit
    enclosures, a test oracle only, and are tight: off by at most 2^16
    units of 2^-bits."""
    with iv_precision(256):
        pi = _iv_to_signed_interval(iv.pi, 256)
        roots = {n: [_iv_to_signed_interval(f(2 * iv.pi / n), 256) for f in (iv.cos, iv.sin)]
                 for n in DIVISORS_2520}
    for bits in (64, 192):
        scale = 1 << bits
        p, e = cyclotomic._pi_fixed(bits)
        assert e < 1 << 16 and _contains(Fraction(p - e, scale), Fraction(p + e, scale), pi)
        for n, encs in roots.items():
            x, y, e = cyclotomic._root_fixed(n, bits)
            assert e < 1 << 16
            for v, enc in zip((x, y), encs):
                assert _contains(Fraction(v - e, scale), Fraction(v + e, scale), enc), (n, bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 60, 2520])
def test_the_root_encloses_every_power_of_the_root_of_unity(n):
    """_root_fixed(N, bits, k) contains mpmath's 256-bit enclosures of
    cos and sin of 2 pi k/N for every k < N, within e < 2^16 units."""
    with iv_precision(256):
        roots = [[_iv_to_signed_interval(f(2 * iv.pi * k / n), 256) for f in (iv.cos, iv.sin)]
                 for k in range(n)]
    for bits in (64, 192):
        scale = 1 << bits
        for k, encs in enumerate(roots):
            x, y, e = cyclotomic._root_fixed(n, bits, k)
            assert e < 1 << 16
            for v, enc in zip((x, y), encs):
                assert _contains(Fraction(v - e, scale), Fraction(v + e, scale), enc), (k, bits)


def test_float_cosine_tables_are_bit_identical_to_the_mpmath_seeded_ones():
    """The float tables of every divisor of 2520 hash as they did when
    the table was seeded from a 128-bit mpmath enclosure, so the filter
    decides exactly as it did then; the error bound is no larger than
    that seed's, 2^-53 + (d + 1) / 2^96 with d = max(1, 4 floor(N/2) - 3)."""
    digest = hashlib.sha256()
    for n in DIVISORS_2520:
        od = _OrderData(n)
        digest.update(struct.pack(f"<{n}d", *od.cos))
        d = max(1, 4 * (n // 2) - 3)
        seeded = Fraction(2.0**-53) + Fraction(d + 1, 1 << 96)
        assert od.cos_err <= math.nextafter(float(seeded), math.inf), n
    assert digest.hexdigest() == (
        "9d886bdae3b39b3c3804df04b822b88ad28d9c3a9999ac431129c52d00d05af4")


@pytest.mark.parametrize("bits", [64, 96, 256])
@pytest.mark.parametrize("n", [1, 3, 15, 315, 2, 6, 30, 630, 48, 1008, 1680])
def test_the_integer_cosine_table_encloses_mpmath(n, bits):
    """Z[e] within d of 2^P cos(2 pi e/N) for every e < N, against
    mpmath's enclosures at 64 more bits, for odd N, N = 2 mod 4 and
    orders that do not divide 2520; d stays below 5N/4 when the half
    turn fills an even table and below 5N/2 otherwise; Z[N - e] = Z[e],
    and for an even N, Z[N/2 - j] = -Z[j] exactly, j != N/4."""
    table, d = cyclotomic._cosine_table.__wrapped__(n, bits)
    assert len(table) == n and table[0] == 1 << bits
    assert 4 * d < 5 * n if n % 2 == 0 else 2 * d < 5 * n
    with iv_precision(bits + 64):
        encs = [_iv_to_signed_interval(iv.cos(2 * iv.pi * e / n), bits + 64) for e in range(n)]
    scale = 1 << bits
    for e, (z, enc) in enumerate(zip(table, encs)):
        assert _contains(Fraction(z - d, scale), Fraction(z + d, scale), enc), (n, e)
        assert table[-e] == z
    if n % 2 == 0:
        # but Z[N/4], the one rounded value near cos(pi/2) = 0, is its own mirror
        assert all(table[n // 2 - j] == -table[j] for j in range(n // 2 + 1) if 4 * j != n)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_float_interval_encloses_mpmath_on_the_criterion_10b_pool(bits):
    """On the 10000 sums of criterion 10b, float_interval(bits) contains
    an enclosure summed from mpmath's interval cosines at 64 more bits,
    a test oracle only, so it overlaps mpmath's and holds the value (a
    rational value exactly), and it is no wider than
    2^-bits * sum|num_j| / den."""
    pool = [angle(n, d) for d in (3, 4, 5, 6, 10, 12, 15, 20, 30, 60)
            for n in range(1, d) if math.gcd(n, d) == 1]
    with iv_precision(bits + 64):
        oracle = {x: _iv_to_signed_interval(iv.cos(iv.pi * x.num / x.den), bits + 64)
                  for x in pool}
    cached = {x: cos_as_cyclotomic(x) for x in pool}
    rng = random.Random(17)
    for _ in range(10_000):
        terms = rng.sample(pool, 3)
        signs = [1] + [1 if rng.random() < 0.5 else -1 for _ in terms[1:]]
        x = sum((s * cached[t] for s, t in zip(signs, terms)), CyclotomicNumber.zero())
        lo = sum(oracle[t].lo if s > 0 else -oracle[t].hi for s, t in zip(signs, terms))
        hi = sum(oracle[t].hi if s > 0 else -oracle[t].lo for s, t in zip(signs, terms))
        enc = x.float_interval(bits)
        assert enc.precision == bits
        r = x.rational_value
        if r is not None:  # exact: cos 0 = 1 carries no table error
            assert enc.lo == enc.hi == r and lo <= r <= hi, terms
        else:
            assert enc.lo <= lo and hi <= enc.hi, terms
        assert enc.width <= Fraction(sum(map(abs, x.num)), x.den << bits), terms


def _near_misses():
    """cos(k pi/d) - r for r the 15-, 16- and 17-place decimal rounding
    of the cosine: tiny values whose floating-point evaluation is
    dominated by rounding error."""
    for d in (60, 84, 105, 210, 420):
        for k in range(1, d):
            if math.gcd(k, d) != 1:
                continue
            c = cos_as_cyclotomic(angle(k, d))
            mid = c.float_interval(256).midpoint
            for places in (15, 16, 17):
                yield c - Fraction(round(mid * 10**places), 10**places)


def test_sign_of_near_misses_agrees_with_certified_enclosure():
    # 466 of these reach the float64 filter (numerators below 2^53);
    # with a zero error bound the filter gets many of them wrong
    checked = filtered = 0
    for x in _near_misses():
        enc = x.float_interval(256)
        assert enc.sign != 0
        assert sign(x) == enc.sign, x
        checked += 1
        filtered += max(map(abs, x.num)) < 1 << 53
    assert (checked, filtered) == (696, 466)


def test_numerators_past_2_to_53_skip_the_filter(monkeypatch):
    big = 10**30 + 1
    x = cos_as_cyclotomic(angle(1, 7)) * big - Fraction(big, 2)
    assert max(map(abs, x.num)) >= 1 << 53
    bits_seen = _count_float_intervals(monkeypatch)
    s = sign(x)
    assert bits_seen and bits_seen[0] == 64
    assert s == x.float_interval(256).sign != 0


def test_cosine_sum_is_one_packed_table_sum():
    """A cosine sum equals the sum of its terms' elements, its key
    unpacks to its numerator over 2, and keys are equal exactly when the
    sums are: cos is even and 2 pi-periodic, and a zero sum has key 0."""
    terms = ((1, 3), (-2, 11), (5, 200))
    x = cosine_sum(420, terms)
    assert x == sum((cosine_sum(420, (t,)) for t in terms), CyclotomicNumber.zero(420))
    key = cosine_key(420, terms)
    assert CyclotomicNumber(420, cyclotomic._order_data(420).unpack(key), 2) == x
    assert cosine_key(420, ((1, -3), (-2, 431), (5, -220))) == key
    assert cosine_key(420, terms + ((1, 5),)) != key
    assert cosine_key(420, ((1, 3), (-1, 417))) == 0


def _power_terms(x: CyclotomicNumber) -> list[tuple[int, int]]:
    """The numerator of a real x as cosine terms:
    x = sum_j num_j cos(2 pi j/N) / den."""
    return [(c, j) for j, c in enumerate(x.num) if c]


def test_filter_signs_on_stacked_rows_agrees_with_sign():
    """One call over many sums: a zero sum and a sum with a coefficient
    past 2^53 are declined, every other sum the filter decides has the
    sign of a 256-bit enclosure of that element, and the filter decides
    a cosine sum from its cosine terms as it does from its power-basis
    numerator."""
    by_order: dict[int, list] = {}
    for x in _near_misses():
        by_order.setdefault(x.order, []).append((x, _power_terms(x)))
    for d in (60, 84, 105, 210, 420):
        for k in range(d):
            terms = ((1, k), (-2, 3 * k + 1))
            by_order[2 * d].append((cosine_sum(2 * d, terms), terms))
    decided = declined = 0
    for order, cases in by_order.items():
        extra = [[], [(1, 0), (-1, order)], [(1 << 60, 0)]]
        signs = filter_signs(order, [_power_terms(x) for x, _ in cases] + extra)
        assert signs[-3:] == [None, None, None]
        assert filter_signs(order, [terms for _, terms in cases]) == signs[:-3]
        for (x, _), s in zip(cases, signs):
            if s is None:
                declined += 1
            else:
                decided += 1
                assert s == x.float_interval(256).sign, x
    # every near miss is declined but six with three nonzero entries of
    # about 10^12 and more: n = 3 terms make their rounding term small
    assert (decided, declined) == (885, 690)


def test_filter_signs_charges_the_table_error(monkeypatch):
    """A sum is decided only when |S~| exceeds E * sum|k_i|: with the
    table error raised to 1e-3 the filter declines some of the sums it
    decides with the proven E, and decides none below that term, from
    cosine terms and from power-basis numerators alike."""
    angle_sums = [((1, k), (-1, k + 1)) for k in range(1, 210)]
    od = cyclotomic._order_data(420)
    for sums in (angle_sums, [_power_terms(cosine_sum(420, t)) for t in angle_sums]):
        assert None not in filter_signs(420, sums)
        with monkeypatch.context() as m:
            m.setattr(od, "cos_err", 1e-3)
            signs = filter_signs(420, sums)
        declined = [s is None for s in signs]
        assert 0 < sum(declined) < len(sums)
        for terms, s in zip(sums, signs):
            if s is not None:
                value = sum(k * od.cos[e % 420] for k, e in terms)
                assert abs(value) > 1e-3 * sum(abs(k) for k, _ in terms)
