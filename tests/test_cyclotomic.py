from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertet import cyclotomic
from sphertet.angles import RationalAngle, angle
from sphertet.cyclotomic import (
    CyclotomicNumber,
    _OrderData,
    common_order,
    cos_as_cyclotomic,
    cyclotomic_polynomial,
    exp_i,
    sign,
    sin_as_cyclotomic,
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


def test_exp_i_roots_of_unity():
    assert exp_i(angle(1)).rational_value == -1
    z = exp_i(angle(2, 5))
    assert (z * z * z * z * z).rational_value == 1


def test_sin_as_shifted_cos():
    assert sin_as_cyclotomic(angle(1, 2)).rational_value == 1
    assert sin_as_cyclotomic(angle(1, 6)).rational_value == Fraction(1, 2)


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
    # magnitudes this large take the Python-int (dtype=object) path
    assert max(map(abs, a.num)) * max(map(abs, b.num)) >= 1 << 62
    product = a * b
    assert product == (c7 * c5) * (big * other) + c7 * Fraction(big, 7)
    enc = product.float_interval(256)
    enc_a, enc_b = a.float_interval(256), b.float_interval(256)
    assert enc_a.lo > 0 and enc_b.lo > 0
    assert enc_a.lo * enc_b.lo <= enc.hi and enc.lo <= enc_a.hi * enc_b.hi
    assert enc.width < enc.lo / 2**200


@pytest.mark.parametrize("order", (1, 2, 12, 105, 420))
def test_reduction_table_rows_are_powers_of_x(order):
    # reference: multiply by x and replace x^phi using Phi_N, in Python ints
    poly = cyclotomic_polynomial(order)
    row = [1] + [0] * (len(poly) - 2)
    for got in _OrderData(order).rows:
        assert got.tolist() == row
        top, row = row[-1], [0] + row[:-1]
        row = [r - top * c for r, c in zip(row, poly)]


def test_reduction_table_refuses_entries_past_its_limit(monkeypatch):
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2
    monkeypatch.setattr(cyclotomic, "_ROW_LIMIT", 2)
    with pytest.raises(ArithmeticError):
        _OrderData(105)


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


def test_sign_rejects_a_non_real_element():
    with pytest.raises(ValueError):
        sign(exp_i(angle(1, 3)))


def test_sign_of_tiny_but_nonzero_difference():
    # comparing cos(pi/60) against a 16-digit rational approximation
    # forces genuine refinement beyond the first enclosure
    approx = Fraction(9986295347545738, 10**16)
    x = cos_as_cyclotomic(angle(1, 60)) - approx
    s = sign(x)
    assert s != 0
    assert s == sign(x)  # deterministic
