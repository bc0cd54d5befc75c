from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from sphertet import cyclotomic, trigpoly
from sphertet.angles import RationalAngle
from sphertet.cyclotomic import (
    _iv_to_signed_interval,
    cos_as_cyclotomic,
    iv_precision,
    sign,
)
from sphertet.families import (
    SEGMENT_END,
    builtin_families,
    gram_sums,
    residual_poly,
)
from sphertet.trigpoly import (
    AngleForm,
    PositivityError,
    TrigPoly,
    _sign_at,
    det,
    positive_on_open_interval,
)

params = st.fractions(min_value=Fraction(0), max_value=Fraction(1),
                      max_denominator=18)

forms = st.builds(
    AngleForm,
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=6),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
    st.just(Fraction(0)),
)


def f(pi_part, t_part=0, u_part=0):
    return AngleForm(Fraction(pi_part), Fraction(t_part), Fraction(u_part))


def test_angle_form_evaluation():
    form = f(Fraction(1, 2), Fraction(-1), Fraction(2))
    assert form.value_in_pi_units(Fraction(1, 6), Fraction(1, 12)) == Fraction(1, 2)


def test_angle_form_arithmetic():
    a, b = f(1, 2), f(Fraction(1, 2), -1)
    assert (a + b).pi_part == Fraction(3, 2)
    assert (a - b).t_part == 3
    assert a.scale(2).t_part == 4


@given(forms, params, params)
def test_cos_eval_matches_exact_cosine(form, tau, mu):
    poly = TrigPoly.cos_of(form)
    value = poly.eval_exact(tau, mu)
    direct = TrigPoly.cos_of(
        f(form.value_in_pi_units(tau, mu))
    ).eval_exact(Fraction(0), Fraction(0))
    assert (value - direct).is_zero()


@given(forms, forms, params)
@settings(max_examples=60)
def test_product_agrees_pointwise(x, y, tau):
    mu = Fraction(0)
    prod = TrigPoly.cos_of(x) * TrigPoly.cos_of(y)
    lhs = prod.eval_exact(tau, mu)
    rhs = TrigPoly.cos_of(x).eval_exact(tau, mu) * TrigPoly.cos_of(y).eval_exact(tau, mu)
    assert (lhs - rhs).is_zero()


def test_pythagorean_polynomial_identity():
    x = f(Fraction(1, 3), 2)
    c, s = TrigPoly.cos_of(x), TrigPoly.sin_of(x)
    assert (c * c + s * s - TrigPoly.constant(1)).is_zero()


def test_angle_sum_identity():
    a, b = f(Fraction(1, 5), 1), f(Fraction(1, 7), -2)
    lhs = TrigPoly.cos_of(a + b)
    rhs = (TrigPoly.cos_of(a) * TrigPoly.cos_of(b)
           - TrigPoly.sin_of(a) * TrigPoly.sin_of(b))
    assert (lhs - rhs).is_zero()


def test_nonzero_is_detected():
    assert not TrigPoly.cos_of(f(0, 1)).is_zero()
    assert not (TrigPoly.constant(Fraction(1, 7))).is_zero()


def test_constant_plus_irrational_frequency_mix():
    # cos(t + pi/3) + cos(t - pi/3) - cos(t) vanishes identically
    poly = (TrigPoly.cos_of(f(Fraction(1, 3), 1))
            + TrigPoly.cos_of(f(Fraction(-1, 3), 1))
            - TrigPoly.cos_of(f(0, 1)))
    assert poly.is_zero()


@given(forms, params)
def test_derivative_matches_difference_quotient_sign(form, tau):
    """d/dt cos(B t + A) = -B sin(B t + A), checked exactly."""
    poly = TrigPoly.cos_of(form)
    deriv = poly.derivative("t")
    expected = TrigPoly.sin_of(form).scale(-form.t_part)
    assert (deriv - expected).is_zero()


def test_interval_evaluation_encloses_exact_values():
    poly = TrigPoly.cos_of(f(0, 1)) * TrigPoly.cos_of(f(Fraction(1, 3), 1))
    enc = poly.eval_interval((Fraction(1, 7), Fraction(1, 7)),
                             (Fraction(0), Fraction(0)), precision=96)
    exact = poly.eval_exact(Fraction(1, 7), Fraction(0))
    val = exact.float_interval(96)
    # both enclose the same true value, so they must overlap
    assert max(enc.lo, val.lo) <= min(enc.hi, val.hi)
    assert enc.width < Fraction(1, 10**20)


def test_determinant_of_trig_matrix():
    c = TrigPoly.cos_of(f(0, 1))
    one = TrigPoly.constant(1)
    m = [[one, c], [c, one]]
    d = det(m)
    # 1 - cos^2 t = sin^2 t
    s = TrigPoly.sin_of(f(0, 1))
    assert (d - s * s).is_zero()


def test_positivity_on_open_interval():
    s = TrigPoly.sin_of(f(0, 1))  # sin(pi t) > 0 on (0, 1)
    witness = positive_on_open_interval(s, Fraction(0), Fraction(1))
    assert witness.left.method == "taylor-strip"
    assert witness.right.method == "taylor-strip"

    squared = s * s  # vanishes to second order at both ends
    witness = positive_on_open_interval(squared, Fraction(0), Fraction(1))
    assert witness.left.vanishing_order == 2


def test_positivity_failure_raises():
    c = TrigPoly.cos_of(f(0, 1))  # changes sign at t = 1/2
    with pytest.raises(PositivityError):
        positive_on_open_interval(c, Fraction(0), Fraction(1))


def test_positive_value_endpoints():
    poly = TrigPoly.cos_of(f(0, 1)) + TrigPoly.constant(2)
    witness = positive_on_open_interval(poly, Fraction(0), Fraction(1))
    assert witness.left.method == "positive-value"


def test_positivity_memo_keys_on_the_polynomial_and_interval(cold_proofs):
    poly = TrigPoly.sin_of(f(0, 1))
    wide = positive_on_open_interval(poly, 0, Fraction(1, 6))
    narrow = positive_on_open_interval(poly, 0, Fraction(1, 12))
    inner = positive_on_open_interval(poly, Fraction(1, 12), Fraction(1, 6))
    assert len({id(wide), id(narrow), id(inner)}) == 3
    assert narrow.variable_range == (0, Fraction(1, 12))
    assert inner.variable_range == (Fraction(1, 12), Fraction(1, 6))
    # equal terms and an int end share the entry of Fraction(0)
    again = TrigPoly.cos_of(f(Fraction(-1, 2), 1))
    assert positive_on_open_interval(again, Fraction(0), Fraction(1, 6)) is wide
    assert positive_on_open_interval(poly, 0, Fraction(1, 6), precision=128) is not wide
    info = trigpoly._proved_positive.cache_info()
    assert (info.misses, info.hits) == (4, 1)


def test_a_failed_positivity_proof_is_not_stored(cold_proofs):
    c = TrigPoly.cos_of(f(0, 1))
    for _ in range(2):
        with pytest.raises(PositivityError):
            positive_on_open_interval(c, Fraction(0), Fraction(1))
    assert trigpoly._proved_positive.cache_info().currsize == 0


def test_both_ends_share_one_derivative_chain(monkeypatch, cold_proofs):
    """sin^2 vanishes to second order at both ends: two derivatives in
    all, not two per end."""
    calls = []
    real = TrigPoly.derivative

    def counted(self, variable="t"):
        calls.append(variable)
        return real(self, variable)

    monkeypatch.setattr(TrigPoly, "derivative", counted)
    s = TrigPoly.sin_of(f(0, 1))
    witness = positive_on_open_interval(s * s, Fraction(0), Fraction(1))
    assert (witness.left.vanishing_order, witness.right.vanishing_order) == (2, 2)
    assert calls == ["t", "t"]


# -- input checks --------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: AngleForm(0.1, 1),
    lambda: AngleForm(Fraction(1, 3), 0.5),
    lambda: AngleForm(0, 1, 2.0),
    lambda: AngleForm(0, 1).scale(0.5),
    lambda: TrigPoly([(AngleForm(0, 1), 0.5)]),
    lambda: TrigPoly.cos_of(AngleForm(0, 1), 0.25),
    lambda: TrigPoly.sin_of(AngleForm(0, 1), 1.5),
    lambda: TrigPoly.constant(0.25),
    lambda: TrigPoly.cos_of(AngleForm(0, 1)).scale(0.5),
], ids=["pi_part", "t_part", "u_part", "form-scale", "terms", "cos_of",
        "sin_of", "constant", "scale"])
def test_floats_are_rejected(build):
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        build()


@pytest.mark.parametrize("t_range, u_range", [
    ((Fraction(1, 6), Fraction(0)), (0, 0)),
    ((Fraction(0), Fraction(1, 6)), (Fraction(1, 3), Fraction(1, 4))),
])
def test_eval_interval_rejects_a_reversed_range(t_range, u_range):
    poly = TrigPoly.cos_of(f(Fraction(1, 3), 1, 1))
    with pytest.raises(ValueError, match="reversed parameter range"):
        poly.eval_interval(t_range, u_range)


# -- enclosures against the mpmath.iv evaluation ------------------------


def _iv_eval_interval(poly, t_range, u_range=(0, 0), precision=64):
    """Test oracle: the enclosure built term by term in mpmath's iv
    context, every rational part, bound and coefficient converted to an
    interval on its own."""
    def frac_iv(lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
        return iv.mpf([lo_iv.a, hi_iv.b])

    with iv_precision(precision):
        t_iv = frac_iv(*t_range) * iv.pi
        u_iv = frac_iv(*u_range) * iv.pi
        total = iv.mpf(0)
        for form, c in poly.terms:
            x = iv.pi * frac_iv(form.pi_part, form.pi_part)
            if form.t_part:
                x = x + t_iv * frac_iv(form.t_part, form.t_part)
            if form.u_part:
                x = x + u_iv * frac_iv(form.u_part, form.u_part)
            total = total + iv.cos(x) * frac_iv(c, c)
        return _iv_to_signed_interval(total, precision)


@st.composite
def _dyadic_subintervals(draw):
    """[i, i + 1] * SEGMENT_END / 2^k; up to k = 5 the ends and the
    midpoint keep every gram_sums angle within MAX_ORDER."""
    k = draw(st.integers(0, 5))
    i = draw(st.integers(0, 2 ** k - 1))
    step = SEGMENT_END / 2 ** k
    return i * step, (i + 1) * step


_GRAM_POLYS = [s for fam in builtin_families() for s in gram_sums(fam)]


@given(st.sampled_from(_GRAM_POLYS), _dyadic_subintervals(), _dyadic_subintervals())
@settings(max_examples=150)
def test_eval_interval_encloses_the_values_inside_the_iv_enclosure(poly, t_range, u_range):
    """Over a box, and over each of its corners and its centre as a
    degenerate box, the enclosure holds the 256-bit enclosure of the
    exact value and lies within the iv enclosure widened by 2^-80.  Two-
    parameter sums have terms with negative u parts."""
    (t1, t2), (u1, u2) = t_range, u_range
    points = [(t, u) for t in (t1, t2) for u in (u1, u2)]
    points.append(((t1 + t2) / 2, (u1 + u2) / 2))
    slack = Fraction(1, 2 ** 80)
    for box in [(t_range, u_range)] + [((t, t), (u, u)) for t, u in points]:
        enc = poly.eval_interval(*box, precision=96)
        old = _iv_eval_interval(poly, *box, precision=96)
        assert old.lo - slack <= enc.lo and enc.hi <= old.hi + slack, box
        (b1, b2), (c1, c2) = box
        for t, u in points:
            if b1 <= t <= b2 and c1 <= u <= c2:
                exact = poly.eval_exact(t, u).float_interval(256)
                assert enc.lo <= exact.lo and exact.hi <= enc.hi, (box, t, u)


# -- exact values, signs and zero tests against the per-term sums --------


def _per_term_value(poly, tau):
    """Test oracle: the value as a sum of one cos_as_cyclotomic element
    per term, each in its own field, added with embeddings."""
    total = cyclotomic.CyclotomicNumber.zero(1)
    for form, c in poly.terms:
        angle = RationalAngle.from_fraction(form.value_in_pi_units(tau))
        total = total + cos_as_cyclotomic(angle) * c
    return total


def test_endpoint_signs_match_the_per_term_sums():
    """At both ends of the segment: every gram_sums polynomial of the 42
    families and its first 8 t-derivatives."""
    checked = 0
    for poly in _GRAM_POLYS:
        for _ in range(9):
            for x in (Fraction(0), SEGMENT_END):
                oracle = _per_term_value(poly, x)
                assert poly.eval_exact(x) == oracle
                assert _sign_at(poly, x) == sign(oracle)
                checked += 1
            poly = poly.derivative("t")
    assert checked == 42 * 4 * 9 * 2


def test_rational_cosines_leave_the_order_to_the_other_terms():
    """cos(pi/2) = 0 would need Q(zeta_4); with cos(pi/945) in
    Q(zeta_1890) the two together would need order 3780 > MAX_ORDER."""
    poly = (TrigPoly.cos_of(f(Fraction(1, 945), 1))
            + TrigPoly.cos_of(f(Fraction(1, 2), 1), 3)
            + TrigPoly.cos_of(f(Fraction(1, 3), 1), Fraction(2, 7)))
    value = poly.eval_exact(0)
    assert value.order == 1890
    assert value == _per_term_value(poly, 0)
    assert _sign_at(poly, Fraction(0)) == 1


def test_endpoint_signs_fall_back_to_sign_when_the_filter_declines(monkeypatch):
    def decline(order, nums):
        return [None] * len(nums)

    polys = _GRAM_POLYS[::5]
    expected = [[_sign_at(p, x) for x in (Fraction(0), SEGMENT_END)] for p in polys]
    monkeypatch.setattr(trigpoly, "filter_signs", decline)
    monkeypatch.setattr(cyclotomic, "filter_signs", decline)
    assert [[_sign_at(p, x) for x in (Fraction(0), SEGMENT_END)] for p in polys] == expected


def test_residual_polys_are_zero_and_every_perturbation_is_not():
    """Scaling one coefficient by 1 + 1/997 or moving one phase by pi/420
    breaks the identity; only a term that is itself identically zero
    (c cos(pi/2)) takes any coefficient."""
    perturbed = 0
    for fam in builtin_families():
        poly = residual_poly(fam)
        assert poly.terms and poly.is_zero()
        for i, (form, c) in enumerate(poly.terms):
            moved = AngleForm(form.pi_part + Fraction(1, 420), form.t_part, form.u_part)
            for term in ((form, c * (1 + Fraction(1, 997))), (moved, c)):
                changed = TrigPoly(poly.terms[:i] + (term,) + poly.terms[i + 1:])
                vanishing_term = term[0] is form and TrigPoly.cos_of(form).is_zero()
                assert changed.is_zero() == vanishing_term, (fam.family_id, term)
                perturbed += 1
    assert perturbed == 328
