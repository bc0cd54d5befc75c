from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath.libmp.libmpi
from mpmath import iv
from mpmath.libmp import (
    from_rational,
    fzero,
    mpi_add,
    mpi_cos,
    mpi_mul,
    round_ceiling,
    round_floor,
    to_rational,
)
from mpmath.libmp.libmpi import mpi_pi

from sphertet import cyclotomic, trigpoly
from sphertet.angles import RationalAngle
from iv_oracle import _iv_to_signed_interval, iv_precision
from sphertet.cyclotomic import (
    SignedInterval,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_sum,
    sign,
)
from sphertet.families import (
    SEGMENT_END,
    builtin_families,
    gram_sums,
    residual_poly,
)
from sphertet.trigpoly import (
    PI_UPPER,
    AngleForm,
    PositivityError,
    TrigPoly,
    _bound,
    _sign_at,
    det,
    positive_on_open_interval,
    recheck_positivity,
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


def _sin(form):
    """sin X = cos(X - pi/2)."""
    return TrigPoly.cos_of(form - AngleForm(Fraction(1, 2)))


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
    c, s = TrigPoly.cos_of(x), _sin(x)
    assert (c * c + s * s - TrigPoly.constant(1)).is_zero()


def test_angle_sum_identity():
    a, b = f(Fraction(1, 5), 1), f(Fraction(1, 7), -2)
    lhs = TrigPoly.cos_of(a + b)
    rhs = (TrigPoly.cos_of(a) * TrigPoly.cos_of(b)
           - _sin(a) * _sin(b))
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
    deriv = poly.derivative()
    expected = _sin(form).scale(-form.t_part)
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
    s = _sin(f(0, 1))
    assert (d - s * s).is_zero()


def test_positivity_on_open_interval():
    s = _sin(f(0, 1))  # sin(pi t) > 0 on (0, 1)
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
    poly = _sin(f(0, 1))
    wide = positive_on_open_interval(poly, 0, Fraction(1, 6))
    narrow = positive_on_open_interval(poly, 0, Fraction(1, 12))
    inner = positive_on_open_interval(poly, Fraction(1, 12), Fraction(1, 6))
    assert len({id(wide), id(narrow), id(inner)}) == 3
    assert narrow.variable_range == (0, Fraction(1, 12))
    assert inner.variable_range == (Fraction(1, 12), Fraction(1, 6))
    # equal terms and an int end share the entry of Fraction(0)
    again = TrigPoly.cos_of(f(Fraction(-1, 2), 1))
    assert positive_on_open_interval(again, Fraction(0), Fraction(1, 6)) is wide
    # unreduced ends are reduced before they key the memo
    assert positive_on_open_interval(poly, Fraction(0, 5), Fraction(2, 12)) is wide
    info = trigpoly._proved_positive.cache_info()
    assert (info.misses, info.hits) == (3, 2)


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

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TrigPoly, "derivative", counted)
    s = _sin(f(0, 1))
    witness = positive_on_open_interval(s * s, Fraction(0), Fraction(1))
    assert (witness.left.vanishing_order, witness.right.vanishing_order) == (2, 2)
    assert len(calls) == 2


def test_a_non_positive_sample_raises(cold_proofs):
    """cos^2 is 1 at both ends of (0, 1) and 0 at the centre of the first
    piece of the middle."""
    c = TrigPoly.cos_of(f(0, 1))
    with pytest.raises(PositivityError, match=r"non-positive value at t = 1/2\*pi"):
        positive_on_open_interval(c * c, 0, 1)
    assert trigpoly._proved_positive.cache_info().currsize == 0


def test_a_cover_that_never_closes_raises(cold_proofs):
    """cos^2 + 10^-12 is positive, but no piece holding t = pi/2 closes
    above the depth cap."""
    c = TrigPoly.cos_of(f(0, 1))
    poly = c * c + TrigPoly.constant(Fraction(1, 10 ** 12))
    with pytest.raises(PositivityError, match="cover did not close"):
        positive_on_open_interval(poly, 0, 1)


def test_positivity_witnesses_recheck(cold_proofs):
    s = _sin(f(0, 1))
    for poly in (s, s * s, TrigPoly.cos_of(f(0, 1)) + TrigPoly.constant(2)):
        witness = positive_on_open_interval(poly, 0, 1)
        assert witness.pi_upper == PI_UPPER
        assert witness.bisection_segments == len(witness.samples) > 0
        assert recheck_positivity(poly, witness)
        # the witness of another polynomial proves nothing about this one
        assert not recheck_positivity(poly - TrigPoly.constant(3), witness)


@pytest.mark.parametrize("width, holds", [(Fraction(3, 5), True), (Fraction(13, 20), False)])
def test_recheck_bounds_a_strip_by_taylor(cold_proofs, width, holds):
    """sin(pi t) on (0, 1): a strip of width w at 0 holds exactly while
    1 - PI_UPPER*w/2 > 0, i.e. w < 0.6366; one sample tiles the rest."""
    poly = _sin(f(0, 1))
    witness = positive_on_open_interval(poly, 0, 1)
    piece = ((width + Fraction(3, 4)) / 2, (Fraction(3, 4) - width) / 2)
    wide = replace(witness, left=replace(witness.left, strip_width=width), samples=(piece,))
    assert recheck_positivity(poly, wide) is holds


def test_pi_upper_exceeds_pi():
    """Against mpmath's 256-bit enclosure of pi, a test oracle only."""
    with iv_precision(256):
        pi = _iv_to_signed_interval(iv.pi, 256)
    assert pi.hi < PI_UPPER < pi.lo + Fraction(27, 10 ** 8)


@given(st.lists(st.tuples(forms, st.fractions(min_value=-3, max_value=3, max_denominator=7)),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_derivative_bounds_dominate_on_a_dense_grid(terms):
    """M_n = sum |k_i| |B_i|^n bounds |d^n g/dt^n| at 2001 points of
    t in [-3, 3]*pi, for n = 0..4."""
    poly = TrigPoly(terms)
    grid = [-3 + 6 * i / 2000 for i in range(2001)]
    deriv = poly
    for n in range(5):
        bound = _bound(poly, n) / (poly.coeff_den * poly.angle_den ** n)
        d, k = deriv.angle_den, deriv.coeff_den
        top = max((abs(sum(c * math.cos(math.pi * (a + b * x) / d)
                           for a, b, _, c in deriv.int_terms)) / k for x in grid),
                  default=0.0)
        assert top <= bound * (1 + 1e-12) + 1e-12, (n, top, bound)
        deriv = deriv.derivative()


# -- input checks --------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: AngleForm(0.1, 1),
    lambda: AngleForm(Fraction(1, 3), 0.5),
    lambda: AngleForm(0, 1, 2.0),
    lambda: AngleForm(0, 1).scale(0.5),
    lambda: TrigPoly([(AngleForm(0, 1), 0.5)]),
    lambda: TrigPoly.cos_of(AngleForm(0, 1), 0.25),
    lambda: TrigPoly.constant(0.25),
    lambda: TrigPoly.cos_of(AngleForm(0, 1)).scale(0.5),
], ids=["pi_part", "t_part", "u_part", "form-scale", "terms", "cos_of",
        "constant", "scale"])
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


def test_positivity_rejects_a_polynomial_in_u():
    """cos u + 1/2 is positive on the slice u = 0 only; it is negative
    near u = pi, so a proof in t alone would certify nothing."""
    poly = TrigPoly.cos_of(f(0, 0, 1)) + TrigPoly.constant(Fraction(1, 2))
    with pytest.raises(ValueError, match="depends on u"):
        positive_on_open_interval(poly, 0, Fraction(1, 6))


def test_derivative_rejects_an_unknown_variable():
    """The derivative is in t only, so it takes no variable at all."""
    poly = TrigPoly.cos_of(f(0, 1)) + TrigPoly.cos_of(f(0, 0, 1))
    assert poly.derivative() == _sin(f(0, 1)).scale(-1)
    with pytest.raises(TypeError):
        poly.derivative("u")


@pytest.mark.parametrize("precision", [0, -5, True, 64.0])
def test_precision_must_be_an_int_of_at_least_one_bit(monkeypatch, precision):
    """Refused before mpmath is asked for anything: eval_interval would
    otherwise loop for ever on precision 0 or below."""
    def no_mpmath(*args):
        raise AssertionError("mpmath called")

    for name in ("mpi_cos", "from_rational"):
        monkeypatch.setattr(mpmath.libmp, name, no_mpmath)
    monkeypatch.setattr(mpmath.libmp.libmpi, "mpi_pi", no_mpmath)
    poly = TrigPoly.cos_of(f(0, 1)) + TrigPoly.constant(2)
    with pytest.raises(ValueError, match="precision must be an int >= 1"):
        poly.eval_interval((0, Fraction(1, 6)), precision=precision)


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
            poly = poly.derivative()
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


# -- the integer representation against the Fraction algebra it replaced --
#
# The oracle keeps a polynomial as canonical Fraction terms ((A, B, C), gamma)
# for gamma*cos(A*pi + B*t + C*u), sorted by (B, C, A), one per angle, no
# zero gamma: the code TrigPoly ran before it moved to integers over one
# angle denominator D and one coefficient denominator K.


def _old_canonical(a, b, c):
    if b < 0 or (b == 0 and c < 0) or (b == 0 and c == 0 and a < 0):
        a, b, c = -a, -b, -c
    a %= 2
    if b == 0 and c == 0 and a > 1:
        a = 2 - a
    return a, b, c


def _old_merged(terms):
    merged = {}
    for form, coeff in terms:
        form = _old_canonical(*form)
        merged[form] = merged.get(form, 0) + coeff
    return tuple(sorted(((form, coeff) for form, coeff in merged.items() if coeff),
                        key=lambda term: (term[0][1], term[0][2], term[0][0])))


def _old_product(x, y):
    out = []
    for (a, b, c), g in x:
        for (d, e, f_), h in y:
            out += [((a + d, b + e, c + f_), g * h / 2),
                    ((a - d, b - e, c - f_), g * h / 2)]
    return _old_merged(out)


def _old_derivative(x):
    return _old_merged([((form[0] - Fraction(1, 2), form[1], form[2]), -coeff * form[1])
                        for form, coeff in x if form[1]])


def _old_integer_coefficients(coeffs):
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _old_is_zero(x):
    for (b, c), group in itertools.groupby(x, key=lambda term: term[0][1:]):
        group = list(group)
        order, exponents = angle_exponents(
            [RationalAngle.from_fraction(form[0]) for form, _ in group])
        coeffs, _ = _old_integer_coefficients([coeff for _, coeff in group])
        terms = list(zip(coeffs, exponents))
        if b == 0 and c == 0:
            num = cyclotomic.cosine_numerator(order, terms)
        else:
            num = cyclotomic._order_data(order).powers(terms)
        if any(num):
            return False
    return True


def _old_exact_sum(x, tau, mu):
    angles, coeffs = [], []
    for (a, b, c), coeff in x:
        angle = RationalAngle.from_fraction(a + b * tau + c * mu)
        if angle.den <= 3:
            coeff *= cos_as_cyclotomic(angle).rational_value
            angle = RationalAngle(0)
        angles.append(angle)
        coeffs.append(Fraction(coeff))
    order, exponents = angle_exponents(angles)
    coeffs, den = _old_integer_coefficients(coeffs)
    return order, list(zip(coeffs, exponents)), den


def _old_eval_interval(x, t_range, u_range, precision):
    def outward(lo, hi):
        return (from_rational(lo.numerator, lo.denominator, precision, round_floor),
                from_rational(hi.numerator, hi.denominator, precision, round_ceiling))

    (t1, t2), (u1, u2) = ((Fraction(lo), Fraction(hi)) for lo, hi in (t_range, u_range))
    pi = mpi_pi(precision)
    total = (fzero, fzero)
    for (a, b, c), coeff in x:
        lo = hi = a
        for k, x1, x2 in ((b, t1, t2), (c, u1, u2)):
            if k:
                e1, e2 = k * x1, k * x2
                lo, hi = (lo + e1, hi + e2) if k > 0 else (lo + e2, hi + e1)
        angle = mpi_mul(outward(lo, hi), pi, precision)
        term = mpi_mul(mpi_cos(angle, precision), outward(coeff, coeff), precision)
        total = mpi_add(total, term, precision)
    lo, hi = (Fraction(*to_rational(v)) for v in total)
    return SignedInterval(lo, hi, precision)


def _as_fractions(poly):
    return tuple(((form.pi_part, form.t_part, form.u_part), coeff)
                 for form, coeff in poly.terms)


def _outcome(call, *args):
    """The value of call(*args), or the type of the exception it raises
    (an angle order beyond MAX_ORDER, for one)."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


_DIVISORS_2520 = [d for d in range(1, 2521) if 2520 % d == 0]
_small_dens = st.sampled_from([1, 2, 3, 4, 6, 12])
_any_dens = st.sampled_from(_DIVISORS_2520)


def _rationals(bound, dens):
    return st.builds(Fraction, st.integers(-bound, bound), dens)


@st.composite
def _oracle_polys(draw, two_param):
    """Fraction terms ((A, B, C), gamma) with phases over divisors of
    2520, zero and negative coefficients, and, at random, a copy of a
    term under cos(-x + 2k pi) = cos(x) with the opposite coefficient, so
    that sums cancel."""
    dens = draw(st.sampled_from([_small_dens, _any_dens]))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        form = (draw(_rationals(6000, dens)), draw(_rationals(3, _small_dens)),
                draw(_rationals(3, _small_dens)) if two_param else Fraction(0))
        coeff = draw(_rationals(5, _any_dens))
        terms.append((form, coeff))
        if draw(st.booleans()):
            k = draw(st.integers(-2, 2))
            terms.append(((2 * k - form[0], -form[1], -form[2]), -coeff))
    return terms


def _new_poly(terms):
    return TrigPoly([(AngleForm(*form), coeff) for form, coeff in terms])


@given(st.booleans().flatmap(lambda two: st.tuples(_oracle_polys(two),
                                                  _oracle_polys(two))),
       _rationals(6, _small_dens), _rationals(6, _small_dens), _rationals(3, _any_dens))
@settings(max_examples=200)
def test_integer_trigpoly_agrees_with_the_fraction_oracle(pair, tau, mu, k):
    """Terms, zero tests, exact sums and values, and interval ends of
    sums, differences, products, derivatives and scalings."""
    (xs, ys), tau, mu = pair, abs(tau), abs(mu)
    x, y = _new_poly(xs), _new_poly(ys)
    ox, oy = _old_merged(xs), _old_merged(ys)
    # cos(t + pi/3) + cos(t - pi/3) - cos(t): zero, with three terms
    zs = [((Fraction(1, 3), 1, 0), 1), ((Fraction(-1, 3), 1, 0), 1), ((0, 1, 0), -1)]
    zero, oz = _new_poly(zs), _old_merged(zs)
    assert zero.is_zero() and len(zero.terms) == 3
    cases = [
        (x * zero, _old_product(ox, oz)),
        (x, ox), (y, oy),
        (x + y, _old_merged(ox + oy)),
        (x - y, _old_merged(ox + tuple((f_, -c) for f_, c in oy))),
        (x * y, _old_product(ox, oy)),
        (x.derivative(), _old_derivative(ox)),
        (x.scale(k), _old_merged((f_, c * k) for f_, c in ox)),
    ]
    t_range = (tau, tau + Fraction(1, 7))
    u_range = (mu, mu + Fraction(1, 5))
    for new, old in cases:
        assert _as_fractions(new) == old
        assert _outcome(new.is_zero) == _outcome(_old_is_zero, old)
        assert _outcome(new._exact_sum, tau, mu) == _outcome(_old_exact_sum, old, tau, mu)
        expected = _outcome(lambda: cosine_sum(*_old_exact_sum(old, tau, mu)))
        assert repr(_outcome(new.eval_exact, tau, mu)) == repr(expected)
        assert (new.eval_interval(t_range, u_range, 80)
                == _old_eval_interval(old, t_range, u_range, 80))
