"""Exact trigonometric polynomials in up to two real parameters.

A TrigPoly is a finite sum  sum_i  gamma_i * cos(pi*A_i + B_i*t + C_i*u)
with rational gamma_i, A_i, B_i, C_i, kept as canonical terms (see
_canonical_term): sorted, one per angle form, no zero coefficient.  The
class supports ring operations (products rewritten by the product-to-sum
rule), partial derivatives, exact evaluation at rational multiples of pi,
rigorous interval evaluation over boxes, and an exact identically-zero
test.

Exact.  At t = tau*pi, u = mu*pi every angle is a rational multiple of
pi, so the value is one cosine sum in one field Q(zeta_N), N = lcm of
twice the angles' denominators (cyclotomic.angle_exponents; a term whose
cosine is rational counts as a constant): one table product
(cyclotomic.cosine_numerators) gives its numerator row, real by
construction.  A sign comes from the proven float64 filter
(cyclotomic.filter_signs) on that row, and from cyclotomic.sign only
when the filter declines.  The zero test groups terms by frequency pair
(B, C).  Functions cos(B*t + C*u + phase) with canonically distinct
frequencies are linearly independent, so the sum vanishes identically
iff every group does; a group  sum_i gamma_i cos(pi*A_i + theta)  is the
real part of  (sum_i gamma_i e^{i pi A_i}) e^{i theta}  and vanishes for
all theta iff that cyclotomic weight is zero, and the constant group
iff its cosine sum is.  Each group is one table product in one field
Q(zeta_N), and it is zero iff its numerator row is.

Enclosure.  Over a box t in [t1, t2]*pi, u in [u1, u2]*pi the angle of a
term ranges over exactly pi times the rational interval
A + B*[t1, t2] + C*[u1, u2].  eval_interval computes that range in
Fractions, rounds its ends outward to the working precision once, and
multiplies by an enclosure of pi, takes the cosine, scales by the
outward-rounded coefficient and sums, all in mpmath's libmp interval
functions, every one of which rounds outward.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np
from mpmath.libmp import (
    fzero,
    from_rational,
    mpi_add,
    mpi_cos,
    mpi_mul,
    round_ceiling,
    round_floor,
    to_rational,
)
from mpmath.libmp.libmpi import mpi_pi

from .angles import RationalAngle, _rational
from .cyclotomic import (
    CyclotomicNumber,
    SignedInterval,
    _order_data,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_numerators,
    filter_signs,
    sign,
)

Rat = Union[Fraction, int]


def _fraction(value, what: str) -> Fraction:
    """value as a Fraction; a non-rational (e.g. a float) raises TypeError."""
    if type(value) is Fraction:
        return value
    return Fraction(_rational(value, what))


@dataclass(frozen=True)
class AngleForm:
    """A linear angle  pi_part*pi + t_part*t + u_part*u  with rational parts."""

    pi_part: Fraction = Fraction(0)
    t_part: Fraction = Fraction(0)
    u_part: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("pi_part", "t_part", "u_part"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, _fraction(value, f"AngleForm {name}"))

    def __add__(self, other: "AngleForm") -> "AngleForm":
        return AngleForm(
            self.pi_part + other.pi_part,
            self.t_part + other.t_part,
            self.u_part + other.u_part,
        )

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return self + (-other)

    def __neg__(self) -> "AngleForm":
        return AngleForm(-self.pi_part, -self.t_part, -self.u_part)

    def scale(self, k: Rat) -> "AngleForm":
        k = _fraction(k, "AngleForm scale")
        return AngleForm(self.pi_part * k, self.t_part * k, self.u_part * k)

    @property
    def is_constant(self) -> bool:
        return self.t_part == 0 and self.u_part == 0

    def value_in_pi_units(self, tau: Rat, mu: Rat = 0) -> Fraction:
        """The angle divided by pi when t = tau*pi, u = mu*pi."""
        return self.pi_part + self.t_part * Fraction(tau) + self.u_part * Fraction(mu)

    def __str__(self) -> str:
        parts = []
        if self.pi_part:
            parts.append(f"{self.pi_part}*pi")
        if self.t_part:
            parts.append(f"{self.t_part}*t")
        if self.u_part:
            parts.append(f"{self.u_part}*u")
        return " + ".join(parts) if parts else "0"


def _canonical_term(form: AngleForm) -> AngleForm:
    """Fold cos(-x) = cos(x) and the 2*pi period into a unique key."""
    t, u, a = form.t_part, form.u_part, form.pi_part
    if t < 0 or (t == 0 and u < 0) or (t == 0 and u == 0 and a < 0):
        t, u, a = -t, -u, -a
    a %= 2
    if t == 0 and u == 0 and a > 1:
        a = 2 - a
    return AngleForm(a, t, u)


def _term_key(term: tuple[AngleForm, Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    form = term[0]
    return form.t_part, form.u_part, form.pi_part


def _merged(terms: Iterable[tuple[AngleForm, Fraction]]
            ) -> tuple[tuple[AngleForm, Fraction], ...]:
    """Canonical terms with their coefficients summed per form, sorted,
    zeros dropped.  The forms must already be canonical."""
    merged: dict[AngleForm, Fraction] = {}
    for form, coeff in terms:
        merged[form] = merged.get(form, 0) + coeff
    return tuple(sorted(((k, v) for k, v in merged.items() if v), key=_term_key))


def _integer_coefficients(terms: Sequence[tuple[object, Fraction]]
                          ) -> tuple[np.ndarray, int]:
    """(k, D): the coefficients are k_i / D over one common denominator D,
    with k an exact (dtype=object) integer vector."""
    den = math.lcm(*(c.denominator for _, c in terms))
    return np.array([c.numerator * (den // c.denominator) for _, c in terms],
                    dtype=object), den


class TrigPoly:
    """Immutable exact cosine series; see the module docstring."""

    __slots__ = ("terms",)

    terms: tuple[tuple[AngleForm, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[AngleForm, Rat]] = ()) -> None:
        object.__setattr__(self, "terms", _merged(
            (_canonical_term(form), _fraction(coeff, "TrigPoly coefficient"))
            for form, coeff in terms))

    @classmethod
    def _of(cls, terms: tuple[tuple[AngleForm, Fraction], ...]) -> "TrigPoly":
        """The TrigPoly of terms that are already canonical, sorted, one per
        form and nonzero: what every ring operation but a product keeps."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TrigPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def cos_of(cls, form: AngleForm, coeff: Rat = 1) -> "TrigPoly":
        return cls([(form, coeff)])

    @classmethod
    def sin_of(cls, form: AngleForm, coeff: Rat = 1) -> "TrigPoly":
        shifted = AngleForm(form.pi_part - Fraction(1, 2), form.t_part, form.u_part)
        return cls([(shifted, coeff)])

    @classmethod
    def constant(cls, value: Rat) -> "TrigPoly":
        return cls([(AngleForm(), value)])

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly._of(_merged(self.terms + other.terms))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._of(tuple((f, -c) for f, c in self.terms))

    def scale(self, k: Rat) -> "TrigPoly":
        k = _fraction(k, "TrigPoly scale")
        if not k:
            return TrigPoly()
        return TrigPoly._of(tuple((f, c * k) for f, c in self.terms))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out = []
        half = Fraction(1, 2)
        for f, c in self.terms:
            for g, d in other.terms:
                coeff = c * d * half
                out.append((_canonical_term(f + g), coeff))
                out.append((_canonical_term(f - g), coeff))
        return TrigPoly._of(_merged(out))

    # -- calculus --------------------------------------------------------

    def derivative(self, variable: str = "t") -> "TrigPoly":
        """Partial derivative; d/dt cos(X) = -B sin(X) = -B cos(X - pi/2)."""
        out = []
        for f, c in self.terms:
            freq = f.t_part if variable == "t" else f.u_part
            if freq == 0:
                continue
            shifted = AngleForm(f.pi_part - Fraction(1, 2), f.t_part, f.u_part)
            out.append((shifted, -c * freq))
        return TrigPoly(out)

    # -- evaluation -------------------------------------------------------

    def _exact_row(self, tau: Rat, mu: Rat = 0) -> tuple[int, np.ndarray, int]:
        """(N, row, den): the value at t = tau*pi, u = mu*pi is the real
        element row/den of Q(zeta_N), from one table product.

        cos(n*pi/d) is rational for d <= 3, so such a term enters as a
        constant (angle 0) and leaves N to the other angles."""
        terms = []
        for f, c in self.terms:
            angle = RationalAngle.from_fraction(f.value_in_pi_units(tau, mu))
            if angle.den <= 3:
                angle, c = RationalAngle(0), c * cos_as_cyclotomic(angle).rational_value
            terms.append((angle, c))
        order, exponents = angle_exponents([angle for angle, _ in terms])
        coeffs, den = _integer_coefficients(terms)
        return order, cosine_numerators(order, coeffs, exponents), 2 * den

    def eval_exact(self, tau: Rat, mu: Rat = 0) -> CyclotomicNumber:
        """Exact value at t = tau*pi, u = mu*pi."""
        order, row, den = self._exact_row(tau, mu)
        return CyclotomicNumber(order, row.tolist(), den)

    def eval_interval(
        self,
        t_range: tuple[Rat, Rat],
        u_range: tuple[Rat, Rat] = (0, 0),
        precision: int = 64,
    ) -> SignedInterval:
        """Rigorous enclosure over t in t_range*pi, u in u_range*pi.

        A range must run from its lower to its upper end (ValueError
        otherwise)."""
        (t1, t2), (u1, u2) = ((Fraction(lo), Fraction(hi)) for lo, hi in (t_range, u_range))
        if t1 > t2 or u1 > u2:
            raise ValueError(f"reversed parameter range t {t_range}, u {u_range}")
        pi = mpi_pi(precision)
        total = (fzero, fzero)
        for f, c in self.terms:
            lo = hi = f.pi_part
            for k, x1, x2 in ((f.t_part, t1, t2), (f.u_part, u1, u2)):
                if k:
                    a, b = k * x1, k * x2
                    lo, hi = (lo + a, hi + b) if k > 0 else (lo + b, hi + a)
            angle = mpi_mul(_outward(lo, hi, precision), pi, precision)
            term = mpi_mul(mpi_cos(angle, precision), _outward(c, c, precision), precision)
            total = mpi_add(total, term, precision)
        lo, hi = (Fraction(*to_rational(v)) for v in total)
        return SignedInterval(lo, hi, precision)

    def __float__(self) -> float:
        raise TypeError("evaluate with eval_exact or eval_interval")

    # -- structure ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f, _ in self.terms)

    def is_zero(self) -> bool:
        """Exact test for identical vanishing over all real t, u."""
        frequencies = itertools.groupby(self.terms, key=lambda term: _term_key(term)[:2])
        for (bt, cu), group in frequencies:
            group = tuple(group)
            order, exponents = angle_exponents(
                [RationalAngle.from_fraction(f.pi_part) for f, _ in group])
            coeffs, _ = _integer_coefficients(group)
            if bt == 0 and cu == 0:
                row = cosine_numerators(order, coeffs, exponents)
            else:
                row = _order_data(order).powers(exponents, coeffs)
            if row.any():
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "TrigPoly(0)"
        bits = [f"{c}*cos({f})" for f, c in self.terms]
        return "TrigPoly(" + " + ".join(bits) + ")"


def _outward(lo: Fraction, hi: Fraction, precision: int):
    """The libmp interval [lo, hi] with its ends rounded outward."""
    return (from_rational(lo.numerator, lo.denominator, precision, round_floor),
            from_rational(hi.numerator, hi.denominator, precision, round_ceiling))


def det(matrix: Sequence[Sequence[TrigPoly]]) -> TrigPoly:
    """Determinant of a square TrigPoly matrix by cofactor expansion.

    No code in the package calls it; kept because perfbench/layers.py
    traces it by name."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = TrigPoly.zero()
    for j in range(n):
        entry = matrix[0][j]
        if not entry.terms:
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in matrix[1:]
        ]
        term = entry * det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# -- rigorous positivity on an interval ---------------------------------


@dataclass(frozen=True)
class EndpointAnalysis:
    """How positivity was certified at one endpoint of the parameter range."""

    endpoint: Fraction
    method: str  # "positive-value" or "taylor-strip"
    vanishing_order: int
    strip_width: Fraction


@dataclass(frozen=True)
class PositivityWitness:
    variable_range: tuple[Fraction, Fraction]
    left: EndpointAnalysis
    right: EndpointAnalysis
    bisection_segments: int
    precision: int


class PositivityError(ArithmeticError):
    pass


def _sign_at(poly: TrigPoly, x0: Fraction) -> int:
    """Exact sign of poly at t = x0*pi: the float64 filter on its one
    numerator row, and cyclotomic.sign only when the filter declines."""
    order, row, den = poly._exact_row(x0)
    s, = filter_signs(order, row[np.newaxis])
    if s is None:
        s = sign(CyclotomicNumber(order, row.tolist(), den))
    return s


def _endpoint_analysis(
    poly: TrigPoly,
    x0: Fraction,
    direction: int,
    max_width: Fraction,
    precision: int,
    max_order: int = 8,
) -> EndpointAnalysis:
    """Certify poly > 0 on a one-sided strip at x0 (direction +1 or -1).

    If poly(x0) > 0 exactly, no strip is needed.  If poly(x0) = 0, find
    the first non-vanishing derivative d^m; the sign of poly just inside
    is direction^m * sign(d^m(x0)), and the strip is valid as soon as an
    interval evaluation shows d^m keeps that exact sign across it (a
    Taylor expansion anchored at x0 then has no other surviving term).
    """
    s = _sign_at(poly, x0)
    if s > 0:
        return EndpointAnalysis(x0, "positive-value", 0, Fraction(0))
    if s < 0:
        raise PositivityError(f"negative value at endpoint t = {x0}*pi")

    deriv = poly
    for order in range(1, max_order + 1):
        deriv = deriv.derivative("t")
        s = _sign_at(deriv, x0)
        if s != 0:
            break
    else:
        raise PositivityError(f"no nonzero derivative of order <= {max_order}")

    inward = s * (direction ** order)
    if inward <= 0:
        raise PositivityError(
            f"function decreases into the interval at t = {x0}*pi"
        )
    width = max_width
    while width > Fraction(1, 1 << 24):
        strip = (x0, x0 + width) if direction > 0 else (x0 - width, x0)
        enclosure = deriv.eval_interval(strip, precision=precision)
        if enclosure.sign == s:
            return EndpointAnalysis(x0, "taylor-strip", order, width)
        width /= 2
    raise PositivityError(f"could not certify a strip at t = {x0}*pi")


def positive_on_open_interval(
    poly: TrigPoly,
    lo: Fraction,
    hi: Fraction,
    precision: int = 96,
    max_depth: int = 48,
) -> PositivityWitness:
    """Prove poly(t) > 0 for all t in (lo*pi, hi*pi).

    Endpoints may vanish (boundary degeneracies); they get exact Taylor
    strips.  The remaining closed middle is covered by adaptive interval
    bisection.  Raises PositivityError when positivity cannot be
    established, so a successful return is a certificate.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    quarter = (hi - lo) / 4
    left = _endpoint_analysis(poly, lo, +1, quarter, precision)
    right = _endpoint_analysis(poly, hi, -1, quarter, precision)
    mid_lo = lo + left.strip_width
    mid_hi = hi - right.strip_width
    segments = 0
    if mid_lo < mid_hi:
        stack = [(mid_lo, mid_hi, 0)]
        while stack:
            x1, x2, depth = stack.pop()
            enclosure = poly.eval_interval((x1, x2), precision=precision)
            if enclosure.lo > 0:
                segments += 1
                continue
            if depth >= max_depth:
                raise PositivityError(
                    f"bisection stalled on [{x1}, {x2}]*pi: {enclosure}"
                )
            mid = (x1 + x2) / 2
            stack.append((x1, mid, depth + 1))
            stack.append((mid, x2, depth + 1))
    return PositivityWitness((lo, hi), left, right, segments, precision)
