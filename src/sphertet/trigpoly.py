"""Exact trigonometric polynomials in up to two real parameters.

A TrigPoly is a finite sum  sum_i  gamma_i * cos(pi*A_i + B_i*t + C_i*u)
with rational gamma_i, A_i, B_i, C_i.  The class supports ring
operations (products rewritten by the product-to-sum rule), partial
derivatives, exact evaluation at rational multiples of pi, rigorous
interval evaluation over boxes, and an exact identically-zero test.

Representation.  Everything is kept in Python ints.  An AngleForm is
(a*pi + b*t + c*u)/d with integers a, b, c and d > 0 in lowest terms.  A
TrigPoly has one angle denominator D and one coefficient denominator K,
and each term is an integer tuple (a, b, c, k) for
k/K * cos((a*pi + b*t + c*u)/D).  The terms are canonical (_canonical:
cos(-x) = cos(x) and the 2*pi period folded, so (b, c) is
lexicographically nonnegative, 0 <= a < 2D, and a <= D when b = c = 0),
one per angle, with no zero k, sorted by (b, c, a), and D and K are the
least denominators that hold them.  So two polynomials have equal terms
exactly when their canonical sums are equal, and the triple
(D, K, terms), TrigPoly.key, is the key under which a proof is memoised.
Sums, products, derivatives, the zero test, exact sums and the angle
ranges of an enclosure all run on these ints.  Fractions appear only at
the API edge: the parts of an AngleForm, TrigPoly.terms, and the values,
enclosures and witnesses that are returned.

Exact.  At t = tau*pi, u = mu*pi every angle is a rational multiple of
pi, so the value is one cosine sum in one field Q(zeta_N), N = lcm of
twice the angles' denominators (cyclotomic.angle_exponents; a term whose
cosine is rational counts as a constant).  A sign comes from the proven
float filter (cyclotomic.filter_signs) on its cosine terms, and from
cyclotomic.sign on the exact element only when the filter declines.
The zero test groups terms by frequency pair
(B, C).  Functions cos(B*t + C*u + phase) with canonically distinct
frequencies are linearly independent, so the sum vanishes identically
iff every group does; a group  sum_i gamma_i cos(pi*A_i + theta)  is the
real part of  (sum_i gamma_i e^{i pi A_i}) e^{i theta}  and vanishes for
all theta iff that cyclotomic weight is zero, and the constant group
iff its cosine sum is.  Each group is one packed table sum in one field
Q(zeta_N), and it is zero iff its numerator is.

Enclosure.  Over a box t in [t1, t2]*pi, u in [u1, u2]*pi the angle of a
term ranges over exactly pi times the rational interval
A + B*[t1, t2] + C*[u1, u2].  eval_interval computes the ends of that
range as integers over one denominator, rounds them outward to the
working precision once, and multiplies by an enclosure of pi, takes the
cosine, scales by the outward-rounded coefficient and sums, all in
mpmath's libmp interval functions, every one of which rounds outward.

Positivity.  positive_on_open_interval proves a one-parameter TrigPoly
positive on an open interval: exact signs, and Taylor strips where an
end vanishes, then interval bisection of the middle.  Each proof runs
once per process: its witness is memoised under the key (poly.key, lo,
hi, precision, max_depth) with lo and hi as reduced integer pairs, so
equal polynomials (the Gram sums of twin family rows, for one) share one
frozen witness.  The memo fills on use; its cache_clear is for tests.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence, Union

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

from .angles import RationalAngle, _fraction
from .cyclotomic import (
    CyclotomicNumber,
    SignedInterval,
    _order_data,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_numerator,
    cosine_sum,
    filter_signs,
    sign,
)

Rat = Union[Fraction, int]
Term = tuple[int, int, int, int]
Key = tuple[int, int, tuple[Term, ...]]


def _ratio(value, what: str) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction; a float raises
    TypeError."""
    if type(value) is not int:
        value = _fraction(value, what)
    return value.numerator, value.denominator


def _check_precision(precision) -> None:
    """An interval precision is an int of at least one bit."""
    if type(precision) is not int or precision < 1:
        raise ValueError(f"precision must be an int >= 1, got {precision!r}")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class AngleForm:
    """A linear angle  pi_part*pi + t_part*t + u_part*u  with rational
    parts, kept as (a*pi + b*t + c*u)/d in lowest terms with d > 0."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, pi_part: Rat = 0, t_part: Rat = 0, u_part: Rat = 0) -> None:
        a, p = _ratio(pi_part, "AngleForm pi_part")
        b, q = _ratio(t_part, "AngleForm t_part")
        c, r = _ratio(u_part, "AngleForm u_part")
        d = math.lcm(p, q, r)
        _set_form(self, a * (d // p), b * (d // q), c * (d // r), d)

    @property
    def pi_part(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def t_part(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def u_part(self) -> Fraction:
        return Fraction(self.c, self.d)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        d = math.lcm(self.d, other.d)
        m, n = d // self.d, d // other.d
        return _form(self.a * m + other.a * n, self.b * m + other.b * n,
                     self.c * m + other.c * n, d)

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return self + (-other)

    def __neg__(self) -> "AngleForm":
        return _form(-self.a, -self.b, -self.c, self.d)

    def scale(self, k: Rat) -> "AngleForm":
        p, q = _ratio(k, "AngleForm scale")
        return _form(self.a * p, self.b * p, self.c * p, self.d * q)

    @property
    def is_constant(self) -> bool:
        return self.b == 0 and self.c == 0

    def value_in_pi_units(self, tau: Rat, mu: Rat = 0) -> Fraction:
        """The angle divided by pi when t = tau*pi, u = mu*pi."""
        (p, q), (r, s) = _ratio(tau, "parameter tau"), _ratio(mu, "parameter mu")
        return Fraction(self.a * q * s + self.b * p * s + self.c * r * q,
                        self.d * q * s)

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(f"{self.pi_part}*pi")
        if self.b:
            parts.append(f"{self.t_part}*t")
        if self.c:
            parts.append(f"{self.u_part}*u")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return (f"AngleForm(pi_part={self.pi_part!r}, t_part={self.t_part!r}, "
                f"u_part={self.u_part!r})")


def _set_form(form: AngleForm, a: int, b: int, c: int, d: int) -> None:
    g = math.gcd(a, b, c, d)
    if g != 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    object.__setattr__(form, "a", a)
    object.__setattr__(form, "b", b)
    object.__setattr__(form, "c", c)
    object.__setattr__(form, "d", d)


def _form(a: int, b: int, c: int, d: int) -> AngleForm:
    """The AngleForm (a*pi + b*t + c*u)/d, d > 0, reduced."""
    form = object.__new__(AngleForm)
    _set_form(form, a, b, c, d)
    return form


def _canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Fold cos(-x) = cos(x) and the 2*pi period of the angle
    (a*pi + b*t + c*u)/d into a unique key (a, b, c) over the same d."""
    if b < 0 or (b == 0 and (c < 0 or (c == 0 and a < 0))):
        a, b, c = -a, -b, -c
    a %= 2 * d
    if b == 0 and c == 0 and a > d:
        a = 2 * d - a
    return a, b, c


_TERM_ORDER = itemgetter(1, 2, 0)


def _normal(d: int, k: int, merged: dict[tuple[int, int, int], int]) -> Key:
    """(D, K, terms) of the canonical angles of merged, over d, with their
    coefficients over k: zeros dropped, both denominators made least,
    sorted by (b, c, a)."""
    kept = [(angle, n) for angle, n in merged.items() if n]
    if not kept:
        return 1, 1, ()
    g = math.gcd(d, *itertools.chain.from_iterable(angle for angle, _ in kept))
    h = math.gcd(k, *(n for _, n in kept))
    terms = [(a // g, b // g, c // g, n // h) for (a, b, c), n in kept]
    terms.sort(key=_TERM_ORDER)
    return d // g, k // h, tuple(terms)


class TrigPoly:
    """Immutable exact cosine series; see the module docstring."""

    __slots__ = ("angle_den", "coeff_den", "int_terms")

    angle_den: int
    coeff_den: int
    int_terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[tuple[AngleForm, Rat]] = ()) -> None:
        pairs = [(form, _ratio(coeff, "TrigPoly coefficient")) for form, coeff in terms]
        d = math.lcm(*(form.d for form, _ in pairs))
        k = math.lcm(*(q for _, (_, q) in pairs))
        merged = defaultdict(int)
        for form, (p, q) in pairs:
            m = d // form.d
            merged[_canonical(form.a * m, form.b * m, form.c * m, d)] += p * (k // q)
        self._set(*_normal(d, k, merged))

    def _set(self, d: int, k: int, terms: tuple[Term, ...]) -> None:
        object.__setattr__(self, "angle_den", d)
        object.__setattr__(self, "coeff_den", k)
        object.__setattr__(self, "int_terms", terms)

    @classmethod
    def _of(cls, d: int, k: int, terms: tuple[Term, ...]) -> "TrigPoly":
        """The TrigPoly of integer terms that are already canonical, sorted,
        one per angle and nonzero, over least denominators d and k."""
        poly = object.__new__(cls)
        poly._set(d, k, terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TrigPoly is immutable")

    @property
    def key(self) -> Key:
        """(D, K, terms): equal keys exactly for equal canonical sums."""
        return self.angle_den, self.coeff_den, self.int_terms

    @property
    def terms(self) -> tuple[tuple[AngleForm, Fraction], ...]:
        """The canonical terms as (AngleForm, Fraction coefficient) pairs."""
        d, k = self.angle_den, self.coeff_den
        return tuple((_form(a, b, c, d), Fraction(n, k)) for a, b, c, n in self.int_terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def cos_of(cls, form: AngleForm, coeff: Rat = 1) -> "TrigPoly":
        return cls([(form, coeff)])

    @classmethod
    def sin_of(cls, form: AngleForm, coeff: Rat = 1) -> "TrigPoly":
        """coeff*sin(X) = coeff*cos(X - pi/2)."""
        shifted = _form(2 * form.a - form.d, 2 * form.b, 2 * form.c, 2 * form.d)
        return cls([(shifted, coeff)])

    @classmethod
    def constant(cls, value: Rat) -> "TrigPoly":
        return cls([(AngleForm(), value)])

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    # -- ring operations ------------------------------------------------

    def _plus(self, other: "TrigPoly", factor: int) -> "TrigPoly":
        """self + factor*other over the common denominators; terms scaled
        to a multiple of their D stay canonical."""
        d = math.lcm(self.angle_den, other.angle_den)
        k = math.lcm(self.coeff_den, other.coeff_den)
        merged = defaultdict(int)
        for poly, f in ((self, 1), (other, factor)):
            m, w = d // poly.angle_den, f * (k // poly.coeff_den)
            for a, b, c, n in poly.int_terms:
                merged[a * m, b * m, c * m] += n * w
        return TrigPoly._of(*_normal(d, k, merged))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._of(self.angle_den, self.coeff_den,
                            tuple((a, b, c, -n) for a, b, c, n in self.int_terms))

    def scale(self, k: Rat) -> "TrigPoly":
        p, q = _ratio(k, "TrigPoly scale")
        if not p:
            return TrigPoly()
        den = self.coeff_den * q
        h = math.gcd(den, *(n * p for *_, n in self.int_terms))
        return TrigPoly._of(self.angle_den, den // h,
                            tuple((a, b, c, n * p // h) for a, b, c, n in self.int_terms))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """cos X cos Y = (cos(X + Y) + cos(X - Y))/2, term by term."""
        d = math.lcm(self.angle_den, other.angle_den)
        m, w = d // self.angle_den, d // other.angle_den
        right = [(a * w, b * w, c * w, n) for a, b, c, n in other.int_terms]
        merged = defaultdict(int)
        for a, b, c, n in self.int_terms:
            a, b, c = a * m, b * m, c * m
            for x, y, z, r in right:
                merged[_canonical(a + x, b + y, c + z, d)] += n * r
                merged[_canonical(a - x, b - y, c - z, d)] += n * r
        return TrigPoly._of(*_normal(d, 2 * self.coeff_den * other.coeff_den, merged))

    # -- calculus --------------------------------------------------------

    def derivative(self, variable: str = "t") -> "TrigPoly":
        """Partial derivative in variable "t" or "u";
        d/dt cos(X) = -B sin(X) = -B cos(X - pi/2), with
        X - pi/2 = ((2a - D)*pi + 2b*t + 2c*u)/(2D)."""
        if variable not in ("t", "u"):
            raise ValueError(f"no variable {variable!r}: differentiate in 't' or 'u'")
        in_t = variable == "t"
        d = self.angle_den
        merged = defaultdict(int)
        for a, b, c, n in self.int_terms:
            freq = b if in_t else c
            if freq:
                merged[_canonical(2 * a - d, 2 * b, 2 * c, 2 * d)] -= n * freq
        return TrigPoly._of(*_normal(2 * d, self.coeff_den * d, merged))

    # -- evaluation -------------------------------------------------------

    def _exact_sum(self, tau: Rat, mu: Rat = 0
                   ) -> tuple[int, list[tuple[int, int]], int]:
        """(N, terms, den): the value at t = tau*pi, u = mu*pi is
        sum_i k_i cos(2*pi*e_i/N) / den over the (k_i, e_i) terms, with den
        the least common denominator of the coefficients.

        cos(n*pi/d) is rational for d <= 3, so such a term enters as a
        constant (angle 0) and leaves N to the other angles."""
        (p, q), (r, s) = _ratio(tau, "parameter tau"), _ratio(mu, "parameter mu")
        den = self.angle_den * q * s
        zero = RationalAngle(0)
        angles, coeffs = [], []
        for a, b, c, n in self.int_terms:
            angle = RationalAngle(a * q * s + b * p * s + c * r * q, den)
            if angle.den <= 3:
                value = cos_as_cyclotomic(angle)  # order 1, value num[0]/den
                angle, n = zero, n * 2 * value.num[0] // value.den
            else:
                n *= 2
            angles.append(angle)
            coeffs.append(n)
        order, exponents = angle_exponents(angles)
        k = 2 * self.coeff_den
        g = math.gcd(k, *coeffs)
        return order, [(n // g, e) for n, e in zip(coeffs, exponents)], k // g

    def eval_exact(self, tau: Rat, mu: Rat = 0) -> CyclotomicNumber:
        """Exact value at t = tau*pi, u = mu*pi."""
        return cosine_sum(*self._exact_sum(tau, mu))

    def eval_interval(
        self,
        t_range: tuple[Rat, Rat],
        u_range: tuple[Rat, Rat] = (0, 0),
        precision: int = 64,
    ) -> SignedInterval:
        """Rigorous enclosure over t in t_range*pi, u in u_range*pi.

        A range must run from its lower to its upper end, and precision
        must be an int of at least one bit (ValueError otherwise)."""
        _check_precision(precision)
        (t1, t2, tq), (u1, u2, uq) = (_over_one_denominator(lo, hi)
                                      for lo, hi in (t_range, u_range))
        if t1 > t2 or u1 > u2:
            raise ValueError(f"reversed parameter range t {t_range}, u {u_range}")
        # angle ends in pi units, as integers over den
        den = self.angle_den * tq * uq
        t1, t2, u1, u2 = t1 * uq, t2 * uq, u1 * tq, u2 * tq
        k = self.coeff_den
        pi = mpi_pi(precision)
        total = (fzero, fzero)
        for a, b, c, n in self.int_terms:
            lo = hi = a * tq * uq
            for f, x1, x2 in ((b, t1, t2), (c, u1, u2)):
                ends = (f * x1, f * x2)
                lo, hi = lo + min(ends), hi + max(ends)
            angle = mpi_mul(_outward(lo, hi, den, precision), pi, precision)
            term = mpi_mul(mpi_cos(angle, precision), _outward(n, n, k, precision),
                           precision)
            total = mpi_add(total, term, precision)
        lo, hi = (Fraction(*to_rational(v)) for v in total)
        return SignedInterval(lo, hi, precision)

    def __float__(self) -> float:
        raise TypeError("evaluate with eval_exact or eval_interval")

    # -- structure ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(b == 0 and c == 0 for _, b, c, _ in self.int_terms)

    def is_zero(self) -> bool:
        """Exact test for identical vanishing over all real t, u."""
        d = self.angle_den
        for (b, c), group in itertools.groupby(self.int_terms, key=itemgetter(1, 2)):
            group = tuple(group)
            g = math.gcd(d, *(t[0] for t in group))
            order = 2 * d // g
            terms = [(n, a // g) for a, _, _, n in group]
            if b == 0 and c == 0:
                num = cosine_numerator(order, terms)
            else:
                num = _order_data(order).powers(terms)
            if any(num):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:
        if not self.int_terms:
            return "TrigPoly(0)"
        bits = [f"{c}*cos({f})" for f, c in self.terms]
        return "TrigPoly(" + " + ".join(bits) + ")"


def _over_one_denominator(lo: Rat, hi: Rat) -> tuple[int, int, int]:
    """(m, n, q): the range ends are m/q and n/q."""
    (m, p), (n, r) = _ratio(lo, "range end"), _ratio(hi, "range end")
    q = math.lcm(p, r)
    return m * (q // p), n * (q // r), q


def _outward(lo: int, hi: int, den: int, precision: int):
    """The libmp interval [lo/den, hi/den] with its ends rounded outward."""
    return (from_rational(lo, den, precision, round_floor),
            from_rational(hi, den, precision, round_ceiling))


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
        if not entry.int_terms:
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
    """Exact sign of poly at t = x0*pi: the float filter on its cosine
    terms, and cyclotomic.sign only when the filter declines."""
    order, terms, den = poly._exact_sum(x0)
    s, = filter_signs(order, [terms])
    if s is None:
        s = sign(cosine_sum(order, terms, den))
    return s


def _endpoint_analysis(
    chain: list[TrigPoly],
    x0: Fraction,
    direction: int,
    max_width: Fraction,
    precision: int,
    max_order: int = 8,
) -> EndpointAnalysis:
    """Certify poly > 0 on a one-sided strip at x0 (direction +1 or -1).

    chain is [poly, poly', poly'', ...]: both ends of one proof share it,
    and an end extends it only as far as it needs.  If poly(x0) > 0
    exactly, no strip is needed.  If poly(x0) = 0, find the first
    non-vanishing derivative d^m; the sign of poly just inside is
    direction^m * sign(d^m(x0)), and the strip is valid as soon as an
    interval evaluation shows d^m keeps that exact sign across it (a
    Taylor expansion anchored at x0 then has no other surviving term).
    """
    s = _sign_at(chain[0], x0)
    if s > 0:
        return EndpointAnalysis(x0, "positive-value", 0, Fraction(0))
    if s < 0:
        raise PositivityError(f"negative value at endpoint t = {x0}*pi")

    for order in range(1, max_order + 1):
        if order == len(chain):
            chain.append(chain[-1].derivative("t"))
        deriv = chain[order]
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
    lo: Rat,
    hi: Rat,
    precision: int = 96,
    max_depth: int = 48,
) -> PositivityWitness:
    """Prove poly(t) > 0 for all t in (lo*pi, hi*pi).

    Endpoints may vanish (boundary degeneracies); they get exact Taylor
    strips.  The remaining closed middle is covered by adaptive interval
    bisection.  Raises PositivityError when positivity cannot be
    established, so a successful return is a certificate.  poly must not
    depend on u, and precision must be an int of at least one bit
    (ValueError otherwise).

    Each proof runs once per process: the witness is memoised under
    (poly.key, lo, hi, precision, max_depth), with lo and hi as reduced
    (numerator, denominator) pairs, and a later request with an equal key
    gets the same frozen witness.  A proof that raises stores nothing.
    """
    if any(c for _, _, c, _ in poly.int_terms):
        raise ValueError(f"{poly} depends on u; positivity is proved in t alone")
    _check_precision(precision)
    return _proved_positive(poly.key, _ratio(lo, "interval end"),
                            _ratio(hi, "interval end"), precision, max_depth)


@lru_cache(maxsize=None)
def _proved_positive(
    key: Key,
    lo: tuple[int, int],
    hi: tuple[int, int],
    precision: int,
    max_depth: int,
) -> PositivityWitness:
    """The memoised proof of positive_on_open_interval."""
    lo, hi = Fraction(*lo), Fraction(*hi)
    if not lo < hi:
        raise ValueError("empty interval")
    poly = TrigPoly._of(*key)
    chain = [poly]
    quarter = (hi - lo) / 4
    left = _endpoint_analysis(chain, lo, +1, quarter, precision)
    right = _endpoint_analysis(chain, hi, -1, quarter, precision)
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
