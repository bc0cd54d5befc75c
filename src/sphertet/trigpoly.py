"""Exact trigonometric polynomials in up to two real parameters.

A TrigPoly is a finite sum  sum_i  gamma_i * cos(pi*A_i + B_i*t + C_i*u)
with rational gamma_i, A_i, B_i, C_i.  The class supports ring
operations (products rewritten by the product-to-sum rule), the
derivative in t, exact evaluation at rational multiples of pi, an exact
identically-zero test and proofs of positivity on an interval.

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
Fractions appear only at the API edge.

Exact.  At t = tau*pi, u = mu*pi the value is one cosine sum in one
field Q(zeta_N), N = lcm of twice the angles' denominators (_cosine_row;
a rational cosine counts as a constant).  A sign comes from the proven
float filter (cyclotomic.filter_signs), and from cyclotomic.sign only
when the filter declines.  The zero test groups terms by frequency pair
(B, C): functions cos(B*t + C*u + phase) with canonically distinct
frequencies are linearly independent, and a group
sum_i gamma_i cos(pi*A_i + theta) vanishes for all theta iff its
cyclotomic weight sum_i gamma_i e^{i pi A_i} is zero (the constant group
iff its cosine sum is): one packed table sum each.

Positivity.  positive_on_open_interval proves g > 0 on (lo, hi)*pi by
Taylor's theorem with an explicit remainder (Makino and Berz 2003).
For g = sum k_i cos(pi*A_i + B_i*t), |d^n g/dt^n| <= M_n =
sum |k_i| |B_i|^n, and pi in each bound is PI_UPPER = 355/113 > pi, so
every inequality is one cosine sum with rational coefficients, decided
by an exact sign.  An end x0 needs g(x0) > 0, or g vanishing to order m
there and a strip of width w with s*g^(m)(x0) - PI_UPPER*M_(m+1)*w/(m+1)
> 0, s the sign of g^(m)(x0).  The middle is bisected into pieces
[c - h, c + h] (pi units), each with both
g(c) -+ PI_UPPER*h*g'(c) - PI_UPPER^2*M_2*h^2/2 > 0.  The witness holds
this rational data, and recheck_positivity rederives every sign from
it.  A proof runs once per process, memoised under (poly.key, lo, hi),
so equal polynomials (the Gram sums of twin family rows, for one) share
one frozen witness; cache_clear is for tests.  eval_interval, an
outward-rounded mpmath enclosure over a box, is on no proof path and is
the package's one reader of mpmath, which is not a dependency.
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

from .angles import _fraction
from .cyclotomic import (
    CyclotomicNumber,
    CyclotomicOrderError,
    SignedInterval,
    _check_bits,
    _order_data,
    common_order,
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

    def derivative(self) -> "TrigPoly":
        """Partial derivative in t;
        d/dt cos(X) = -B sin(X) = -B cos(X - pi/2), with
        X - pi/2 = ((2a - D)*pi + 2b*t + 2c*u)/(2D)."""
        d = self.angle_den
        merged = defaultdict(int)
        for a, b, c, n in self.int_terms:
            if b:
                merged[_canonical(2 * a - d, 2 * b, 2 * c, 2 * d)] -= n * b
        return TrigPoly._of(*_normal(2 * d, self.coeff_den * d, merged))

    # -- evaluation -------------------------------------------------------

    def _exact_sum(self, tau: Rat, mu: Rat = 0
                   ) -> tuple[int, list[tuple[int, int]], int]:
        """(N, terms, den): the value at t = tau*pi, u = mu*pi is
        sum_i k_i cos(2*pi*e_i/N) / den over the (k_i, e_i) terms, with den
        the least common denominator of the coefficients (_cosine_row)."""
        (p, q), (r, s) = _ratio(tau, "parameter tau"), _ratio(mu, "parameter mu")
        den = self.angle_den * q * s
        order, terms = _cosine_row([(n, a * q * s + b * p * s + c * r * q, den)
                                    for a, b, c, n in self.int_terms])
        k = 2 * self.coeff_den
        g = math.gcd(k, *(n for n, _ in terms))
        return order, [(n // g, e) for n, e in terms], k // g

    def eval_exact(self, tau: Rat, mu: Rat = 0) -> CyclotomicNumber:
        """Exact value at t = tau*pi, u = mu*pi."""
        return cosine_sum(*self._exact_sum(tau, mu))

    def eval_interval(
        self,
        t_range: tuple[Rat, Rat],
        u_range: tuple[Rat, Rat] = (0, 0),
        precision: int = 64,
    ) -> SignedInterval:
        """Rigorous enclosure over t in t_range*pi, u in u_range*pi: each
        term's angle ranges over pi*(A + B*t_range + C*u_range).

        A range must run from its lower to its upper end, and precision
        must be an int of at least one bit (ValueError otherwise), checked
        before mpmath, which the package does not depend on, is imported.
        No command or proof calls it; it stays only because
        perfbench/layers.py traces it by name."""
        _check_bits(precision, 1, "precision")
        from mpmath.libmp import fzero, mpi_add, mpi_cos, mpi_mul, to_rational
        from mpmath.libmp.libmpi import mpi_pi

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


# 2*cos(m*pi/d) for reduced d <= 3, by d and m mod 6: the rational cosines.
_TWICE_RATIONAL_COS = {1: (2, -2, 2, -2, 2, -2), 2: (0,) * 6, 3: (0, 1, -1, 0, -1, 1)}


def _cosine_row(terms: Iterable[tuple[int, int, int]]
                ) -> tuple[int, list[tuple[int, int]]]:
    """(N, row): sum_i k_i cos(2*pi*e_i/N) over the (k_i, e_i) of row is
    twice the sum of n*cos(m*pi/d) over the (n, m, d) terms, d > 0, one
    row entry per term.

    N is the lcm of 2d over the reduced angles, and a term whose cosine is
    rational (reduced d <= 3) enters as the constant (2n cos, 0), leaving
    N to the other angles.  Raises CyclotomicOrderError when N exceeds
    MAX_ORDER.
    """
    reduced = []
    for n, m, d in terms:
        g = math.gcd(m, d)
        reduced.append((n, m // g, d // g))
    order = common_order(*{2 * d if d > 3 else 2 for _, _, d in reduced})
    return order, [(n * _TWICE_RATIONAL_COS[d][m % 6], 0) if d <= 3
                   else (2 * n, m * (order // (2 * d))) for n, m, d in reduced]


def _over_one_denominator(lo: Rat, hi: Rat) -> tuple[int, int, int]:
    """(m, n, q): the range ends are m/q and n/q."""
    (m, p), (n, r) = _ratio(lo, "range end"), _ratio(hi, "range end")
    q = math.lcm(p, r)
    return m * (q // p), n * (q // r), q


def _outward(lo: int, hi: int, den: int, precision: int):
    """The libmp interval [lo/den, hi/den] with its ends rounded outward."""
    from mpmath.libmp import from_rational, round_ceiling, round_floor

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

PI_UPPER = Fraction(355, 113)  # exceeds pi by less than 2.7e-7
_PI_P, _PI_Q = PI_UPPER.numerator, PI_UPPER.denominator
_COVER_DEPTH = 8  # most bisections of a middle, or halvings of a strip
_ENDPOINT_ORDER = 8  # highest derivative tried at a zero endpoint
_ZERO = Fraction(0)


@dataclass(frozen=True)
class EndpointAnalysis:
    """How positivity was certified at one endpoint of the parameter range."""

    endpoint: Fraction
    method: str  # "positive-value" or "taylor-strip"
    vanishing_order: int
    strip_width: Fraction


@dataclass(frozen=True)
class PositivityWitness:
    """The ends, the (c, h) samples whose pieces [c - h, c + h] tile the
    middle in increasing order, and the bound of pi they used."""

    variable_range: tuple[Fraction, Fraction]
    left: EndpointAnalysis
    right: EndpointAnalysis
    samples: tuple[tuple[Fraction, Fraction], ...]
    pi_upper: Fraction

    @property
    def bisection_segments(self) -> int:
        """The sample count, under the name perfbench/layers.py reads."""
        return len(self.samples)


class PositivityError(ArithmeticError):
    pass


def _row_signs(terms: list[tuple[int, int, int]], flip: int = 0) -> list[int]:
    """Exact signs of sum n*cos(m*pi/d) over the (n, m, d) terms and, if
    flip, of that sum with terms[flip:] negated: one filter_signs call,
    and cyclotomic.sign for a row the filter declines."""
    order, row = _cosine_row(terms)
    rows = [row, row[:flip] + [(-k, e) for k, e in row[flip:]]] if flip else [row]
    return [sign(cosine_sum(order, row)) if s is None else s
            for s, row in zip(filter_signs(order, rows), rows)]


def _sign_at(poly: TrigPoly, x0: Fraction) -> int:
    """Exact sign of poly at t = x0*pi, u = 0."""
    p, q, d = x0.numerator, x0.denominator, poly.angle_den
    return _row_signs([(k, a * q + b * p, d * q) for a, b, _, k in poly.int_terms])[0]


def _bound(poly: TrigPoly, n: int) -> int:
    """M_n * K * D^n, M_n = sum |k_i| |B_i|^n >= max |d^n poly/dt^n|."""
    return sum(abs(k) * abs(b) ** n for _, b, _, k in poly.int_terms)


def _strip_holds(poly: TrigPoly, deriv: TrigPoly, x0: Fraction, s: int,
                 m: int, width: Fraction) -> bool:
    """s*d^m(x0) - PI_UPPER*M_(m+1)*width/(m + 1) > 0 for deriv = d^m,
    times K D^(m+1) Q (m + 1) w K' (width = r/w, K' of deriv)."""
    p, q, d = x0.numerator, x0.denominator, deriv.angle_den
    f = s * poly.coeff_den * poly.angle_den ** (m + 1) * _PI_Q * (m + 1)
    f *= width.denominator
    terms = [(-_PI_P * width.numerator * deriv.coeff_den * _bound(poly, m + 1), 0, 1)]
    terms += [(k * f, a * q + b * p, d * q) for a, b, _, k in deriv.int_terms]
    return _row_signs(terms)[0] > 0


def _sample_holds(poly: TrigPoly, c: Fraction, h: Fraction) -> bool:
    """poly(c) -+ PI_UPPER*h*poly'(c) - PI_UPPER^2*M_2*h^2/2 > 0, times
    2 K D^2 Q^2 s^2 (h = r/s), with d/dt k cos X = -k (b/D) cos(X - pi/2)."""
    p, q, d, r, s = c.numerator, c.denominator, poly.angle_den, h.numerator, h.denominator
    f, g = 2 * d * d * _PI_Q * _PI_Q * s * s, -2 * d * _PI_P * _PI_Q * r * s
    angles = [(k, b, a * q + b * p) for a, b, _, k in poly.int_terms]
    terms = [(-_PI_P * _PI_P * r * r * _bound(poly, 2), 0, 1)]
    terms += [(k * f, m, d * q) for k, _, m in angles]
    flip = len(terms)
    terms += [(k * b * g, 2 * m - d * q, 2 * d * q) for k, b, m in angles]
    return all(s > 0 for s in _row_signs(terms, flip))


def _endpoint_analysis(chain: list[TrigPoly], x0: Fraction,
                       other: Fraction) -> EndpointAnalysis:
    """poly(x0) > 0, or a strip from x0 towards other where poly vanishes
    at x0 and d^m is the first derivative that does not: the widest
    quarter/2^j of the interval whose double _strip_holds, which leaves
    the middle a margin.  chain is [poly, poly', ...], shared by the ends."""
    poly = chain[0]
    s = _sign_at(poly, x0)
    if s > 0:
        return EndpointAnalysis(x0, "positive-value", 0, _ZERO)
    if s < 0:
        raise PositivityError(f"negative value at endpoint t = {x0}*pi")
    for m in range(1, _ENDPOINT_ORDER + 1):
        if m == len(chain):
            chain.append(chain[-1].derivative())
        s = _sign_at(chain[m], x0)
        if s != 0:
            break
    else:
        raise PositivityError(f"no nonzero derivative of order <= {_ENDPOINT_ORDER}")
    if s * (1 if other > x0 else -1) ** m <= 0:
        raise PositivityError(f"function decreases into the interval at t = {x0}*pi")
    width = abs(other - x0) / 4
    for _ in range(_COVER_DEPTH):
        if _strip_holds(poly, chain[m], x0, s, m, 2 * width):
            return EndpointAnalysis(x0, "taylor-strip", m, width)
        width /= 2
    raise PositivityError(f"could not certify a strip at t = {x0}*pi")


def _cover(poly: TrigPoly, lo: Fraction, hi: Fraction
           ) -> tuple[tuple[Fraction, Fraction], ...]:
    """Samples that _sample_holds whose pieces tile [lo, hi] in increasing
    order, by bisection: a piece whose exact sample fails is split once
    its centre is shown positive, and no float is involved.  A centre
    where poly is not positive, or a piece past _COVER_DEPTH or
    MAX_ORDER, raises PositivityError."""
    q = math.lcm(lo.denominator, hi.denominator)
    samples = []
    stack = [(lo.numerator * (q // lo.denominator),
              hi.numerator * (q // hi.denominator), q, 0)]
    while stack:  # the piece [x1/q, x2/q]
        x1, x2, q, depth = stack.pop()
        c, h = Fraction(x1 + x2, 2 * q), Fraction(x2 - x1, 2 * q)
        try:
            if _sample_holds(poly, c, h):
                samples.append((c, h))
                continue
            if _sign_at(poly, c) <= 0:
                raise PositivityError(f"non-positive value at t = {c}*pi")
        except CyclotomicOrderError as exc:
            raise PositivityError(f"cover did not close at t = {c}*pi: {exc}") from exc
        if depth == _COVER_DEPTH:
            raise PositivityError(f"cover did not close at t = {c}*pi")
        depth += 1
        stack += [(x1 + x2, 2 * x2, 2 * q, depth), (2 * x1, x1 + x2, 2 * q, depth)]
    return tuple(samples)


def positive_on_open_interval(poly: TrigPoly, lo: Rat, hi: Rat) -> PositivityWitness:
    """Prove poly(t) > 0 for all t in (lo*pi, hi*pi) by the Taylor cover
    of the module docstring, or raise PositivityError; poly must not
    depend on u (ValueError).  The witness is memoised under (poly.key,
    lo, hi), ends as reduced integer pairs; a failed proof stores nothing.
    """
    if any(c for _, _, c, _ in poly.int_terms):
        raise ValueError(f"{poly} depends on u; positivity is proved in t alone")
    return _proved_positive(poly.key, _ratio(lo, "interval end"),
                            _ratio(hi, "interval end"))


@lru_cache(maxsize=None)
def _proved_positive(key: Key, lo: tuple[int, int], hi: tuple[int, int]
                     ) -> PositivityWitness:
    """The memoised proof of positive_on_open_interval."""
    lo, hi = Fraction(*lo), Fraction(*hi)
    if not lo < hi:
        raise ValueError("empty interval")
    chain = [TrigPoly._of(*key)]
    left, right = _endpoint_analysis(chain, lo, hi), _endpoint_analysis(chain, hi, lo)
    samples = _cover(chain[0], lo + left.strip_width, hi - right.strip_width)
    return PositivityWitness((lo, hi), left, right, samples, PI_UPPER)


def recheck_positivity(poly: TrigPoly, witness: PositivityWitness) -> bool:
    """Whether witness proves poly > 0 on its open range, each sign
    rederived by the check the proof runs: the pi bound is PI_UPPER, each
    end has a positive value or vanishes to its order with a strip, and
    the samples tile the middle exactly."""
    if witness.pi_upper != PI_UPPER or any(c for _, _, c, _ in poly.int_terms):
        return False
    (lo, hi), chain = witness.variable_range, [poly]
    for end, x0, other in ((witness.left, lo, hi), (witness.right, hi, lo)):
        m, width = end.vanishing_order, end.strip_width
        while len(chain) <= m:
            chain.append(chain[-1].derivative())
        signs = [_sign_at(chain[j], x0) for j in range(m + 1)]
        value = end.method == "positive-value" and m == width == 0 and signs[0] > 0
        strip = (end.method == "taylor-strip" and m > 0 and width > 0
                 and signs[m] * (1 if other > x0 else -1) ** m > 0
                 and _strip_holds(poly, chain[m], x0, signs[m], m, width))
        if end.endpoint != x0 or any(signs[:m]) or not (value or strip):
            return False
    edge = lo + witness.left.strip_width
    for c, h in witness.samples:
        if h <= 0 or c - h != edge or not _sample_holds(poly, c, h):
            return False
        edge = c + h
    return edge == hi - witness.right.strip_width
