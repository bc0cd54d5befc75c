"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is one integer numerator vector over one positive integer
denominator: (num_0 + num_1 x + ... + num_{phi-1} x^(phi-1)) / den in the
power basis modulo the N-th cyclotomic polynomial Phi_N, with
gcd(den, *num) = 1.  The power basis is canonical, so this form is
unique: an element is zero iff its numerator vector is zero, and two
elements of one order are equal iff their (num, den) are.  Every
equality and sign decision in the package bottoms out here.

Each order keeps one table, rows[k] = x^k mod Phi_N for
k < max(N, 2*phi - 1), and every operation is one product with it:
sum_i c_i x^(e_i) is c @ rows[e mod N].  A product convolves the two
numerators and reduces the result through a slice of the table;
embedding into Q(zeta_(m*N)) sends x^j to x^(j*m); conjugation sends
x^j to x^(-j); cos(nu*pi/delta) is (x^nu + x^(-nu))/2 in
Q(zeta_(2*delta)), so a sum of cosines of angles that share one field
is one table product, with nothing multiplied or embedded, and several
such sums are one product with a matrix of coefficients
(cosine_numerators; cosine_sum is its one-row case).  Such rows are
real by construction.  The convolution and the table product run on
numpy int64 when a bound on the magnitudes proves that no value
overflows, and on exact Python ints (dtype=object) otherwise.

Signs of real elements are decided by one float64 filter over a matrix
of numerator rows (filter_signs): a zero row is zero (the exact test),
and otherwise the value num . cos(2*pi*j/N) / den is evaluated as a
float64 dot product with a per-order cosine table, and its sign is
taken only when a proven bound on the error of the table and of the dot
product (Higham, ch. 3) excludes zero.  The table is built with integer
fixed-point powers of one 128-bit enclosure of zeta_N and carries its
own proven error.  sign() runs the filter on one row; when the filter
declines, or a numerator entry reaches 2^53, certified interval
evaluation at increasing precision (mpmath's interval context, outward
rounding) is refined until zero is excluded, which terminates for a
nonzero element.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

import mpmath
import numpy as np
from mpmath.libmp import to_rational

from .angles import RationalAngle

# Largest cyclotomic order the package will work in.  2520 = lcm(1..10)
# covers every angle denominator the searches and certificates produce.
MAX_ORDER = 2520

# int64 arithmetic is used when a bound on every value it computes is
# below this.
_INT64_SAFE = 1 << 62

# Largest entry of a reduction table.  The coefficients of Phi_N are at
# most 5 in absolute value for N <= MAX_ORDER, so the row after one
# whose entries stay below this cannot wrap in int64.
_ROW_LIMIT = 1 << 40

# When its float64 filter declines, sign() starts interval evaluation at
# this precision and doubles it up to the maximum.
SIGN_START_BITS = 64
SIGN_MAX_BITS = 1 << 20

# The float64 cosine table of an order is built from a _TABLE_BITS
# enclosure of zeta_N, in fixed point with _FIXED_BITS fraction bits.
_TABLE_BITS = 128
_FIXED_BITS = 96

# Unit roundoff of float64.  The filter in sign() only takes numerators
# whose entries are below _FLOAT_EXACT, so each converts to float exactly.
_UNIT_ROUNDOFF = 2.0 ** -53
_FLOAT_EXACT = 1 << 53


class CyclotomicOrderError(ValueError):
    """Raised when an operation would need Q(zeta_N) with N > MAX_ORDER."""


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def totient(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic.

    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), where mu(n/d) is nonzero
    only for n/d a product of distinct primes of n.  The binomials with
    mu = +1 are multiplied in, then those with mu = -1 divided out
    exactly; each step is one pass over the coefficients.
    """
    primes = _prime_factors(n)
    times, over = [], []
    for k in range(len(primes) + 1):
        for ps in itertools.combinations(primes, k):
            (over if k % 2 else times).append(n // math.prod(ps))
    poly = [1]
    for d in times:  # poly * (x^d - 1)
        poly = [0] * d + poly
        for k in range(len(poly) - d):
            poly[k] -= poly[k + d]
    for d in over:  # poly / (x^d - 1): q[k] = q[k - d] - poly[k]
        q = [0] * (len(poly) - d)
        for k in range(len(q)):
            q[k] = (q[k - d] if k >= d else 0) - poly[k]
        if poly[len(q):] != ([0] * d + q)[len(q):]:
            raise ArithmeticError(f"x^{d} - 1 does not divide the product")
        poly = q
    return tuple(poly)


def _height(vec) -> int:
    """Largest absolute value in an integer vector or array (0 when empty)."""
    if isinstance(vec, np.ndarray):
        return int(np.abs(vec).max(initial=0))
    return max(map(abs, vec), default=0)


def _dtype(bound: int):
    """int64 when bound caps every value to be computed, else Python ints."""
    return np.int64 if bound < _INT64_SAFE else object


class _OrderData:
    """The reduction table of one cyclotomic order."""

    def __init__(self, order: int):
        poly = cyclotomic_polynomial(order)
        self.order = order
        self.phi = phi = len(poly) - 1
        low = -np.array(poly[:-1], dtype=np.int64)  # x^phi in the power basis
        rows = np.zeros((max(order, 2 * phi - 1), phi), dtype=np.int64)
        np.fill_diagonal(rows[:phi], 1)
        row_max = 1
        for k in range(phi, len(rows)):  # x^k = x * x^(k-1)
            prev, row = rows[k - 1], rows[k]
            row[1:] = prev[:-1]
            if prev[-1]:
                row += prev[-1] * low
            row_max = max(row_max, int(row.max()), -int(row.min()))
            if row_max >= _ROW_LIMIT:
                raise ArithmeticError(
                    f"x^{k} mod Phi_{order} has an entry of {row_max.bit_length()} bits"
                )
        self.rows = rows
        self.row_max = row_max
        self._cos_tables: dict[int, list] = {}
        self._float_cos: Optional[tuple[np.ndarray, float]] = None

    def powers(self, exponents, coeffs) -> np.ndarray:
        """Numerator of sum_i coeffs[i] * x^exponents[i] in the power basis.

        exponents is a sequence of ints, taken mod N, or a slice of the
        table; a product passes slice(len(coeffs)), which reads its rows
        as a view instead of a copy.  coeffs is a vector, or a matrix
        with one row of coefficients per sum, and the result is the
        numerator vector, or one numerator row per sum, in int64 when
        the bound allows it and in Python ints (dtype=object) otherwise.
        """
        if not isinstance(exponents, slice):
            exponents = np.asarray(exponents, dtype=np.int64) % self.order
        rows = self.rows[exponents]
        dtype = _dtype(_height(coeffs) * self.row_max * len(rows))
        return np.asarray(coeffs, dtype=dtype) @ rows

    def cos_table(self, prec: int) -> list:
        """Certified enclosures of cos(2*pi*j/N) for j < phi, at prec bits."""
        table = self._cos_tables.get(prec)
        if table is None:
            ctx = mpmath.iv
            with iv_precision(prec):
                two_pi = 2 * ctx.pi
                table = [ctx.cos(two_pi * j / self.order) for j in range(self.phi)]
            self._cos_tables[prec] = table
        return table

    def float_cos(self) -> tuple[np.ndarray, float]:
        """(c, E): float64 c[j] ~ cos(2*pi*j/N) for j < phi, and
        E >= max_j |c[j] - cos(2*pi*j/N)|.

        One 128-bit interval enclosure of zeta = e^(2*pi*i/N) is rounded
        to a fixed-point pair Z_1 in units of 2^-P; the powers
        Z_j = floor(Z_(j-1) * Z_1 / 2^P) are exact integer products.
        With w_j = 2^P zeta^j, |Z_j - w_j| <= d_j holds by induction:
        Z_(j-1) Z_1 / 2^P = w_j + e_(j-1) w_1 / 2^P + w_(j-1) e_1 / 2^P
        + e_(j-1) e_1 / 2^P, |w_j| = 2^P, and the two floors add less
        than sqrt(2) < 2.  Each c[j] is Re Z_j / 2^P rounded to nearest,
        off by at most 2^-53, half an ulp of a float64 below 2.
        """
        if self._float_cos is None:
            scale = 1 << _FIXED_BITS
            with iv_precision(_TABLE_BITS):
                theta = 2 * mpmath.iv.pi / self.order
                enclosures = (mpmath.iv.cos(theta), mpmath.iv.sin(theta))
            z1, err1 = [], 0
            for enc in enclosures:
                ivl = _iv_to_signed_interval(enc, _TABLE_BITS)
                lo, hi = ivl.lo * scale, ivl.hi * scale
                z = round(ivl.midpoint * scale)
                z1.append(z)
                err1 += max(hi - z, z - lo)
            x, y = z1
            d1 = d = math.ceil(err1)  # |Z_1 - w_1| <= |Re| + |Im| errors
            reals = [scale, x][:self.phi]  # Z_0 = 2^P exactly
            for _ in range(2, self.phi):
                x, y = ((x * z1[0] - y * z1[1]) >> _FIXED_BITS,
                        (x * z1[1] + y * z1[0]) >> _FIXED_BITS)
                d += d1 + (-(-d * d1 >> _FIXED_BITS)) + 2
                reals.append(x)
            err = Fraction(_UNIT_ROUNDOFF) + Fraction(d + 1, scale)
            self._float_cos = (np.array([r / scale for r in reals]),
                               math.nextafter(float(err), math.inf))
        return self._float_cos


@lru_cache(maxsize=None)
def _order_data(order: int) -> _OrderData:
    if order < 1:
        raise ValueError(f"invalid cyclotomic order {order}")
    if order > MAX_ORDER:
        raise CyclotomicOrderError(
            f"order {order} exceeds the supported maximum {MAX_ORDER}"
        )
    return _OrderData(order)


def common_order(*orders: int) -> int:
    n = 1
    for o in orders:
        n = n * o // math.gcd(n, o)
        if n > MAX_ORDER:
            raise CyclotomicOrderError(
                f"combined order {n} exceeds the supported maximum {MAX_ORDER}"
            )
    return n


@contextmanager
def iv_precision(bits: int) -> Iterator[None]:
    """Run a block with mpmath's interval context at the given precision.

    iv.prec is global state; this is the one place that sets and
    restores it.
    """
    old = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield
    finally:
        mpmath.iv.prec = old


@dataclass(frozen=True)
class SignedInterval:
    """A certified rational enclosure [lo, hi] computed at some precision."""

    lo: Fraction
    hi: Fraction
    precision: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def sign(self) -> int:
        """+1, -1, or 0 when the enclosure still straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi


def _iv_to_signed_interval(x, precision: int) -> SignedInterval:
    lo, hi = x._mpi_
    return SignedInterval(
        Fraction(*(int(v) for v in to_rational(lo))),
        Fraction(*(int(v) for v in to_rational(hi))),
        precision,
    )


class CyclotomicNumber:
    """(num_0 + num_1 x + ... ) / den in Q(zeta_order), x = zeta_order.

    num is a tuple of phi(order) Python ints in the power basis and den a
    positive int; the constructor divides out gcd(den, *num), so the
    representation is canonical within one order.  Arithmetic goes
    through the order's reduction table (see the module docstring).
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: Iterable[int], den: int = 1):
        od = _order_data(order)
        num = tuple(num)
        if len(num) != od.phi:
            raise ValueError(
                f"expected {od.phi} coefficients for order {order}, got {len(num)}"
            )
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CyclotomicNumber":
        f = Fraction(value)
        return cls(1, (f.numerator,), f.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls(order, (0,) * _order_data(order).phi)

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_order^k."""
        return cls(order, _order_data(order).powers((k,), (1,)).tolist())

    # -- structure ------------------------------------------------------

    def _substitute(self, order: int, m: int) -> "CyclotomicNumber":
        """The image under x -> x^m, as an element of Q(zeta_order)."""
        nonzero = [j for j, c in enumerate(self.num) if c]
        num = _order_data(order).powers([j * m for j in nonzero],
                                        [self.num[j] for j in nonzero])
        return CyclotomicNumber(order, num.tolist(), self.den)

    def embed(self, order: int) -> "CyclotomicNumber":
        """The same number viewed in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        return self._substitute(order, order // self.order)

    def _pair(self, other: "CyclotomicNumber"):
        if self.order == other.order:
            return self, other
        n = common_order(self.order, other.order)
        return self.embed(n), other.embed(n)

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "CyclotomicNumber", op) -> "CyclotomicNumber":
        """op(self, other) for op = operator.add or operator.sub.

        Two elements of one order with one denominator combine their
        numerators directly, with no embedding and no lcm.
        """
        a, b = self._pair(other)
        if a.den == b.den:
            return CyclotomicNumber(a.order, map(op, a.num, b.num), a.den)
        den = math.lcm(a.den, b.den)
        ka, kb = den // a.den, den // b.den
        return CyclotomicNumber(a.order, [op(x * ka, y * kb) for x, y in zip(a.num, b.num)], den)

    def __add__(self, other) -> "CyclotomicNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "CyclotomicNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __mul__(self, other) -> "CyclotomicNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a = self
        if a.order == 1:
            a, other = other, a
        if other.order == 1:  # a rational factor scales the numerator
            p = other.num[0]
            return CyclotomicNumber(a.order, [c * p for c in a.num], a.den * other.den)
        a, b = a._pair(other)
        conv = _int_convolve(a.num, b.num)
        num = _order_data(a.order).powers(slice(len(conv)), conv)
        return CyclotomicNumber(a.order, num.tolist(), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate (zeta -> zeta^-1)."""
        return self._substitute(self.order, -1)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def rational_value(self) -> Optional[Fraction]:
        if not any(self.num[1:]):
            return Fraction(self.num[0], self.den)
        return None

    def is_real(self) -> bool:
        return self.conjugate() == self

    def collapse(self) -> "CyclotomicNumber":
        """Drop to order 1 when the element is rational."""
        r = self.rational_value
        if r is not None and self.order != 1:
            return CyclotomicNumber.from_rational(r)
        return self

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # mutable-order equality; not usable as a dict key

    # -- numeric evaluation ----------------------------------------------

    def float_interval(self, bits: int = 64) -> SignedInterval:
        """Certified enclosure of the value under the identity real embedding."""
        if not self.is_real():
            raise ValueError("interval evaluation needs a real element")
        table = _order_data(self.order).cos_table(bits)
        ctx = mpmath.iv
        with iv_precision(bits):
            total = ctx.mpf(0)
            for c, cosv in zip(self.num, table):
                if c:
                    total += ctx.mpf(c) * cosv
            total /= ctx.mpf(self.den)
        return _iv_to_signed_interval(total, bits)

    def __float__(self) -> float:
        ivl = self.float_interval(64)
        return float(ivl.midpoint)

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.order}, num={self.num}, den={self.den})"


def _coerce(value) -> Union[CyclotomicNumber, type(NotImplemented)]:
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    return NotImplemented


def _int_convolve(a: tuple[int, ...], b: tuple[int, ...]) -> np.ndarray:
    dtype = _dtype(_height(a) * _height(b) * min(len(a), len(b)))
    return np.convolve(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))


def cosine_numerators(order: int, coeffs: np.ndarray,
                      exponents: Sequence[int]) -> np.ndarray:
    """Numerator rows of sum_j coeffs[i, j] cos(2*pi*exponents[j]/order)
    over the denominator 2.

    coeffs is an integer array, a vector or a matrix with one row per
    sum.  Each cosine is (x^e + x^(-e))/2 with x = zeta_order, so the
    sums are one table product in Q(zeta_order), with no product of
    elements and no embedding, and each numerator row is that of a real
    element by construction: x^e and x^(-e) always come together.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    return _order_data(order).powers(np.concatenate((exponents, -exponents)),
                                     np.concatenate((coeffs, coeffs), axis=-1))


def cosine_sum(order: int, terms: Iterable[tuple[int, int]],
               den: int = 1) -> CyclotomicNumber:
    """sum_i k_i cos(2*pi*e_i/order) / den over the (k_i, e_i) terms:
    the one-row case of cosine_numerators."""
    coeffs, exponents = zip(*terms)
    num = cosine_numerators(order, np.array(coeffs, dtype=object), exponents)
    return CyclotomicNumber(order, num.tolist(), 2 * den)


def angle_exponents(angles: Sequence[RationalAngle]) -> tuple[int, tuple[int, ...]]:
    """(N, e) with N = lcm(2*den) over the angles and angles[i] = 2*pi*e_i/N.

    cos of an integer combination of the angles is then cos(2*pi*e/N)
    with e the same combination of the e_i, a term of cosine_sum(N, ...).
    Raises CyclotomicOrderError when N exceeds MAX_ORDER.
    """
    order = common_order(*(2 * x.den for x in angles))
    return order, tuple(x.num * (order // (2 * x.den)) for x in angles)


@lru_cache(maxsize=None)
def cos_as_cyclotomic(theta: RationalAngle) -> CyclotomicNumber:
    """cos(theta) as an exact element of Q(zeta_{2*den}).

    Rational values collapse to order 1, e.g. cos(pi/3) -> 1/2.
    """
    return cosine_sum(2 * theta.den, ((1, theta.num),)).collapse()


@lru_cache(maxsize=None)
def exp_i(theta: RationalAngle) -> CyclotomicNumber:
    """e^(i*theta) = zeta_{2*den}^num as an exact cyclotomic."""
    return CyclotomicNumber.root_of_unity(2 * theta.den, theta.num).collapse()


def sin_as_cyclotomic(theta: RationalAngle) -> CyclotomicNumber:
    """sin(theta) = cos(theta - pi/2), exactly."""
    return cos_as_cyclotomic(theta - RationalAngle(1, 2))


def filter_signs(order: int, nums: np.ndarray) -> list[Optional[int]]:
    """Signs that the float64 filter proves, one per numerator row.

    nums is an integer array (int64 or object) whose rows are the
    numerators, in the power basis of Q(zeta_order), of real elements
    with positive denominators; realness is the caller's promise and is
    not checked.  A row gives 0 when it is zero (the exact test), +-1
    when the filter proves the sign, and None when it declines: an entry
    reaches 2^53, or |num . c| does not exceed the bound below.

    The value of a row is sum_j num_j cos(2*pi*j/N) / den.  With every
    |num_j| below 2^53 (so each converts to float64 exactly), the filter
    (Shewchuk 1997; Bronnimann, Burnikel and Pion 2001) computes
    S = num . c over the order's table (_OrderData.float_cos), whose
    entries are within E of the cosines.  The table error adds at most
    E * sum|num_j|, and by Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3, the float64 dot product of phi terms in any
    summation order, fused multiply-adds included, adds at most
    gamma_phi * sum|num_j c_j|, with gamma_n = n u / (1 - n u) and
    u = 2^-53.  The computed |num| . |c| understates that sum by at most
    a factor 1 - gamma_phi, which gamma_(phi+1) absorbs; a last factor
    1 + 16u covers the six roundings in forming the bound
    B = (E * sum|num_j| + gamma_(phi+1) * |num| . |c|)(1 + 16u).  So
    |S| > B decides the sign.  sum|num_j| is summed exactly.
    """
    absn = np.abs(nums)
    heights = absn.max(axis=1).tolist()
    signs: list[Optional[int]] = [None if h else 0 for h in heights]
    gated = [i for i, h in enumerate(heights) if 0 < h < _FLOAT_EXACT]
    if len(gated) < len(heights):
        nums, absn = nums[gated], absn[gated]
    if gated:
        c, err = _order_data(order).float_cos()
        n = len(c) + 1
        gamma = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
        l1 = absn.sum(axis=1, dtype=_dtype(max(heights) * n)).tolist()
        s = (nums.astype(np.float64) @ c).tolist()
        abs_dot = (absn.astype(np.float64) @ np.abs(c)).tolist()
        for i, si, li, ai in zip(gated, s, l1, abs_dot):
            if abs(si) > (err * li + gamma * ai) * (1 + 16 * _UNIT_ROUNDOFF):
                signs[i] = 1 if si > 0 else -1
    return signs


def sign(x: CyclotomicNumber) -> int:
    """Exact sign of a real cyclotomic number.

    The exact zero test decides the zero case outright, and an element
    that is not real raises ValueError.  Otherwise the float64 filter of
    filter_signs runs on the one numerator row.  When it declines,
    interval evaluation is refined (doubling precision from
    SIGN_START_BITS) until zero is excluded, which must happen for a
    nonzero algebraic number.
    """
    if x.is_zero():
        return 0
    if not x.is_real():
        raise ValueError("sign needs a real element")
    s, = filter_signs(x.order, np.array([x.num], dtype=_dtype(_height(x.num))))
    if s is not None:
        return s
    bits = SIGN_START_BITS
    while bits <= SIGN_MAX_BITS:
        s = x.float_interval(bits).sign
        if s:
            return s
        bits *= 2
    raise ArithmeticError("sign refinement exhausted precision budget")
