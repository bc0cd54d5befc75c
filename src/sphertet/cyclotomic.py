"""Exact arithmetic in cyclotomic fields Q(zeta_N), on Python integers.

An element is one integer numerator vector over one positive integer
denominator: (num_0 + num_1 x + ... + num_{phi-1} x^(phi-1)) / den in the
power basis modulo the N-th cyclotomic polynomial Phi_N, with
gcd(den, *num) = 1.  The power basis is canonical, so this form is
unique: an element is zero iff its numerator vector is zero, and two
elements of one order are equal iff their (num, den) are.  Every
equality and sign decision in the package bottoms out here.

Packed rows.  Each order keeps the rows R[e] = x^e mod Phi_N for e < N,
each as one Python int whose balanced B-bit digits are its coefficients
(Kronecker substitution x -> 2^B): R[e] = sum_j r_j 2^(B j) with
|r_j| < 2^(B-1).  A linear combination sum_i k_i x^(e_i) is the one int
sum_i k_i R[e_i mod N], and its digits are its coefficients as long as
none reaches 2^(B-1): the table carries a proven bound on its entries,
and every combination checks bound * sum|k_i| < 2^(B-1) before it is
formed packed (and sums the unpacked rows in Python ints otherwise), so
a digit never wraps.  Balanced digits are unique, so a combination is
zero iff its int is 0, and two combinations of one order are equal iff
their ints are: the ints serve as exact hash keys (cosine_key).  Since
cos(2*pi*e/N) = (x^e + x^(-e))/2, a sum of cosines of angles that share
one field is one such combination, real by construction, with nothing
multiplied or embedded.  Embedding into Q(zeta_(m*N)) sends x^j to
x^(j*m) and conjugation sends x^j to x^(-j), both combinations too; a
product is one big-int product of the two numerators, packed at a width
that holds their convolution, reduced through the table.  Numerator
tuples are unpacked only when an element is built.  Only rad(N) rows
need a reduction: Phi_N(x) = Phi_rad(N)(x^s), s = N/rad(N), so
R[s q] has nonzero digits only at multiples of s, below phi, and
R[s q + j] = R[s q] shifted j digits for j < s.  A table builds the
rows R[s q] and makes each other row, one shift, when it is first read.

Signs.  Every sign reads one integer table: Z[e] within a proven d of
2^P cos(2*pi*e/N), e < N, at any P, from integers only (_cosine_table).
Each order keeps it at P = 96 as floats c[e] within E, and a cosine sum
sum_i k_i cos(2*pi*e_i/N) takes its sign from the float sum over c when
a proven bound on its error excludes zero (filter_signs); sign()
filters a real element's numerator, the sum with e_j = j.  Otherwise
float_interval, an integer dot product with Z, is refined until zero
is excluded.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .angles import RationalAngle, _fraction

# Largest cyclotomic order the package will work in.  2520 = lcm(1..10)
# covers every angle denominator the searches and certificates produce.
MAX_ORDER = 2520

# The digit widths, in bits, a reduction table may pack its rows into:
# an order takes the first whose digits hold sums of _SLOT_TERMS rows.
_SLOT_WIDTHS = (16, 32, 64)
_SLOT_TERMS = 256

# array typecodes of the unsigned machine integers, by width in bits.
_UNSIGNED = {array(code).itemsize * 8: code for code in "BHILQ"}

# When its float filter declines, sign() starts float_interval at
# this precision and doubles it up to the maximum.
SIGN_START_BITS = 64
SIGN_MAX_BITS = 1 << 20

# Bits of the integer table that the float filter rounds.
_FIXED_BITS = 96

# Unit roundoff of float64.  The filter only takes coefficients below
# _FLOAT_EXACT, so each converts to float exactly.
_UNIT_ROUNDOFF = 2.0 ** -53
_FLOAT_EXACT = 1 << 53

Terms = Sequence[tuple[int, int]]
"""(k, e) pairs: the coefficient k of x^e, or of cos(2*pi*e/N)."""


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

    Phi_n(x) = Phi_r(x^(n/r)) for the squarefree kernel r = rad(n): its
    coefficients placed at stride n/r.  Only a squarefree n is built,
    from Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), where mu(n/d) is nonzero
    only for n/d a product of distinct primes of n.  The binomials with
    mu = +1 are multiplied in, then those with mu = -1 divided out
    exactly; each step is one pass over the coefficients.
    """
    primes = _prime_factors(n)
    kernel = math.prod(primes)
    if kernel != n:
        stride = n // kernel
        poly = [0] * (stride * totient(kernel) + 1)
        poly[::stride] = cyclotomic_polynomial(kernel)
        return tuple(poly)
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


# -- packed integers ---------------------------------------------------------


def _pack(digits: Iterable[int], width: int) -> int:
    """sum_j digits[j] 2^(width*j): the packed form of the digits, which
    unpack again when every |digit| is below 2^(width-1)."""
    return sum(d << (width * j) for j, d in enumerate(digits))


@lru_cache(maxsize=None)
def _bias(width: int, count: int) -> int:
    """2^(width-1) in each of count digits."""
    return ((1 << (width * count)) - 1) // ((1 << width) - 1) << (width - 1)


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The count balanced width-bit digits of value, lowest first.

    Exact when value = sum_j d_j 2^(width*j) with every |d_j| below
    2^(width-1): adding 2^(width-1) to each digit makes them all unsigned
    width-bit digits, with no carry.  width is a multiple of 8.
    """
    data = (value + _bias(width, count)).to_bytes(width * count // 8, "little")
    code = _UNSIGNED.get(width)
    if code is None:
        step = width // 8
        digits = [int.from_bytes(data[i:i + step], "little")
                  for i in range(0, len(data), step)]
    else:
        digits = array(code, data)
        if sys.byteorder == "big":
            digits.byteswap()
    half = 1 << (width - 1)
    return [d - half for d in digits]


def _reduction_rows(poly: Sequence[int], order: int, stride: int, width: int
                    ) -> Optional[tuple[list[int], int]]:
    """(rows, bound): rows[q] = x^(s q) mod Phi_N packed in width-bit
    digits for q < N/s, s = stride = N/rad(N), and a bound on every
    |entry|; None when that bound reaches 2^(width-1) / _SLOT_TERMS.

    Phi_N(x) = Phi_rad(N)(x^s) has nonzero coefficients only at multiples
    of s, and so, by induction, does each row: x^(s q) = x^s * x^(s(q-1))
    moves the row up s digits, the one digit c that lands on x^phi is
    read off and folded back by subtracting c * Phi_N.  That changes each
    entry by at most |c| h, h the height of Phi_N, so 1 + h * sum|c|
    bounds every entry so far.  While it stays below 2^(width-1) no digit
    wraps and every c is read exactly.  The rows x^(s q + j), 0 < j < s,
    are these rows shifted j digits with no digit past x^(phi-1): the same
    entries, so the bound covers them too.
    """
    phi = len(poly) - 1
    height = max(map(abs, poly))
    fold = _pack(poly, width)
    top = width * phi
    half_top = 1 << (top - 1)
    limit = (1 << (width - 1)) // _SLOT_TERMS
    step = width * stride
    rows = [1 << (step * q) for q in range(phi // stride)]
    row, bound = rows[-1], 1
    for _ in range(len(rows), order // stride):
        row <<= step
        c = (row + half_top) >> top  # the digit at x^phi
        if c:
            row -= c * fold
            bound += abs(c) * height
            if bound >= limit:
                return None
        rows.append(row)
    return (rows, bound) if bound < limit else None


@lru_cache(maxsize=None)
def _pi_fixed(bits: int) -> tuple[int, int]:
    """(p, e) with |p - 2^bits pi| <= e, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).

    Nested floors give a_k = floor(2^bits / x^(2k+1)), so each term
    floor(a_k / (2k+1)) of atan(1/x) is off by less than 1, as is the
    alternating tail after the first a_K = 0: K + 1, times |c|.
    """
    p = e = 0
    for c, x in ((16, 5), (-4, 239)):
        a, k = (1 << bits) // x, 0
        while a:
            p += (-c if k & 1 else c) * (a // (2 * k + 1))
            a //= x * x
            k += 1
        e += abs(c) * (k + 1)
    return p, e


def _root_fixed(order: int, bits: int, k: int = 1) -> tuple[int, int, int]:
    """(x, y, e): x and y within e of 2^bits cos(2*pi*k/N) and
    sin(2*pi*k/N), for 0 <= k < N.

    T = floor(2kp/N), p of _pi_fixed, is within 2k e_pi / N + 1 < 2e_pi + 1
    of 2^bits 2pi k/N, and exp(i theta) is 1-Lipschitz, so that bound
    carries to x and y.  The terms U_j = floor(U_(j-1) T / (j 2^bits)) of
    exp(i T / 2^bits) are within E_j = ceil(E_(j-1) T / (j 2^bits)) + 1 of
    exact; once j 2^bits >= 2T the terms at least halve, so the tail after
    U_J = 0 is below U_J + E_J = E_J.
    """
    p, e = _pi_fixed(bits)
    t, one, e = 2 * k * p // order, 1 << bits, 2 * e + 1
    xy, u, err, j = [0, 0], one, 0, 0
    while True:
        xy[j & 1] += -u if j & 2 else u  # i^j t^j / j!
        e += err
        if not u and j * one >= 2 * t:
            return (*xy, e + err)
        j += 1  # floor(floor(a / 2^bits) / j) = floor(a / (j 2^bits))
        u = (u * t >> bits) // j
        err = -((-err * t >> bits) // j) + 1


@lru_cache(maxsize=None)
def _cosine_table(order: int, bits: int) -> tuple[tuple[int, ...], int]:
    """(Z, d): ints Z[e] within d of 2^P cos(2*pi*e/N) for every e < N, P = bits.

    _root_fixed at 64 + log2(P) guard bits, rounded to P, gives Z_1 = (x, y)
    within d_1 of w_1; the powers Z_j = floor(Z_(j-1) Z_1 / 2^P) are exact
    integer products.  With w_j = 2^P zeta^j, |Z_j - w_j| <= d_j by
    induction: Z_(j-1) Z_1 / 2^P = w_j + e_(j-1) w_1 / 2^P
    + w_(j-1) e_1 / 2^P + e_(j-1) e_1 / 2^P, |w_j| = 2^P, and the two
    floors add less than sqrt(2) < 2.  The guard bits keep d_1 <= 2, so
    each step adds at most 5.  The recurrence runs to j = N/2 for an odd
    N; for an even N only to j = floor(N/4), and the half turn
    cos(pi - t) = -cos t fills the rest, Z[N/2 - j] = -Z[j], with no
    further error.  So d < 5N/2 for an odd N and d < 5N/4 for an even
    one.  Z[N - j] = Z[j].
    """
    guard = bits.bit_length() + 64
    x, y, e = _root_fixed(order, bits + guard)
    z1 = [(v + (1 << (guard - 1))) >> guard for v in (x, y)]
    d1 = d = -(-(abs((z1[0] << guard) - x) + abs((z1[1] << guard) - y) + 2 * e) >> guard)
    x, y = z1
    half = order // 2
    steps = half if order % 2 else order // 4
    reals = [1 << bits, x][:steps + 1]  # Z_0 = 2^P exactly
    for _ in range(2, steps + 1):
        x, y = ((x * z1[0] - y * z1[1]) >> bits, (x * z1[1] + y * z1[0]) >> bits)
        d += d1 + (-(-d * d1 >> bits)) + 2
        reals.append(x)
    if not order % 2:
        reals += [-z for z in reals[half - steps - 1::-1]]
    return tuple(reals + reals[1:order - half][::-1]), d


class _OrderData:
    """The packed reduction table and the float cosine table of one order.

    rows[e] = x^e mod Phi_N for e < N, packed in width-bit digits, with
    every entry at most row_max in absolute value.  Only the rows at
    multiples of the stride s = N/rad(N) are built (_reduction_rows);
    rows[s q + j] is rows[s q] shifted j digits, and is None until row()
    first reads it.  cos[e] is within cos_err of cos(2*pi*e/N).
    """

    def __init__(self, order: int):
        poly = cyclotomic_polynomial(order)
        self.order = order
        self.phi = len(poly) - 1
        self.stride = order // math.prod(_prime_factors(order))
        for width in _SLOT_WIDTHS:
            built = _reduction_rows(poly, order, self.stride, width)
            if built is not None:
                break
        else:
            raise ArithmeticError(
                f"no digit width in {_SLOT_WIDTHS} holds x^e mod Phi_{order}")
        self.width = width
        kernel_rows, self.row_max = built
        self.rows: list[Optional[int]] = [None] * order
        self.rows[::self.stride] = kernel_rows
        # the 96-bit ints are read once here: round the uncached table
        table, d = _cosine_table.__wrapped__(order, _FIXED_BITS)
        scale, half = 1 << _FIXED_BITS, order // 2
        cos = [z / scale for z in table[:half + 1]]  # rounding adds <= 2^-53
        self.cos = cos + cos[1:order - half][::-1]  # the table's Z[N - j] = Z[j]
        err = Fraction(_UNIT_ROUNDOFF) + Fraction(d + 1, scale)
        self.cos_err = math.nextafter(float(err), math.inf)

    def row(self, e: int) -> int:
        """rows[e], 0 <= e < N, made from its kernel row on first read."""
        value = self.rows[e]
        if value is None:
            j = e % self.stride
            value = self.rows[e] = self.rows[e - j] << (self.width * j)
        return value

    def unpack(self, value: int) -> list[int]:
        """The numerator whose packed form (at the table's width) is value."""
        return _unpack(value, self.width, self.phi)

    def packed(self, terms: Terms) -> Optional[int]:
        """sum_i k_i x^(e_i) over the (k_i, e_i) terms, exponents mod N,
        packed at the table's width; None when the bound
        row_max * sum|k_i| < 2^(width-1) fails, as a digit could wrap."""
        if self.row_max * sum(abs(k) for k, _ in terms) >> (self.width - 1):
            return None
        rows, n = self.rows, self.order
        try:
            return sum(k * rows[e % n] for k, e in terms)
        except TypeError:  # k * None: a row not yet made
            for _, e in terms:
                self.row(e % n)
            return sum(k * rows[e % n] for k, e in terms)

    def powers(self, terms: Terms) -> list[int]:
        """Numerator of sum_i k_i x^(e_i) over the (k_i, e_i) terms: one
        packed sum when the bound allows it, else the unpacked rows summed
        in Python ints."""
        value = self.packed(terms)
        if value is not None:
            return self.unpack(value)
        num = [0] * self.phi
        for k, e in terms:
            for j, r in enumerate(self.unpack(self.row(e % self.order))):
                num[j] += k * r
        return num


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


def _check_bits(value, least: int, what: str) -> None:
    """The one guard of an interval precision: value is an int >= least."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an int >= {least}, got {value!r}")


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
        return self.lo <= _fraction(value, "interval member") <= self.hi


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
        f = _fraction(value, "rational value")
        return cls(1, (f.numerator,), f.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls(order, (0,) * _order_data(order).phi)

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_order^k."""
        return cls(order, _order_data(order).powers(((1, k),)))

    # -- structure ------------------------------------------------------

    def embed(self, order: int) -> "CyclotomicNumber":
        """The same number viewed in Q(zeta_order); order must be a
        multiple: the image under x -> x^m, m = order / self.order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        m = order // self.order
        num = _order_data(order).powers([(c, j * m) for j, c in enumerate(self.num) if c])
        return CyclotomicNumber(order, num, self.den)

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
        """The product: the two numerators packed at a width that holds
        every entry of their convolution (each at most
        max|a| * max|b| * phi), one big-int product, and the product's
        digits reduced through the table."""
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
        od = _order_data(a.order)
        bound = max(map(abs, a.num)) * max(map(abs, b.num)) * od.phi
        width = 8
        while bound >> (width - 1):
            width *= 2
        conv = _unpack(_pack(a.num, width) * _pack(b.num, width), width, 2 * od.phi - 1)
        num = od.powers([(c, k) for k, c in enumerate(conv) if c])
        return CyclotomicNumber(a.order, num, a.den * b.den)

    __rmul__ = __mul__

    def _conjugate_num(self) -> list[int]:
        """The numerator of the image under x^j -> x^(-j): the combination
        sum_j num_j x^(-j), formed by the table like any other."""
        return _order_data(self.order).powers([(c, -j) for j, c in enumerate(self.num) if c])

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate (zeta -> zeta^-1)."""
        return CyclotomicNumber(self.order, self._conjugate_num(), self.den)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def rational_value(self) -> Optional[Fraction]:
        if not any(self.num[1:]):
            return Fraction(self.num[0], self.den)
        return None

    def is_real(self) -> bool:
        """Whether the element equals its conjugate: one comparison of the
        numerator with its image under x^j -> x^(-j), building no element."""
        return self._conjugate_num() == list(self.num)

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
        """Certified enclosure (S -+ d sum_(j>0) |num_j|) / (den 2^P) of a
        real element, S = num . Z at P = bits + log2(5N): Z[0] = 2^P, the
        rest within d < 5N/2, so width <= 2^-bits sum|num_j| / den.  bits
        must be an int of at least one (ValueError otherwise)."""
        _check_bits(bits, 1, "bits")
        if not self.is_real():
            raise ValueError("interval evaluation needs a real element")
        precision = bits + (5 * self.order).bit_length()
        table, d = _cosine_table(self.order, precision)
        total = sum(map(operator.mul, self.num, table))
        slack = d * sum(map(abs, self.num[1:]))
        scale = self.den << precision
        return SignedInterval(Fraction(total - slack, scale), Fraction(total + slack, scale), bits)

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


# -- cosine sums ---------------------------------------------------------------


def _cosine_powers(terms: Terms) -> list[tuple[int, int]]:
    """k cos(2*pi*e/N) = k (x^e + x^(-e)) / 2: the terms over 2 in powers
    of x, so every sum pairs x^e with x^(-e) and is real by construction."""
    return [t for k, e in terms for t in ((k, e), (k, -e))]


def cosine_numerator(order: int, terms: Terms) -> list[int]:
    """Numerator over 2 of sum_i k_i cos(2*pi*e_i/order) over the (k_i,
    e_i) terms: one packed table sum in Q(zeta_order), with no product of
    elements and no embedding."""
    return _order_data(order).powers(_cosine_powers(terms))


def cosine_key(order: int, terms: Terms) -> int:
    """The packed numerator over 2 of sum_i k_i cos(2*pi*e_i/order).

    Keys of one order are equal exactly when the sums are, and a sum is
    zero exactly when its key is 0.  Raises
    ArithmeticError when the coefficients are too large for the table's
    digits, as the packed sum would not be canonical.
    """
    value = _order_data(order).packed(_cosine_powers(terms))
    if value is None:
        raise ArithmeticError(f"cosine sum too large for a key of order {order}")
    return value


def cosine_sum(order: int, terms: Terms, den: int = 1) -> CyclotomicNumber:
    """sum_i k_i cos(2*pi*e_i/order) / den over the (k_i, e_i) terms."""
    return CyclotomicNumber(order, cosine_numerator(order, terms), 2 * den)


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


# -- signs ---------------------------------------------------------------------


def filter_signs(order: int, sums: Sequence[Terms]) -> list[Optional[int]]:
    """Signs that the float filter proves, one per cosine sum.

    Each sum is a sequence of (k_i, e_i) terms with value
    S = sum_i k_i cos(2*pi*e_i/order).  A sum gives +-1 when the filter
    proves its sign and None when it declines: a coefficient reaches
    2^53, or |S~| does not exceed the bound below.  A zero sum is always
    declined; its exact test is the caller's.

    With every |k_i| below 2^53 (so each converts to float64 exactly), the
    filter (Shewchuk 1997; Bronnimann, Burnikel and Pion 2001) computes
    S~ = sum_i k_i c[e_i] in order over the order's table
    (_OrderData.cos), whose entries are within E of the cosines.  The
    table error adds at most E * sum|k_i|, and by Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 3, the float64 dot product of
    n terms adds at most gamma_n * sum|k_i c_i|, with
    gamma_n = n u / (1 - n u) and u = 2^-53.  The computed sum of
    |k_i c_i| understates that sum by at most a factor 1 - gamma_n, which
    gamma_(n+1) absorbs; a last factor 1 + 16u covers the six roundings
    in forming the bound
    B = (E * sum|k_i| + gamma_(n+1) * sum|k_i c_i|)(1 + 16u).  So
    |S~| > B decides the sign.  sum|k_i| is summed exactly.
    """
    od = _order_data(order)
    c, n, err = od.cos, order, od.cos_err
    signs: list[Optional[int]] = []
    for terms in sums:
        total = size = 0.0
        l1 = 0
        for k, e in terms:
            if not -_FLOAT_EXACT < k < _FLOAT_EXACT:
                signs.append(None)
                break
            term = k * c[e % n]
            total += term
            size += abs(term)
            l1 += abs(k)
        else:
            m = len(terms) + 1
            gamma = m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)
            bound = (err * l1 + gamma * size) * (1 + 16 * _UNIT_ROUNDOFF)
            signs.append(None if abs(total) <= bound else 1 if total > 0 else -1)
    return signs


def sign(x: CyclotomicNumber) -> int:
    """Exact sign of a real cyclotomic number.

    The exact zero test decides the zero case outright, and an element
    that is not real raises ValueError.  Otherwise the float filter of
    filter_signs runs on the numerator as the cosine sum
    sum_j num_j cos(2*pi*j/N), the value times den.  When it declines,
    float_interval, from the same integer cosine table, is refined
    (doubling precision from SIGN_START_BITS) until zero is excluded,
    which must happen for a nonzero algebraic number.
    """
    if x.is_zero():
        return 0
    if not x.is_real():
        raise ValueError("sign needs a real element")
    s, = filter_signs(x.order, [[(c, j) for j, c in enumerate(x.num) if c]])
    if s is not None:
        return s
    bits = SIGN_START_BITS
    while bits <= SIGN_MAX_BITS:
        s = x.float_interval(bits).sign
        if s:
            return s
        bits *= 2
    raise ArithmeticError("sign refinement exhausted precision budget")
