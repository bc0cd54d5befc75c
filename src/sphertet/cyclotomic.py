"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, x, ..., x^(phi(N)-1) modulo the
N-th cyclotomic polynomial, with Fraction coefficients.  The reduction to
the power basis is canonical, so an element is zero iff its coefficient
vector is zero; every equality and sign decision in the package bottoms
out here.

cos(nu*pi/delta) lives in Q(zeta_{2*delta}) as (z^nu + z^(-nu))/2, which
is how rational angles enter the field.  Signs of nonzero real elements
are decided by certified interval evaluation at increasing precision
(mpmath's interval context, outward rounding), refined until zero is
excluded; is_zero is consulted first so the refinement terminates.

Multiplication clears denominators and convolves integer coefficient
vectors (numpy int64 when the magnitudes provably fit, exact Python ints
otherwise), then reduces with precomputed tables of x^k mod Phi_N.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Union

import mpmath
import numpy as np
from mpmath.libmp import to_rational

from .angles import RationalAngle

# Largest cyclotomic order the package will work in.  2520 = lcm(1..10)
# covers every angle denominator the searches and certificates produce.
MAX_ORDER = 2520

_INT64_SAFE = 1 << 62


class CyclotomicOrderError(ValueError):
    """Raised when an operation would need Q(zeta_N) with N > MAX_ORDER."""


def totient(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_d over proper divisors d | n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


class _OrderData:
    """Precomputed reduction data for one cyclotomic order."""

    def __init__(self, order: int):
        poly = cyclotomic_polynomial(order)
        self.order = order
        self.phi = len(poly) - 1
        self.poly = poly
        maxk = max(2 * self.phi - 2, order - 1, self.phi)
        rows: list[list[int]] = []
        low = [-c for c in poly[:-1]]  # x^phi in the power basis
        cur = low
        rows.append(cur)
        for _ in range(self.phi + 1, maxk + 1):
            top = cur[-1]
            shifted = [0] + cur[:-1]
            if top:
                cur = [s + top * l for s, l in zip(shifted, low)]
            else:
                cur = shifted
            rows.append(cur)
        self.row_max = max((max(map(abs, r)) for r in rows), default=1) or 1
        self.rows_int = rows
        if self.row_max < (1 << 40):
            self.rows_np = np.array(rows, dtype=np.int64)
        else:  # pragma: no cover - no order below MAX_ORDER hits this
            self.rows_np = None
        self._cos_tables: dict[int, list] = {}

    def basis_row(self, k: int) -> Iterable[int]:
        """x^(k mod order) expanded in the power basis, as ints."""
        k %= self.order
        if k < self.phi:
            row = [0] * self.phi
            row[k] = 1
            return row
        return self.rows_int[k - self.phi]

    def reduce_int_vector(self, vec) -> list[int]:
        """Reduce an integer coefficient vector (any length) mod Phi_N."""
        n = len(vec)
        if n <= self.phi:
            out = list(vec) + [0] * (self.phi - n)
            return [int(v) for v in out]
        if self.rows_np is not None:
            arr = np.asarray(vec)
            vmax = int(np.abs(arr).max()) if isinstance(vec, np.ndarray) else max(
                abs(int(v)) for v in vec
            )
            if vmax * self.row_max * (n - self.phi) < _INT64_SAFE:
                arr = arr.astype(np.int64)
                head = arr[: self.phi].copy()
                tail = arr[self.phi:]
                head += tail @ self.rows_np[: len(tail)]
                return [int(v) for v in head]
        head = [int(v) for v in vec[: self.phi]]
        for i, c in enumerate(vec[self.phi:]):
            if c:
                row = self.rows_int[i]
                c = int(c)
                for j in range(self.phi):
                    head[j] += c * row[j]
        return head

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


def _fraction_to_iv(f: Fraction, ctx):
    if f.denominator == 1:
        return ctx.mpf(f.numerator)
    return ctx.mpf(f.numerator) / ctx.mpf(f.denominator)


def mpf_to_fraction(x) -> Fraction:
    """Exact value of an mpf endpoint."""
    p, q = to_rational(x._mpf_)
    return Fraction(int(p), int(q))


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

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

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
    """An element of Q(zeta_order) in the power basis."""

    __slots__ = ("order", "coeffs", "_real")

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        od = _order_data(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != od.phi:
            raise ValueError(
                f"expected {od.phi} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CyclotomicNumber":
        return cls(1, (Fraction(value),))

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls(order, (Fraction(0),) * _order_data(order).phi)

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "CyclotomicNumber":
        """zeta_order^k."""
        od = _order_data(order)
        row = od.basis_row(k)
        return cls(order, (Fraction(v) for v in row))

    # -- structure ------------------------------------------------------

    def _scaled(self) -> tuple[int, list[int]]:
        den = math.lcm(*(c.denominator for c in self.coeffs)) if self.coeffs else 1
        vec = [int(c * den) for c in self.coeffs]
        return den, vec

    def embed(self, order: int) -> "CyclotomicNumber":
        """The same number viewed in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        od = _order_data(order)
        m = order // self.order
        out = [Fraction(0)] * od.phi
        for j, c in enumerate(self.coeffs):
            if c:
                for i, v in enumerate(od.basis_row(j * m)):
                    if v:
                        out[i] += c * v
        return CyclotomicNumber(order, out)

    def _pair(self, other: "CyclotomicNumber"):
        n = common_order(self.order, other.order)
        return self.embed(n), other.embed(n)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "CyclotomicNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return CyclotomicNumber(a.order, (x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, (-c for c in self.coeffs))

    def __sub__(self, other) -> "CyclotomicNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, (c * f for c in self.coeffs))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        od = _order_data(a.order)
        da, va = a._scaled()
        db, vb = b._scaled()
        conv = _int_convolve(va, vb)
        red = od.reduce_int_vector(conv)
        den = da * db
        return CyclotomicNumber(a.order, (Fraction(v, den) for v in red))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate (zeta -> zeta^-1)."""
        od = _order_data(self.order)
        out = [Fraction(0)] * od.phi
        for j, c in enumerate(self.coeffs):
            if c:
                for i, v in enumerate(od.basis_row(self.order - j if j else 0)):
                    if v:
                        out[i] += c * v
        return CyclotomicNumber(self.order, out)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def rational_value(self) -> Optional[Fraction]:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def is_rational(self) -> bool:
        return self.rational_value is not None

    def is_real(self) -> bool:
        memo = self._real
        if memo is None:
            memo = (self - self.conjugate()).is_zero()
            object.__setattr__(self, "_real", memo)
        return memo

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
        return (self - other).is_zero()

    __hash__ = None  # mutable-order equality; not usable as a dict key

    # -- numeric evaluation ----------------------------------------------

    def float_interval(self, bits: int = 64) -> SignedInterval:
        """Certified enclosure of the value under the identity real embedding."""
        if not self.is_real():
            raise ValueError("interval evaluation needs a real element")
        od = _order_data(self.order)
        ctx = mpmath.iv
        with iv_precision(bits):
            table = od.cos_table(bits)
            total = ctx.mpf(0)
            for c, cosv in zip(self.coeffs, table):
                if c:
                    total += _fraction_to_iv(c, ctx) * cosv
        return _iv_to_signed_interval(total, bits)

    def __float__(self) -> float:
        ivl = self.float_interval(64)
        return float(ivl.midpoint)

    def __repr__(self) -> str:
        return f"CyclotomicNumber(order={self.order}, coeffs={self.coeffs})"


def _coerce(value) -> Union[CyclotomicNumber, type(NotImplemented)]:
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    return NotImplemented


def _int_convolve(a: list[int], b: list[int]) -> list[int]:
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if ma * mb * min(len(a), len(b)) < _INT64_SAFE:
        conv = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        return [int(v) for v in conv]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cos_as_cyclotomic(theta: RationalAngle) -> CyclotomicNumber:
    """cos(theta) as an exact element of Q(zeta_{2*den}).

    Rational values collapse to order 1, e.g. cos(pi/3) -> 1/2.
    """
    order = 2 * theta.den
    od = _order_data(order)
    nu = theta.num % order
    out = [Fraction(0)] * od.phi
    for i, v in enumerate(od.basis_row(nu)):
        if v:
            out[i] += Fraction(v, 2)
    for i, v in enumerate(od.basis_row((order - nu) % order)):
        if v:
            out[i] += Fraction(v, 2)
    return CyclotomicNumber(order, out).collapse()


@lru_cache(maxsize=None)
def exp_i(theta: RationalAngle) -> CyclotomicNumber:
    """e^(i*theta) = zeta_{2*den}^num as an exact cyclotomic."""
    return CyclotomicNumber.root_of_unity(2 * theta.den, theta.num).collapse()


def sin_as_cyclotomic(theta: RationalAngle) -> CyclotomicNumber:
    """sin(theta) = cos(theta - pi/2), exactly."""
    return cos_as_cyclotomic(theta - RationalAngle(1, 2))


def is_zero(x: CyclotomicNumber) -> bool:
    """Exact zero test; canonical basis makes this a coefficient check."""
    return x.is_zero()


def sign(x: CyclotomicNumber, start_bits: int = 64, max_bits: int = 1 << 20) -> int:
    """Exact sign of a real cyclotomic number.

    is_zero decides the zero case outright; otherwise interval evaluation
    is refined (doubling precision) until zero is excluded, which must
    happen for a nonzero algebraic number.
    """
    if x.is_zero():
        return 0
    if not x.is_real():
        raise ValueError("sign is defined for real elements only")
    bits = start_bits
    while bits <= max_bits:
        s = x.float_interval(bits).sign
        if s:
            return s
        bits *= 2
    raise ArithmeticError("sign refinement exhausted precision budget")


def float_eval(x: CyclotomicNumber, bits: int = 64) -> SignedInterval:
    """Certified enclosure of the real embedding at the given precision."""
    return x.float_interval(bits)
