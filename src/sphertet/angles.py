"""Angles that are rational multiples of pi, stored exactly.

An angle nu/delta * pi is kept as the reduced integer pair (nu, delta)
with delta > 0.  Comparisons cross-multiply and sums, differences and
quotients by integers work on the pair directly, with one gcd to
reduce; nothing here ever rounds, and no float is accepted as an
operand.  The zero angle (the "denominator infinity" degenerate case of
a cosine grid) is representable as 0/1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

_Scalar = Union[int, Fraction]


def _rational(value, what: str) -> numbers.Rational:
    """value itself when it is exact (int or Fraction), else TypeError."""
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")
    return value


@total_ordering
@dataclass(frozen=True)
class RationalAngle:
    """The angle (num/den) * pi with gcd(num, den) = 1 and den >= 1."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if not (isinstance(num, int) and isinstance(den, int)):
            f = Fraction(_rational(num, "angle numerator"),
                         _rational(den, "angle denominator"))
            num, den = f.numerator, f.denominator
        elif den == 0:
            raise ZeroDivisionError("angle denominator is zero")
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        if g != 1:
            num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fraction(cls, f: _Scalar) -> "RationalAngle":
        f = _rational(f, "angle coefficient")
        return cls(f.numerator, f.denominator)

    @property
    def frac(self) -> Fraction:
        """The coefficient of pi."""
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        return math.pi * self.num / self.den

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return RationalAngle(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __sub__(self, other: "RationalAngle") -> "RationalAngle":
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return RationalAngle(self.num * other.den - other.num * self.den,
                             self.den * other.den)

    def __neg__(self) -> "RationalAngle":
        return RationalAngle(-self.num, self.den)

    def __mul__(self, k: _Scalar) -> "RationalAngle":
        k = _rational(k, "angle factor")
        return RationalAngle(self.num * k.numerator, self.den * k.denominator)

    __rmul__ = __mul__

    def __truediv__(self, k: _Scalar) -> "RationalAngle":
        k = _rational(k, "angle divisor")
        return RationalAngle(self.num * k.denominator, self.den * k.numerator)

    def __lt__(self, other: "RationalAngle") -> bool:
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def supplement(self) -> "RationalAngle":
        """pi minus this angle."""
        return RationalAngle(self.den - self.num, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def in_open_0_pi(self) -> bool:
        return 0 < self.num < self.den

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.den == 1:
            return "pi" if self.num == 1 else f"{self.num}pi"
        head = "" if self.num == 1 else str(self.num)
        return f"{head}pi/{self.den}"


PI = RationalAngle(1)
HALF_PI = RationalAngle(1, 2)
ZERO = RationalAngle(0)


def angle(num: int, den: int = 1) -> RationalAngle:
    """Shorthand constructor used all over the test-suite."""
    return RationalAngle(num, den)


def frac_obj(f: _Scalar) -> dict:
    """The JSON form {"num": int, "den": int} of an exact fraction."""
    f = Fraction(f)
    return {"num": f.numerator, "den": f.denominator}


def obj_frac(d: dict) -> Fraction:
    """The exact fraction of its JSON form {"num": int, "den": int}."""
    return Fraction(d["num"], d["den"])
