"""Angles that are rational multiples of pi, stored exactly.

An angle nu/delta * pi is kept as the reduced fraction nu/delta.  All
arithmetic stays in Fraction land; nothing here ever rounds.  The zero
angle (the "denominator infinity" degenerate case of a cosine grid) is
representable as 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

_Scalar = Union[int, Fraction]


@total_ordering
@dataclass(frozen=True)
class RationalAngle:
    """The angle (num/den) * pi with gcd(num, den) = 1 and den >= 1."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den == 0:
            raise ZeroDivisionError("angle denominator is zero")
        f = Fraction(self.num, self.den)
        object.__setattr__(self, "num", f.numerator)
        object.__setattr__(self, "den", f.denominator)

    @classmethod
    def from_fraction(cls, f: _Scalar) -> "RationalAngle":
        f = Fraction(f)
        return cls(f.numerator, f.denominator)

    @property
    def frac(self) -> Fraction:
        """The coefficient of pi."""
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        return math.pi * self.num / self.den

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle.from_fraction(self.frac + other.frac)

    def __sub__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle.from_fraction(self.frac - other.frac)

    def __neg__(self) -> "RationalAngle":
        return RationalAngle(-self.num, self.den)

    def __mul__(self, k: _Scalar) -> "RationalAngle":
        return RationalAngle.from_fraction(self.frac * k)

    __rmul__ = __mul__

    def __truediv__(self, k: _Scalar) -> "RationalAngle":
        return RationalAngle.from_fraction(self.frac / k)

    def __lt__(self, other: "RationalAngle") -> bool:
        return self.frac < other.frac

    def supplement(self) -> "RationalAngle":
        """pi minus this angle."""
        return RationalAngle.from_fraction(1 - self.frac)

    def explement(self) -> "RationalAngle":
        """2 pi minus this angle."""
        return RationalAngle.from_fraction(2 - self.frac)

    def is_zero(self) -> bool:
        return self.num == 0

    def in_open_0_pi(self) -> bool:
        return 0 < self.frac < 1

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
