"""Exact trigonometric polynomials in up to two real parameters.

A TrigPoly is a finite sum  sum_i  gamma_i * cos(pi*A_i + B_i*t + C_i*u)
with rational gamma_i, A_i, B_i, C_i.  The class supports ring
operations (products rewritten by the product-to-sum rule), partial
derivatives, exact evaluation at rational multiples of pi (yielding a
cyclotomic number), rigorous interval evaluation over boxes, and an
exact identically-zero test.

The zero test groups terms by frequency pair (B, C).  Functions
cos(B*t + C*u + phase) with canonically distinct frequencies are
linearly independent, so the sum vanishes identically iff every group
does; a single group  sum_i gamma_i cos(pi*A_i + theta)  is the real
part of  (sum_i gamma_i e^{i pi A_i}) e^{i theta}  and vanishes for all
theta iff that cyclotomic weight is zero (for the constant group, iff
its real part is zero).  Every step stays in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from mpmath import iv

from .angles import RationalAngle
from .cyclotomic import (
    CyclotomicNumber,
    SignedInterval,
    _iv_to_signed_interval,
    cos_as_cyclotomic,
    exp_i,
    iv_precision,
)

Rat = Union[Fraction, int]


@dataclass(frozen=True)
class AngleForm:
    """A linear angle  pi_part*pi + t_part*t + u_part*u  with rational parts."""

    pi_part: Fraction = Fraction(0)
    t_part: Fraction = Fraction(0)
    u_part: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("pi_part", "t_part", "u_part"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

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
        k = Fraction(k)
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


class TrigPoly:
    """Immutable exact cosine series; see the module docstring."""

    __slots__ = ("terms",)

    terms: tuple[tuple[AngleForm, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[AngleForm, Rat]] = ()) -> None:
        merged: dict[AngleForm, Fraction] = {}
        for form, coeff in terms:
            key = _canonical_term(form)
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
        cleaned = tuple(
            sorted(
                ((k, v) for k, v in merged.items() if v != 0),
                key=lambda kv: (kv[0].t_part, kv[0].u_part, kv[0].pi_part),
            )
        )
        object.__setattr__(self, "terms", cleaned)

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
        return TrigPoly(self.terms + other.terms)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly((f, -c) for f, c in self.terms)

    def scale(self, k: Rat) -> "TrigPoly":
        k = Fraction(k)
        return TrigPoly((f, c * k) for f, c in self.terms)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out = []
        half = Fraction(1, 2)
        for f, c in self.terms:
            for g, d in other.terms:
                coeff = c * d * half
                out.append((f + g, coeff))
                out.append((f - g, coeff))
        return TrigPoly(out)

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

    def eval_exact(self, tau: Rat, mu: Rat = 0) -> CyclotomicNumber:
        """Exact value at t = tau*pi, u = mu*pi."""
        total = CyclotomicNumber.zero(1)
        for f, c in self.terms:
            angle = RationalAngle.from_fraction(f.value_in_pi_units(tau, mu))
            total = total + cos_as_cyclotomic(angle) * c
        return total

    def eval_interval(
        self,
        t_range: tuple[Rat, Rat],
        u_range: tuple[Rat, Rat] = (0, 0),
        precision: int = 64,
    ) -> SignedInterval:
        """Rigorous enclosure over t in t_range*pi, u in u_range*pi."""
        with iv_precision(precision):
            pi_iv = iv.pi
            t_iv = _frac_iv(t_range[0], t_range[1]) * pi_iv
            u_iv = _frac_iv(u_range[0], u_range[1]) * pi_iv
            total = iv.mpf(0)
            for f, c in self.terms:
                x = pi_iv * _frac_iv(f.pi_part, f.pi_part)
                if f.t_part:
                    x = x + t_iv * _frac_iv(f.t_part, f.t_part)
                if f.u_part:
                    x = x + u_iv * _frac_iv(f.u_part, f.u_part)
                total = total + iv.cos(x) * _frac_iv(c, c)
            return _iv_to_signed_interval(total, precision)

    def __float__(self) -> float:
        raise TypeError("evaluate with eval_exact or eval_interval")

    # -- structure ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f, _ in self.terms)

    def frequency_groups(self) -> Mapping[tuple[Fraction, Fraction], "TrigPoly"]:
        groups: dict[tuple[Fraction, Fraction], list] = {}
        for f, c in self.terms:
            groups.setdefault((f.t_part, f.u_part), []).append((f, c))
        return {key: TrigPoly(terms) for key, terms in groups.items()}

    def is_zero(self) -> bool:
        """Exact test for identical vanishing over all real t, u."""
        for (bt, cu), group in self.frequency_groups().items():
            weight = CyclotomicNumber.zero(1)
            for f, c in group.terms:
                weight = weight + exp_i(RationalAngle.from_fraction(f.pi_part)) * c
            if bt == 0 and cu == 0:
                real_part = (weight + weight.conjugate()) * Fraction(1, 2)
                if not real_part.is_zero():
                    return False
            else:
                if not weight.is_zero():
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


def _frac_iv(lo: Rat, hi: Rat):
    """Certified interval enclosure of [lo, hi] for rational endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([lo_iv.a, hi_iv.b])


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
    from .cyclotomic import sign as cyc_sign

    value = poly.eval_exact(x0)
    s = cyc_sign(value)
    if s > 0:
        return EndpointAnalysis(x0, "positive-value", 0, Fraction(0))
    if s < 0:
        raise PositivityError(f"negative value at endpoint t = {x0}*pi")

    deriv = poly
    for order in range(1, max_order + 1):
        deriv = deriv.derivative("t")
        s = cyc_sign(deriv.eval_exact(x0))
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
