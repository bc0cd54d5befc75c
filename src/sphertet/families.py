"""The continuous families of Pythagorean-realizable dihedral angles.

Each family assigns the four angles (p, q, r, s) linear expressions
alpha*pi + beta*t + gamma*u in one or two parameters.  Thirty-four
one-parameter families live on the segment 0 <= t <= pi/6; eight
two-parameter families live on one of two triangular regions:

    region A:  0 <= u <= pi/2,  0 <= t <= pi,    t >= u
    region B:  0 <= u <= pi,    0 <= t <= pi/2,  t <= u

subject to the extra realizability bound t + u <= pi.  The printed
triangles also hold the strip t + u > pi, which carries no tetrahedra;
the bound comes out of the domain certificate, since family 35's first
Gram sum is 2 cos((t+u)/2) sin((t-u)/2), negative once t + u > pi.

For every family the module can verify exactly, in cyclotomic
arithmetic, that (a) the four-cosine residual vanishes identically in
the parameters, (b) the tabulated volume polynomial agrees with the
volume formula applied to the angle expressions, and (c) every point of
the open domain is a realizable tetrahedron: each of the four cosine
sums of geometry.realizability (gram_sums) is positive there, which
makes the Gram matrix positive definite.  For one parameter the proof
is Taylor strips at degenerate endpoints plus adaptive interval
bisection; for two it is an exact sum-to-product identity
2|c| cos X cos Y and the sign of each factor, read off the range of its
linear argument over the region's vertices.

Membership is decided by an index built once, on first use.  Each
family's angle map x = alpha + tau*beta + mu*gamma (x = (p, q, r, s) in
pi units) is inverted: its directions have full rank, so a point of the
family's line or plane determines tau and mu as affine functions of one
or two fixed coordinates.  The 42 rows fall into 18 spans of their
directions (16 lines carrying the 34 segment rows, 2 planes carrying
the 8 two-parameter rows), and within a span they are keyed by alpha
projected along it, in integers over one denominator.  A quadruple is
on a family exactly when its own projection has that family's key, so
finding its families costs one projection and one dict lookup per span
and per coordinate swap tried.

Families come in twin pairs related by swapping r and s; both members
are kept because the tables list them separately, and membership tests
always try all coordinate swaps, so deduplication is never load-bearing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, NamedTuple, Optional, Sequence, Union

from .angles import RationalAngle, frac_obj
from .geometry import PythagoreanQuadruple, VolumeCoefficient, volume
from .trigpoly import (
    AngleForm,
    PositivityError,
    PositivityWitness,
    TrigPoly,
    positive_on_open_interval,
)

Rat = Union[Fraction, int]

DOMAIN_SEGMENT = "segment"
DOMAIN_A = "A"
DOMAIN_B = "B"

SEGMENT_END = Fraction(1, 6)  # in units of pi

# Closed realizable parameter regions, as vertex lists in pi units.
# Both triangles already include the t + u <= pi tightening.
_REGION_VERTICES = {
    DOMAIN_A: ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(1, 2), Fraction(1, 2))),
    DOMAIN_B: ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
               (Fraction(1, 2), Fraction(1, 2))),
}


@dataclass(frozen=True)
class VolumeForm:
    """Quadratic polynomial c_tt*t^2 + c_tu*t*u + c_uu*u^2 + c_t*pi*t
    + c_u*pi*u + c_1*pi^2, as a volume in the parameters."""

    c_tt: Fraction = Fraction(0)
    c_tu: Fraction = Fraction(0)
    c_uu: Fraction = Fraction(0)
    c_t: Fraction = Fraction(0)
    c_u: Fraction = Fraction(0)
    c_1: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("c_tt", "c_tu", "c_uu", "c_t", "c_u", "c_1"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def evaluate(self, tau: Rat, mu: Rat = 0) -> Fraction:
        """Value in units of pi^2 at t = tau*pi, u = mu*pi."""
        tau, mu = Fraction(tau), Fraction(mu)
        return (self.c_tt * tau * tau + self.c_tu * tau * mu
                + self.c_uu * mu * mu + self.c_t * tau + self.c_u * mu
                + self.c_1)

    def __add__(self, other: "VolumeForm") -> "VolumeForm":
        return VolumeForm(*(a + b for a, b in zip(self._coeffs(), other._coeffs())))

    def scale(self, k: Rat) -> "VolumeForm":
        k = Fraction(k)
        return VolumeForm(*(a * k for a in self._coeffs()))

    def _coeffs(self) -> tuple[Fraction, ...]:
        return (self.c_tt, self.c_tu, self.c_uu, self.c_t, self.c_u, self.c_1)

    @classmethod
    def square_of(cls, f: AngleForm) -> "VolumeForm":
        a, b, c = f.pi_part, f.t_part, f.u_part
        return cls(b * b, 2 * b * c, c * c, 2 * a * b, 2 * a * c, a * a)

    @classmethod
    def pi_times(cls, f: AngleForm) -> "VolumeForm":
        return cls(0, 0, 0, f.t_part, f.u_part, f.pi_part)


def volume_form_from_angles(p: AngleForm, q: AngleForm,
                            r: AngleForm, s: AngleForm) -> VolumeForm:
    """The tetrahedron volume as a polynomial in the parameters.

    Expands Vol = (pi*r - r^2/2 + p^2 + q^2 + pi*s - s^2/2 - pi^2) / 2
    with the angles substituted by their linear forms.
    """
    total = VolumeForm.pi_times(r)
    total = total + VolumeForm.square_of(r).scale(Fraction(-1, 2))
    total = total + VolumeForm.square_of(p)
    total = total + VolumeForm.square_of(q)
    total = total + VolumeForm.pi_times(s)
    total = total + VolumeForm.square_of(s).scale(Fraction(-1, 2))
    total = total + VolumeForm(c_1=Fraction(-1))
    return total.scale(Fraction(1, 2))


@dataclass(frozen=True)
class FamilySpec:
    """One row of the family catalog."""

    family_id: int
    p: AngleForm
    q: AngleForm
    r: AngleForm
    s: AngleForm
    vol: VolumeForm
    domain: str  # DOMAIN_SEGMENT, DOMAIN_A, or DOMAIN_B
    twin_id: int

    @property
    def two_param(self) -> bool:
        return self.domain != DOMAIN_SEGMENT

    @property
    def angle_forms(self) -> tuple[AngleForm, AngleForm, AngleForm, AngleForm]:
        return (self.p, self.q, self.r, self.s)

    def contains_parameters(self, tau: Rat, mu: Rat = 0) -> bool:
        """Closed-domain test in pi units (with the t + u tightening)."""
        tau, mu = Fraction(tau), Fraction(mu)
        if self.domain == DOMAIN_SEGMENT:
            return mu == 0 and 0 <= tau <= SEGMENT_END
        if self.domain == DOMAIN_A:
            return 0 <= mu <= tau and tau + mu <= 1
        return 0 <= tau <= mu and tau + mu <= 1

    @cached_property
    def _inverse(self) -> "_FamilyInverse":
        """The angle map inverted (computed once per spec)."""
        return _invert(self)

    def interior_parameters(self, tau: Rat, mu: Rat = 0) -> bool:
        tau, mu = Fraction(tau), Fraction(mu)
        if self.domain == DOMAIN_SEGMENT:
            return mu == 0 and 0 < tau < SEGMENT_END
        if self.domain == DOMAIN_A:
            return 0 < mu < tau and tau + mu < 1
        return 0 < tau < mu and tau + mu < 1


def _form(alpha, beta=0, gamma=0) -> AngleForm:
    return AngleForm(Fraction(alpha), Fraction(beta), Fraction(gamma))


def _vol(c_tt=0, c_t=0, c_1=0, c_tu=0, c_uu=0, c_u=0) -> VolumeForm:
    return VolumeForm(Fraction(c_tt), Fraction(c_tu), Fraction(c_uu),
                      Fraction(c_t), Fraction(c_u), Fraction(c_1))


_F = Fraction

# (id, p, q, r, s, volume, twin).  Angles are (alpha, beta[, gamma]) for
# alpha*pi + beta*t [+ gamma*u]; volumes are (c_tt, c_t, c_1) for the
# one-parameter rows.
_SEGMENT_ROWS = (
    (1, (_F(1, 2), 1), (_F(1, 2),), (_F(1, 2),), (_F(1, 2),),
     _vol(_F(1, 2), _F(1, 2), _F(1, 8)), 1),
    (2, (_F(3, 4), _F(-1, 2)), (_F(1, 4), _F(-1, 2)), (_F(1, 3), -1), (_F(1, 3), 1),
     _vol(_F(-1, 4), _F(-1, 2), _F(13, 144)), 22),
    (3, (_F(1, 2), 1), (_F(1, 2),), (_F(1, 3), 1), (_F(2, 3), -1),
     _vol(0, _F(2, 3), _F(1, 9)), 33),
    (4, (_F(1, 2),), (_F(1, 6), 1), (_F(2, 3), -1), (_F(1, 3), 1),
     _vol(0, _F(1, 3), 0), 24),
    (5, (_F(2, 3), -1), (_F(1, 3),), (_F(1, 3), 1), (_F(1, 2),),
     _vol(_F(1, 4), _F(-1, 3), _F(5, 48)), 28),
    (6, (_F(1, 2),), (_F(1, 2), -1), (_F(1, 3), 1), (_F(2, 3), -1),
     _vol(0, _F(-1, 3), _F(1, 9)), 23),
    (7, (_F(1, 3), 1), (_F(1, 3),), (_F(1, 2),), (_F(2, 3), -1),
     _vol(_F(1, 4), _F(1, 6), _F(1, 48)), 27),
    (8, (_F(2, 3),), (_F(1, 3), -1), (_F(1, 2),), (_F(1, 3), -1),
     _vol(_F(1, 4), _F(-2, 3), _F(5, 48)), 32),
    (9, (_F(2, 3),), (_F(1, 3), 1), (_F(1, 3), 1), (_F(1, 2),),
     _vol(_F(1, 4), _F(2, 3), _F(5, 48)), 21),
    (10, (_F(1, 2),), (_F(1, 2), -1), (_F(1, 3), -1), (_F(2, 3), 1),
     _vol(0, _F(-2, 3), _F(1, 9)), 30),
    (11, (_F(1, 4), _F(1, 2)), (_F(1, 4), _F(-1, 2)), (_F(2, 3), 1), (_F(2, 3), -1),
     _vol(_F(-1, 4), 0, _F(1, 144)), 18),
    (12, (_F(1, 2), 1), (_F(1, 2),), (_F(1, 3), -1), (_F(2, 3), 1),
     _vol(0, _F(1, 3), _F(1, 9)), 25),
    (13, (_F(1, 2),), (_F(1, 6), 1), (_F(1, 2),), (_F(1, 2),),
     _vol(_F(1, 2), _F(1, 6), _F(1, 72)), 13),
    (14, (_F(1, 2),), (_F(1, 2), -1), (_F(1, 2),), (_F(1, 2),),
     _vol(_F(1, 2), _F(-1, 2), _F(1, 8)), 14),
    (15, (_F(1, 3),), (_F(1, 3), -1), (_F(2, 3), 1), (_F(1, 2),),
     _vol(_F(1, 4), _F(-1, 6), _F(1, 48)), 29),
    (16, (_F(3, 4), _F(1, 2)), (_F(1, 4), _F(1, 2)), (_F(1, 3), -1), (_F(1, 3), 1),
     _vol(_F(-1, 4), _F(1, 2), _F(13, 144)), 17),
    (17, (_F(3, 4), _F(1, 2)), (_F(1, 4), _F(1, 2)), (_F(1, 3), 1), (_F(1, 3), -1),
     _vol(_F(-1, 4), _F(1, 2), _F(13, 144)), 16),
    (18, (_F(1, 4), _F(1, 2)), (_F(1, 4), _F(-1, 2)), (_F(2, 3), -1), (_F(2, 3), 1),
     _vol(_F(-1, 4), 0, _F(1, 144)), 11),
    (19, (_F(2, 3), 1), (_F(1, 3),), (_F(1, 3), -1), (_F(1, 2),),
     _vol(_F(1, 4), _F(1, 3), _F(5, 48)), 31),
    (20, (_F(1, 2),), (_F(1, 6), -1), (_F(1, 2),), (_F(1, 2),),
     _vol(_F(1, 2), _F(-1, 6), _F(1, 72)), 20),
    (21, (_F(2, 3),), (_F(1, 3), 1), (_F(1, 2),), (_F(1, 3), 1),
     _vol(_F(1, 4), _F(2, 3), _F(5, 48)), 9),
    (22, (_F(3, 4), _F(-1, 2)), (_F(1, 4), _F(-1, 2)), (_F(1, 3), 1), (_F(1, 3), -1),
     _vol(_F(-1, 4), _F(-1, 2), _F(13, 144)), 2),
    (23, (_F(1, 2),), (_F(1, 2), -1), (_F(2, 3), -1), (_F(1, 3), 1),
     _vol(0, _F(-1, 3), _F(1, 9)), 6),
    (24, (_F(1, 2),), (_F(1, 6), 1), (_F(1, 3), 1), (_F(2, 3), -1),
     _vol(0, _F(1, 3), 0), 4),
    (25, (_F(1, 2), 1), (_F(1, 2),), (_F(2, 3), 1), (_F(1, 3), -1),
     _vol(0, _F(1, 3), _F(1, 9)), 12),
    (26, (_F(3, 4), _F(1, 2)), (_F(3, 4), _F(-1, 2)), (_F(2, 3), -1), (_F(2, 3), 1),
     _vol(_F(-1, 4), 0, _F(73, 144)), 34),
    (27, (_F(1, 3), 1), (_F(1, 3),), (_F(2, 3), -1), (_F(1, 2),),
     _vol(_F(1, 4), _F(1, 6), _F(1, 48)), 7),
    (28, (_F(2, 3), -1), (_F(1, 3),), (_F(1, 2),), (_F(1, 3), 1),
     _vol(_F(1, 4), _F(-1, 3), _F(5, 48)), 5),
    (29, (_F(1, 3),), (_F(1, 3), -1), (_F(1, 2),), (_F(2, 3), 1),
     _vol(_F(1, 4), _F(-1, 6), _F(1, 48)), 15),
    (30, (_F(1, 2),), (_F(1, 2), -1), (_F(2, 3), 1), (_F(1, 3), -1),
     _vol(0, _F(-2, 3), _F(1, 9)), 10),
    (31, (_F(2, 3), 1), (_F(1, 3),), (_F(1, 2),), (_F(1, 3), -1),
     _vol(_F(1, 4), _F(1, 3), _F(5, 48)), 19),
    (32, (_F(2, 3),), (_F(1, 3), -1), (_F(1, 3), -1), (_F(1, 2),),
     _vol(_F(1, 4), _F(-2, 3), _F(5, 48)), 8),
    (33, (_F(1, 2), 1), (_F(1, 2),), (_F(2, 3), -1), (_F(1, 3), 1),
     _vol(0, _F(2, 3), _F(1, 9)), 3),
    (34, (_F(3, 4), _F(1, 2)), (_F(3, 4), _F(-1, 2)), (_F(2, 3), 1), (_F(2, 3), -1),
     _vol(_F(-1, 4), 0, _F(73, 144)), 26),
)

# Two-parameter rows: angles are (alpha, beta, gamma); volume includes
# the u columns.
_TWO_PARAM_ROWS = (
    (35, (_F(1, 2), 0, 0), (_F(1, 2), 0, -1), (1, -1, 0), (0, 1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(-1, 2)), DOMAIN_A, 36),
    (36, (_F(1, 2), 0, 0), (_F(1, 2), 0, -1), (0, 1, 0), (1, -1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(-1, 2)), DOMAIN_A, 35),
    (37, (_F(1, 2), 0, 1), (_F(1, 2), 0, 0), (1, -1, 0), (0, 1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(1, 2)), DOMAIN_A, 38),
    (38, (_F(1, 2), 0, 1), (_F(1, 2), 0, 0), (0, 1, 0), (1, -1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(1, 2)), DOMAIN_A, 37),
    (39, (_F(1, 2), 0, 0), (_F(1, 2), -1, 0), (1, 0, -1), (0, 0, 1),
     _vol(_F(1, 2), _F(-1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 40),
    (40, (_F(1, 2), 0, 0), (_F(1, 2), -1, 0), (0, 0, 1), (1, 0, -1),
     _vol(_F(1, 2), _F(-1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 39),
    (41, (_F(1, 2), 1, 0), (_F(1, 2), 0, 0), (1, 0, -1), (0, 0, 1),
     _vol(_F(1, 2), _F(1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 42),
    (42, (_F(1, 2), 1, 0), (_F(1, 2), 0, 0), (0, 0, 1), (1, 0, -1),
     _vol(_F(1, 2), _F(1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 41),
)


@lru_cache(maxsize=1)
def builtin_families() -> tuple[FamilySpec, ...]:
    out = []
    for fid, p, q, r, s, vol, twin in _SEGMENT_ROWS:
        out.append(FamilySpec(fid, _form(*p), _form(*q), _form(*r), _form(*s),
                              vol, DOMAIN_SEGMENT, twin))
    for fid, p, q, r, s, vol, dom, twin in _TWO_PARAM_ROWS:
        out.append(FamilySpec(fid, _form(*p), _form(*q), _form(*r), _form(*s),
                              vol, dom, twin))
    return tuple(out)


def family_by_id(family_id: int) -> FamilySpec:
    for fam in builtin_families():
        if fam.family_id == family_id:
            return fam
    raise KeyError(f"no family {family_id}")


# -- exact verification -------------------------------------------------


def residual_poly(fam: FamilySpec) -> TrigPoly:
    """cos p cos q + cos((r+s)/2) cos((r-s)/2) as a TrigPoly."""
    half = Fraction(1, 2)
    plus = (fam.r + fam.s).scale(half)
    minus = (fam.r - fam.s).scale(half)
    return (TrigPoly.cos_of(fam.p) * TrigPoly.cos_of(fam.q)
            + TrigPoly.cos_of(plus) * TrigPoly.cos_of(minus))


def verify_identity(fam: FamilySpec) -> bool:
    """The defining equation holds identically in the parameters."""
    return residual_poly(fam).is_zero()


def verify_volume_form(fam: FamilySpec) -> bool:
    """The tabulated volume equals the volume formula, exactly."""
    derived = volume_form_from_angles(*fam.angle_forms)
    return derived._coeffs() == fam.vol._coeffs()


def gram_sums(fam: FamilySpec) -> tuple[TrigPoly, TrigPoly, TrigPoly, TrigPoly]:
    """The four cosine sums of geometry.realizability as TrigPolys.

    In the order S- - P, S- + P, S+ - Q, S+ + Q with
    S-+ = cos((r-s)/2) -+ cos((r+s)/2), P = cos p + cos q and
    Q = cos p - cos q; each has at most four terms.  Where all four are
    positive the Gram matrix is positive definite: S > |X| >= 0 gives
    (1 -+ cos r)(1 -+ cos s) = S^2 > X^2 with both factors positive, so
    both 2x2 blocks M+- are positive definite.
    """
    half = Fraction(1, 2)
    c_diff = TrigPoly.cos_of((fam.r - fam.s).scale(half))
    c_sum = TrigPoly.cos_of((fam.r + fam.s).scale(half))
    c_p, c_q = TrigPoly.cos_of(fam.p), TrigPoly.cos_of(fam.q)
    s_minus, s_plus = c_diff - c_sum, c_diff + c_sum
    return (s_minus - (c_p + c_q), s_minus + (c_p + c_q),
            s_plus - (c_p - c_q), s_plus + (c_p - c_q))


@dataclass(frozen=True)
class ProductWitness:
    """A sum equals 2|c| cos(x) cos(y) identically in (t, u), and over the
    closed region x and y (in pi units) range over x_range and y_range,
    each inside one [k - 1/2, k + 1/2] with the two k of equal parity, so
    the product is positive on the open region."""

    x: AngleForm
    y: AngleForm
    x_range: tuple[Fraction, Fraction]
    y_range: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DomainCertificate:
    """Proof record that the family's open domain is realizable: one
    witness per sum of gram_sums that the sum is positive there."""

    family_id: int
    mode: str  # "interval-bisection" or "sine-factorization", as families.jsonl records it
    domain: str
    witnesses: tuple[Union[PositivityWitness, ProductWitness], ...]
    # Always None; kept because perfbench/workloads.py reads them.
    g3_witness: ClassVar[None] = None
    g4_witness: ClassVar[None] = None

    @property
    def valid(self) -> bool:
        return len(self.witnesses) == 4


def _cos_sign_over_region(form: AngleForm, domain: str
                          ) -> tuple[int, tuple[Fraction, Fraction]]:
    """The one sign of cos(form) on the open region (0 if there is none)
    and the exact range of the form over the closed region, in pi units.

    A linear form attains its extremes at the vertices and, unless it is
    constant, takes values strictly between them on the open region, so
    its range may touch the zeros (k +- 1/2)*pi of the cosine; a constant
    form must lie strictly between them.
    """
    values = [form.value_in_pi_units(tau, mu) for tau, mu in _REGION_VERTICES[domain]]
    lo, hi = min(values), max(values)
    half = Fraction(1, 2)
    k = math.floor((lo + hi) / 2 + half)
    if form.is_constant:
        inside = k - half < lo < k + half
    else:
        inside = k - half <= lo and hi <= k + half
    return ((-1) ** k if inside else 0), (lo, hi)


def _product_witness(total: TrigPoly, domain: str) -> ProductWitness:
    """Prove total > 0 on the open region by sum-to-product.

    total must be a constant group that vanishes plus c cos A +- c cos B;
    with cos A - cos B = cos A + cos(B + pi) and a negative c absorbed as
    pi into x, it is 2|c| cos(x) cos(y) with x, y = (A +- B)/2, which
    TrigPoly.is_zero checks exactly.
    """
    pi = AngleForm(Fraction(1))
    terms = [(form, c) for form, c in total.terms if not form.is_constant]
    if len(terms) != 2 or abs(terms[0][1]) != abs(terms[1][1]):
        raise PositivityError(f"{total} is not c cos A +- c cos B")
    (a, c), (b, d) = terms
    if d != c:
        b = b + pi
    x = (a + b).scale(Fraction(1, 2)) + (pi if c < 0 else AngleForm())
    y = (a - b).scale(Fraction(1, 2))
    if not (total - TrigPoly.cos_of(x, 2 * abs(c)) * TrigPoly.cos_of(y)).is_zero():
        raise PositivityError(f"{total} is not 2|c| cos({x}) cos({y})")
    (sx, x_range), (sy, y_range) = (_cos_sign_over_region(f, domain) for f in (x, y))
    if sx * sy <= 0:
        raise PositivityError(
            f"cos({x}) cos({y}) is not positive throughout region {domain}")
    return ProductWitness(x, y, x_range, y_range)


def verify_domain(fam: FamilySpec) -> DomainCertificate:
    """Certify that the open domain is realizable.

    Segment rows prove each sum positive on (0, pi/6) by Taylor strips at
    the ends plus interval bisection; two-parameter rows by an exact
    sum-to-product identity and the sign of each cosine factor over the
    region.  Raises PositivityError when a sum cannot be proven positive.
    """
    sums = gram_sums(fam)
    if fam.two_param:
        return DomainCertificate(
            fam.family_id, "sine-factorization", fam.domain,
            tuple(_product_witness(s, fam.domain) for s in sums))
    return DomainCertificate(
        fam.family_id, "interval-bisection", fam.domain,
        tuple(positive_on_open_interval(s, Fraction(0), SEGMENT_END) for s in sums))


# -- membership and instantiation -----------------------------------------


@dataclass(frozen=True)
class FamilyMembership:
    family_id: int
    t: RationalAngle
    u: RationalAngle
    swapped_pq: bool
    swapped_rs: bool


@dataclass(frozen=True)
class _Span:
    """The span of a family's directions (a catalog row has one or two,
    beta and gamma).  pivots are the pivot coordinates of its reduced row
    echelon basis E; projection has one integer row per other coordinate
    k, scale * (e_k - sum_j E[j][k] e_pivots[j]), which maps x to scale
    times x minus the span vector that agrees with x at the pivots."""

    pivots: tuple[int, ...]
    projection: tuple[tuple[int, ...], ...]
    scale: int

    def key(self, nums: Sequence[int], den: int) -> tuple[int, ...]:
        """The projection of nums/den as reduced integer numerators and
        their denominator: two points share a key iff their difference
        lies in the span."""
        out = [sum(map(operator.mul, row, nums)) for row in self.projection]
        den *= self.scale
        g = math.gcd(den, *out)
        return (*[v // g for v in out], den // g)


@dataclass(frozen=True)
class _FamilyInverse:
    """A family's angle map x = alpha + tau*beta + mu*gamma, inverted: x is
    on the family's line or plane iff span.key(x) == key, and then
    (tau, mu) = coeffs @ (x - alpha) read at the span's pivots."""

    fam: FamilySpec
    span: _Span
    key: tuple[int, ...]
    alpha: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def parameters(self, nums: Sequence[int], den: int) -> tuple[Fraction, Fraction]:
        d = [Fraction(nums[p], den) - self.alpha[p] for p in self.span.pivots]
        tau, mu = (sum((c * v for c, v in zip(row, d)), Fraction(0))
                   for row in self.coeffs)
        return tau, mu


def _over_common_denominator(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators over the least common denominator of num/den pairs."""
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _invert(fam: FamilySpec) -> _FamilyInverse:
    """Invert the family's angle map by Gauss-Jordan elimination on its
    directions, each row carrying the combination of directions it is.

    The reduced rows E and combinations C (E = C @ directions) give, for x
    on the family, x - alpha = sum_j (x - alpha)[pivot j] * E[j], so the
    parameters are C^T @ (x - alpha) at the pivots.  Raises ValueError
    when the directions are linearly dependent (the parameters would not
    be determined by the angles).
    """
    forms = fam.angle_forms
    alpha = tuple(f.pi_part for f in forms)
    dirs = [[f.t_part for f in forms]]
    if fam.two_param:
        dirs.append([f.u_part for f in forms])
    n = len(dirs)
    rows = [d + [Fraction(int(i == j)) for j in range(n)] for i, d in enumerate(dirs)]
    pivots: list[int] = []
    for col in range(4):
        r = len(pivots)
        pick = next((i for i in range(r, n) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(n):
            f = rows[i][col]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == n:
            break
    if len(pivots) < n:
        raise ValueError(f"family {fam.family_id} has dependent directions")
    scale = math.lcm(*(v.denominator for row in rows for v in row[:4]))
    projection = []
    for k in range(4):
        if k not in pivots:
            proj = [Fraction(int(i == k)) for i in range(4)]
            for p, row in zip(pivots, rows):
                proj[p] -= row[k]
            projection.append(tuple(int(scale * v) for v in proj))
    span = _Span(tuple(pivots), tuple(projection), scale)
    params = [tuple(row[4 + k] for row in rows) for k in range(n)]
    if n == 1:
        params.append((Fraction(0),))
    alpha_key = span.key(*_over_common_denominator(
        [(a.numerator, a.denominator) for a in alpha]))
    return _FamilyInverse(fam, span, alpha_key, alpha, tuple(params))


@lru_cache(maxsize=1)
def _family_index() -> tuple[tuple[_Span, dict], ...]:
    """The catalog grouped by span; within a span, the families of each
    key as (catalog position, inverse), in catalog order."""
    groups: dict[_Span, dict] = {}
    for position, fam in enumerate(builtin_families()):
        inv = fam._inverse
        groups.setdefault(inv.span, {}).setdefault(inv.key, []).append((position, inv))
    return tuple(groups.items())


class _Target(NamedTuple):
    """An angle vector to match, as integer numerators over one denominator."""

    nums: list[int]
    den: int
    swapped_pq: bool
    swapped_rs: bool


# Coordinate orders of the p<->q / r<->s swaps, in the order they are tried.
_SWAPS = (((0, 1, 2, 3), False, False), ((0, 1, 3, 2), False, True),
          ((1, 0, 2, 3), True, False), ((1, 0, 3, 2), True, True))


def _targets(quad: PythagoreanQuadruple, extent: str) -> list[_Target]:
    """The quadruple itself for extent="curve", its four swaps for
    extent="domain"."""
    if extent not in ("curve", "domain"):
        raise ValueError(f"unknown extent {extent!r}")
    nums, den = _over_common_denominator([(a.num, a.den) for a in quad.angles])
    return [_Target([nums[i] for i in perm], den, spq, srs)
            for perm, spq, srs in (_SWAPS[:1] if extent == "curve" else _SWAPS)]


def _membership(inv: _FamilyInverse, target: _Target,
                extent: str) -> Optional[FamilyMembership]:
    tau, mu = inv.parameters(target.nums, target.den)
    if extent == "domain" and not inv.fam.contains_parameters(tau, mu):
        return None
    return FamilyMembership(inv.fam.family_id, RationalAngle.from_fraction(tau),
                            RationalAngle.from_fraction(mu),
                            target.swapped_pq, target.swapped_rs)


def member_of(quad: PythagoreanQuadruple, fam: FamilySpec,
              extent: str = "domain") -> Optional[FamilyMembership]:
    """Parameters placing the quadruple inside the family, if any.

    The family's angle map is inverted once (its directions have full
    rank, so the parameters are unique): the quadruple is on the family
    exactly when its projection along the span of the directions equals
    that of the constant part, and the parameters are then read off at
    fixed pivot coordinates.

    extent="domain" restricts to the closed (tightened) tabulated
    domain and tries all four combinations of the p<->q and r<->s
    symmetries, since the catalog rows are not canonicalized.

    extent="curve" asks instead whether the family's angle expressions
    reproduce the quadruple's canonical angle order at any parameter
    value (angle validity is implicit: the expressions equal the
    quadruple's angles).  On the tabulated domains the expressions are
    already canonically ordered up to the r<->s twin, so "curve" is a
    superset of "domain" membership across the whole catalog; beyond
    the point where an expression pair crosses (the order fold), the
    same arc continues with p and q exchanged, and quadruples on that
    folded branch are deliberately not matched.  That convention is
    what separates the sporadic list from the families.
    """
    inv = fam._inverse
    for target in _targets(quad, extent):
        if inv.span.key(target.nums, target.den) == inv.key:
            hit = _membership(inv, target, extent)
            if hit is not None:
                return hit
    return None


def classify_quadruple(quad: PythagoreanQuadruple,
                       extent: str = "domain") -> Optional[FamilyMembership]:
    """First family containing the quadruple, in catalog order (and, for
    one family, the first swap in member_of's order): member_of over the
    catalog, answered from the family index.

    The index, built once, groups the 42 rows by the span of their
    directions (16 lines and 2 planes) and keys each group by the
    projection of the constant parts along the span, so each angle vector
    to match costs one projection and one dict lookup per span.
    """
    targets = _targets(quad, extent)
    found = []
    for k, target in enumerate(targets):
        for span, table in _family_index():
            found += [(position, k, inv) for position, inv
                      in table.get(span.key(target.nums, target.den), ())]
    for _, k, inv in sorted(found, key=lambda hit: hit[:2]):
        hit = _membership(inv, targets[k], extent)
        if hit is not None:
            return hit
    return None


@dataclass(frozen=True)
class FamilyInstance:
    family_id: int
    t: RationalAngle
    u: RationalAngle
    quadruple: PythagoreanQuadruple
    vol: VolumeCoefficient


def instantiate(fam: FamilySpec, tau: Rat, mu: Rat = 0) -> FamilyInstance:
    """The family member at t = tau*pi, u = mu*pi (interior parameters).

    Cross-checks the tabulated volume polynomial against the volume of
    the instantiated quadruple before returning.
    """
    tau, mu = Fraction(tau), Fraction(mu)
    if not fam.interior_parameters(tau, mu):
        raise ValueError(
            f"parameters ({tau}, {mu}) outside the open domain of "
            f"family {fam.family_id}"
        )
    angles = tuple(
        RationalAngle.from_fraction(f.value_in_pi_units(tau, mu))
        for f in fam.angle_forms
    )
    quad = PythagoreanQuadruple.of(*angles)
    vol_table = fam.vol.evaluate(tau, mu)
    vol_formula = volume(quad, checked=False).value
    if vol_table != vol_formula:
        raise ArithmeticError(
            f"volume mismatch in family {fam.family_id} at ({tau}, {mu}): "
            f"table {vol_table}, formula {vol_formula}"
        )
    return FamilyInstance(fam.family_id, RationalAngle.from_fraction(tau),
                          RationalAngle.from_fraction(mu), quad,
                          VolumeCoefficient(vol_formula))


# -- catalog export ---------------------------------------------------------


def _form_obj(f: AngleForm) -> dict:
    return {"pi": frac_obj(f.pi_part), "t": frac_obj(f.t_part),
            "u": frac_obj(f.u_part)}


def export_catalog() -> dict:
    """Catalog as JSON-ready data (exact fractions throughout)."""
    rows = []
    for fam in builtin_families():
        rows.append({
            "id": fam.family_id,
            "p": _form_obj(fam.p),
            "q": _form_obj(fam.q),
            "r": _form_obj(fam.r),
            "s": _form_obj(fam.s),
            "volume": {
                "tt": frac_obj(fam.vol.c_tt),
                "tu": frac_obj(fam.vol.c_tu),
                "uu": frac_obj(fam.vol.c_uu),
                "t": frac_obj(fam.vol.c_t),
                "u": frac_obj(fam.vol.c_u),
                "const": frac_obj(fam.vol.c_1),
            },
            "domain": fam.domain,
            "twin": fam.twin_id,
        })
    return {
        "families": rows,
        "segment_end": frac_obj(SEGMENT_END),
        "regions": {
            name: [[frac_obj(t), frac_obj(u)] for t, u in verts]
            for name, verts in _REGION_VERTICES.items()
        },
    }
