"""The continuous families of Pythagorean-realizable dihedral angles.

Each family assigns the four angles (p, q, r, s) linear expressions
alpha*pi + beta*t + gamma*u in one or two parameters.  Thirty-four
one-parameter families live on the segment 0 <= t <= pi/6; eight
two-parameter families live on one of two triangular regions:

    region A:  0 <= u <= pi/2,  0 <= t <= pi,    t >= u
    region B:  0 <= u <= pi,    0 <= t <= pi/2,  t <= u

subject to the extra realizability bound t + u <= pi (the leading
principal minors of the Gram matrix factor as sin(t+u)*sin(t-u) and its
square, so the strip t + u > pi inside the printed triangles carries no
tetrahedra; the certificate records this tightening).

For every family the module can verify exactly, in cyclotomic
arithmetic, that (a) the four-cosine residual vanishes identically in
the parameters, (b) the tabulated volume polynomial agrees with the
volume formula applied to the angle expressions, and (c) the interior
of the domain consists of realizable tetrahedra (positive definite Gram
matrix), via Taylor strips at degenerate endpoints plus adaptive
interval bisection for one parameter, or via the exact sine
factorization for two.

Families come in twin pairs related by swapping r and s; both members
are kept because the tables list them separately, and membership tests
always try all coordinate swaps, so deduplication is never load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .angles import RationalAngle, frac_obj
from .geometry import PythagoreanQuadruple, VolumeCoefficient, volume
from .trigpoly import (
    AngleForm,
    PositivityError,
    PositivityWitness,
    TrigPoly,
    det,
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


def gram_minor_polys(fam: FamilySpec) -> tuple[TrigPoly, TrigPoly]:
    """Leading principal 3x3 and 4x4 Gram minors as TrigPolys."""
    one = TrigPoly.constant(1)
    cp = TrigPoly.cos_of(fam.p, -1)
    cq = TrigPoly.cos_of(fam.q, -1)
    cr = TrigPoly.cos_of(fam.r, -1)
    cs = TrigPoly.cos_of(fam.s, -1)
    m = [
        [one, cr, cp, cq],
        [cr, one, cq, cp],
        [cp, cq, one, cs],
        [cq, cp, cs, one],
    ]
    g3 = det([row[:3] for row in m[:3]])
    g4 = det(m)
    return g3, g4


@dataclass(frozen=True)
class DomainCertificate:
    """Proof record that the family's domain interior is realizable."""

    family_id: int
    mode: str  # "interval-bisection" or "sine-factorization"
    domain: str
    tightened: bool
    g3_witness: Optional[PositivityWitness] = None
    g4_witness: Optional[PositivityWitness] = None
    factor_identity_g3: Optional[bool] = None
    factor_identity_g4: Optional[bool] = None
    argument_ranges: tuple = ()

    @property
    def valid(self) -> bool:
        if self.mode == "interval-bisection":
            return self.g3_witness is not None and self.g4_witness is not None
        return bool(self.factor_identity_g3) and bool(self.factor_identity_g4) and all(
            0 <= lo and hi <= 1 and lo < hi for _, lo, hi in self.argument_ranges
        )


def _linear_range_over_region(form: AngleForm, domain: str) -> tuple[Fraction, Fraction]:
    """Exact [min, max] of a linear angle form over the closed region,
    in pi units; linear functions attain extremes at vertices."""
    values = [form.value_in_pi_units(tau, mu) for tau, mu in _REGION_VERTICES[domain]]
    return min(values), max(values)


def _segment_domain_certificate(fam: FamilySpec, precision: int) -> DomainCertificate:
    g3, g4 = gram_minor_polys(fam)
    w3 = positive_on_open_interval(g3, Fraction(0), SEGMENT_END, precision=precision)
    w4 = positive_on_open_interval(g4, Fraction(0), SEGMENT_END, precision=precision)
    return DomainCertificate(
        family_id=fam.family_id,
        mode="interval-bisection",
        domain=DOMAIN_SEGMENT,
        tightened=False,
        g3_witness=w3,
        g4_witness=w4,
    )


def _factored_domain_certificate(fam: FamilySpec, precision: int) -> DomainCertificate:
    """For the two-parameter families the minors factor exactly:

        G3 = sin(t+u) sin(t-u)   (region A; |t-u| -> u-t on region B)
        G4 = G3^2

    so positive definiteness on the tightened region follows from both
    sine arguments lying in (0, pi) there, which a vertex check of the
    linear arguments proves.
    """
    g3, g4 = gram_minor_polys(fam)
    if fam.domain == DOMAIN_A:
        arg1 = AngleForm(Fraction(0), Fraction(1), Fraction(1))   # t + u
        arg2 = AngleForm(Fraction(0), Fraction(1), Fraction(-1))  # t - u
    else:
        arg1 = AngleForm(Fraction(0), Fraction(1), Fraction(1))
        arg2 = AngleForm(Fraction(0), Fraction(-1), Fraction(1))  # u - t
    product = TrigPoly.sin_of(arg1) * TrigPoly.sin_of(arg2)
    ok3 = (g3 - product).is_zero()
    ok4 = (g4 - g3 * g3).is_zero()
    ranges = tuple(
        (str(arg), *_linear_range_over_region(arg, fam.domain))
        for arg in (arg1, arg2)
    )
    return DomainCertificate(
        family_id=fam.family_id,
        mode="sine-factorization",
        domain=fam.domain,
        tightened=True,
        factor_identity_g3=ok3,
        factor_identity_g4=ok4,
        argument_ranges=ranges,
    )


def verify_domain(fam: FamilySpec, precision: int = 96) -> DomainCertificate:
    """Certify that the open domain interior is realizable.

    Raises PositivityError if certification fails; a returned
    certificate with .valid is a proof sketch with checkable data.
    """
    if fam.two_param:
        cert = _factored_domain_certificate(fam, precision)
        if not cert.valid:
            raise PositivityError(
                f"factorization certificate failed for family {fam.family_id}"
            )
        return cert
    return _segment_domain_certificate(fam, precision)


# -- membership and instantiation -----------------------------------------


@dataclass(frozen=True)
class FamilyMembership:
    family_id: int
    t: RationalAngle
    u: RationalAngle
    swapped_pq: bool
    swapped_rs: bool


def _solve_linear(rows: list[tuple[Fraction, Fraction, Fraction]]
                  ) -> Optional[tuple[Fraction, Fraction]]:
    """One exact solution of the rows beta*tau + gamma*mu = rhs, or None.

    Free coordinates default to zero; every candidate is checked against
    all rows at the end, so any returned pair genuinely solves the
    system.
    """
    tau = mu = Fraction(0)
    pivot = next((row for row in rows if row[0] != 0), None)
    if pivot is not None:
        b1, g1, r1 = pivot
        for b, g, r in rows:
            g2, r2 = g - b / b1 * g1, r - b / b1 * r1
            if g2 != 0:
                mu = r2 / g2
                break
        tau = (r1 - g1 * mu) / b1
    else:
        for b, g, r in rows:
            if g != 0:
                mu = r / g
                break
    if all(b * tau + g * mu == r for b, g, r in rows):
        return tau, mu
    return None


def member_of(quad: PythagoreanQuadruple, fam: FamilySpec,
              extent: str = "domain") -> Optional[FamilyMembership]:
    """Parameters placing the quadruple inside the family, if any.

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
    p0, q0, r0, s0 = (x.frac for x in quad.angles)
    if extent == "curve":
        rows = [(form.t_part, form.u_part, target - form.pi_part)
                for form, target in zip(fam.angle_forms, (p0, q0, r0, s0))]
        solved = _solve_linear(rows)
        if solved is None:
            return None
        tau, mu = solved
        return FamilyMembership(
            fam.family_id,
            RationalAngle.from_fraction(tau),
            RationalAngle.from_fraction(mu),
            False,
            False,
        )
    if extent != "domain":
        raise ValueError(f"unknown extent {extent!r}")
    for swap_pq in (False, True):
        for swap_rs in (False, True):
            tp, tq = (q0, p0) if swap_pq else (p0, q0)
            tr, ts = (s0, r0) if swap_rs else (r0, s0)
            rows = []
            for form, target in zip(fam.angle_forms, (tp, tq, tr, ts)):
                rows.append((form.t_part, form.u_part, target - form.pi_part))
            solved = _solve_linear(rows)
            if solved is None:
                continue
            tau, mu = solved
            if fam.contains_parameters(tau, mu):
                return FamilyMembership(
                    fam.family_id,
                    RationalAngle.from_fraction(tau),
                    RationalAngle.from_fraction(mu),
                    swap_pq,
                    swap_rs,
                )
    return None


def classify_quadruple(quad: PythagoreanQuadruple,
                       extent: str = "domain") -> Optional[FamilyMembership]:
    """First family containing the quadruple, scanning the catalog in order."""
    for fam in builtin_families():
        hit = member_of(quad, fam, extent=extent)
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
