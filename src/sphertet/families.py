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
is an exact Taylor cover (trigpoly.positive_on_open_interval); for two
it is an exact sum-to-product identity 2|c| cos X cos Y and the sign of
each factor, read off the range of its linear argument over the
region's vertices.

Membership is two or three integer linear equations per family.  Each
family's angle map x = alpha + tau*beta + mu*gamma (x = (p, q, r, s) in
pi units) has directions of full rank, so its line or plane is cut out
by 3 or 2 equations in x's numerators over one denominator, derived
once per family by Cramer's rule; a quadruple is on the family exactly
when it satisfies them all, and only then are tau and mu solved.
Classifying a quadruple walks the catalog in order and stops at the
first family (and coordinate swap) whose equations hold.

Families come in r<->s twin pairs: the same p, q, volume form and domain
with r and s exchanged (rows 1, 13, 14 and 20 are their own twin).  The
table prints one row per pair and builtin_families generates the twin.
Both stay in the catalog: extent="curve" tries only the identity swap,
so 11 of the 149 curve matches on the paper grid are twins.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, NamedTuple, Optional, Sequence, Union

from .angles import RationalAngle, _fraction, frac_obj
from .geometry import PythagoreanQuadruple, VolumeCoefficient, volume
from .trigpoly import (
    AngleForm,
    Key,
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
_HALF = Fraction(1, 2)

# Closed realizable parameter regions, as vertex lists in pi units.
# Both triangles already include the t + u <= pi tightening.
_REGION_VERTICES = {
    DOMAIN_A: ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(1, 2), Fraction(1, 2))),
    DOMAIN_B: ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
               (Fraction(1, 2), Fraction(1, 2))),
}


def _parameters(tau: Rat, mu: Rat) -> tuple[Fraction, Fraction]:
    """Family parameters as Fractions; a float raises TypeError."""
    return _fraction(tau, "parameter tau"), _fraction(mu, "parameter mu")


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
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, _fraction(value, f"VolumeForm {name}"))

    def evaluate(self, tau: Rat, mu: Rat = 0) -> Fraction:
        """Value in units of pi^2 at t = tau*pi, u = mu*pi."""
        tau, mu = _parameters(tau, mu)
        return (self.c_tt * tau * tau + self.c_tu * tau * mu
                + self.c_uu * mu * mu + self.c_t * tau + self.c_u * mu
                + self.c_1)

    def _coeffs(self) -> tuple[Fraction, ...]:
        return (self.c_tt, self.c_tu, self.c_uu, self.c_t, self.c_u, self.c_1)


def _volume_numerators(forms: Sequence[AngleForm]) -> tuple[tuple[int, ...], int]:
    """The tetrahedron volume as a polynomial in the parameters: its
    coefficients in VolumeForm's field order, as integers over one
    denominator.

    Expands Vol = (pi*r - r^2/2 + p^2 + q^2 + pi*s - s^2/2 - pi^2) / 2
    with the angles (p, q, r, s) substituted by their linear forms: with
    the four forms over one denominator L, the square of
    (a*pi + b*t + c*u)/L contributes b^2, 2bc, c^2, 2ab, 2ac and a^2 to
    (t^2, tu, u^2, pi t, pi u, pi^2) over L^2, weighted 1/2 for p and q
    and -1/4 for r and s, and pi*r/2, pi*s/2 add b/2, c/2 and a/2 over L.
    Everything is summed over 4L^2.
    """
    den = math.lcm(*(f.d for f in forms))
    tt = tu = uu = t = u = 0
    one = -2 * den * den
    for form, w in zip(forms, (2, 2, -1, -1)):
        m = den // form.d
        a, b, c = form.a * m, form.b * m, form.c * m
        tt += w * b * b
        tu += 2 * w * b * c
        uu += w * c * c
        t += 2 * w * a * b
        u += 2 * w * a * c
        one += w * a * a
        if w < 0:
            t += 2 * den * b
            u += 2 * den * c
            one += 2 * den * a
    return (tt, tu, uu, t, u, one), 4 * den * den


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
    def domain_mode(self) -> str:
        """The proof verify_domain gives the domain, as families.jsonl
        records it."""
        return "sine-factorization" if self.two_param else "interval-bisection"

    @property
    def angle_forms(self) -> tuple[AngleForm, AngleForm, AngleForm, AngleForm]:
        return (self.p, self.q, self.r, self.s)

    def contains_parameters(self, tau: Rat, mu: Rat = 0) -> bool:
        """Closed-domain test in pi units (with the t + u tightening)."""
        tau, mu = _parameters(tau, mu)
        if self.domain == DOMAIN_SEGMENT:
            return mu == 0 and 0 <= tau <= SEGMENT_END
        if self.domain == DOMAIN_A:
            return 0 <= mu <= tau and tau + mu <= 1
        return 0 <= tau <= mu and tau + mu <= 1

    @cached_property
    def _equations(self) -> "_Equations":
        """The membership equations (computed once per spec)."""
        return _family_equations(self)

    def interior_parameters(self, tau: Rat, mu: Rat = 0) -> bool:
        tau, mu = _parameters(tau, mu)
        if self.domain == DOMAIN_SEGMENT:
            return mu == 0 and 0 < tau < SEGMENT_END
        if self.domain == DOMAIN_A:
            return 0 < mu < tau and tau + mu < 1
        return 0 < tau < mu and tau + mu < 1


def _vol(c_tt=0, c_t=0, c_1=0, c_tu=0, c_uu=0, c_u=0) -> VolumeForm:
    return VolumeForm(Fraction(c_tt), Fraction(c_tu), Fraction(c_uu),
                      Fraction(c_t), Fraction(c_u), Fraction(c_1))


_F = Fraction

# (id, p, q, r, s, volume, twin), one row per r<->s twin pair (the lower
# id; builtin_families adds the twin).  Angles are (alpha, beta[, gamma])
# for alpha*pi + beta*t [+ gamma*u]; volumes are (c_tt, c_t, c_1) for the
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
    (19, (_F(2, 3), 1), (_F(1, 3),), (_F(1, 3), -1), (_F(1, 2),),
     _vol(_F(1, 4), _F(1, 3), _F(5, 48)), 31),
    (20, (_F(1, 2),), (_F(1, 6), -1), (_F(1, 2),), (_F(1, 2),),
     _vol(_F(1, 2), _F(-1, 6), _F(1, 72)), 20),
    (26, (_F(3, 4), _F(1, 2)), (_F(3, 4), _F(-1, 2)), (_F(2, 3), -1), (_F(2, 3), 1),
     _vol(_F(-1, 4), 0, _F(73, 144)), 34),
)

# Two-parameter rows: angles are (alpha, beta, gamma); volume includes
# the u columns.
_TWO_PARAM_ROWS = (
    (35, (_F(1, 2), 0, 0), (_F(1, 2), 0, -1), (1, -1, 0), (0, 1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(-1, 2)), DOMAIN_A, 36),
    (37, (_F(1, 2), 0, 1), (_F(1, 2), 0, 0), (1, -1, 0), (0, 1, 0),
     _vol(_F(-1, 2), _F(1, 2), 0, 0, _F(1, 2), _F(1, 2)), DOMAIN_A, 38),
    (39, (_F(1, 2), 0, 0), (_F(1, 2), -1, 0), (1, 0, -1), (0, 0, 1),
     _vol(_F(1, 2), _F(-1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 40),
    (41, (_F(1, 2), 1, 0), (_F(1, 2), 0, 0), (1, 0, -1), (0, 0, 1),
     _vol(_F(1, 2), _F(1, 2), 0, 0, _F(-1, 2), _F(1, 2)), DOMAIN_B, 42),
)


@lru_cache(maxsize=1)
def builtin_families() -> tuple[FamilySpec, ...]:
    out = []
    rows = [(*row[:6], DOMAIN_SEGMENT, row[6]) for row in _SEGMENT_ROWS]
    for fid, p, q, r, s, vol, dom, twin in rows + list(_TWO_PARAM_ROWS):
        p, q, r, s = (AngleForm(*f) for f in (p, q, r, s))
        out.append(FamilySpec(fid, p, q, r, s, vol, dom, twin))
        if twin != fid:
            out.append(FamilySpec(twin, p, q, s, r, vol, dom, fid))
    return tuple(sorted(out, key=lambda fam: fam.family_id))


def family_by_id(family_id: int) -> FamilySpec:
    for fam in builtin_families():
        if fam.family_id == family_id:
            return fam
    raise KeyError(f"no family {family_id}")


# -- exact verification -------------------------------------------------


def residual_poly(fam: FamilySpec) -> TrigPoly:
    """cos p cos q + cos((r+s)/2) cos((r-s)/2) as a TrigPoly, built by
    the product-to-sum rule as (cos(p+q) + cos(p-q) + cos r + cos s)/2."""
    return TrigPoly([(fam.p + fam.q, _HALF), (fam.p - fam.q, _HALF),
                     (fam.r, _HALF), (fam.s, _HALF)])


def verify_identity(fam: FamilySpec) -> bool:
    """The defining equation holds identically in the parameters.

    The 42 residuals are only 9 distinct polynomials, so the zero test
    runs once per process for each: it is memoised under the residual's
    TrigPoly.key."""
    return _residual_vanishes(residual_poly(fam).key)


@lru_cache(maxsize=None)
def _residual_vanishes(key: Key) -> bool:
    """The memoised zero test of verify_identity."""
    return TrigPoly._of(*key).is_zero()


def verify_volume_form(fam: FamilySpec) -> bool:
    """The tabulated volume equals the volume formula, exactly."""
    nums, den = _volume_numerators(fam.angle_forms)
    return all(n * c.denominator == c.numerator * den
               for n, c in zip(nums, fam.vol._coeffs()))


# The signs of cos((r-s)/2), cos((r+s)/2), cos p and cos q in each sum
# of gram_sums.
_GRAM_SIGNS = ((1, -1, -1, -1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))


def gram_sums(fam: FamilySpec) -> tuple[TrigPoly, TrigPoly, TrigPoly, TrigPoly]:
    """The four cosine sums of geometry.realizability as TrigPolys.

    In the order S- - P, S- + P, S+ - Q, S+ + Q with
    S-+ = cos((r-s)/2) -+ cos((r+s)/2), P = cos p + cos q and
    Q = cos p - cos q; each has at most four terms.  Where all four are
    positive the Gram matrix is positive definite: S > |X| >= 0 gives
    (1 -+ cos r)(1 -+ cos s) = S^2 > X^2 with both factors positive, so
    both 2x2 blocks M+- are positive definite.

    Swapping r and s leaves all four sums unchanged: cos((r+s)/2) is
    symmetric in r and s, cos((r-s)/2) is even in r - s, and P, Q do not
    involve r or s.  So twin rows, which differ by that swap, have equal
    sums (equal canonical terms), and verify_domain proves each once: 67
    distinct polynomials among the 136 sums of the segment rows, and 11
    among the 32 of the two-parameter rows, one of which occurs in both
    regions and is proved once per region (12 product proofs).
    """
    forms = ((fam.r - fam.s).scale(_HALF), (fam.r + fam.s).scale(_HALF), fam.p, fam.q)
    return tuple(TrigPoly(zip(forms, signs)) for signs in _GRAM_SIGNS)



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
    mode: str  # FamilySpec.domain_mode
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
    form must lie strictly between them.  The values are integers over
    one denominator m, and 2*value/m is compared with 2k +- 1.
    """
    vertices = _REGION_VERTICES[domain]
    v = math.lcm(*(x.denominator for vertex in vertices for x in vertex))
    m = form.d * v
    values = [form.a * v + form.b * (tau.numerator * (v // tau.denominator))
              + form.c * (mu.numerator * (v // mu.denominator)) for tau, mu in vertices]
    lo, hi = min(values), max(values)
    k = (lo + hi + m) // (2 * m)
    if form.is_constant:
        inside = (2 * k - 1) * m < 2 * lo < (2 * k + 1) * m
    else:
        inside = (2 * k - 1) * m <= 2 * lo and 2 * hi <= (2 * k + 1) * m
    return ((-1) ** k if inside else 0), (Fraction(lo, m), Fraction(hi, m))


@lru_cache(maxsize=None)
def _proved_product(key: Key, domain: str) -> ProductWitness:
    """Prove the sum keyed `key` positive on the open region by sum-to-product.

    The sum must be a constant group that vanishes plus c cos A +- c cos B;
    with cos A - cos B = cos A + cos(B + pi) and a negative c absorbed as
    pi into x, it is 2|c| cos(x) cos(y) with x, y = (A +- B)/2, which
    TrigPoly.is_zero checks exactly.

    Each proof runs once per process: the witness is memoised under
    (key, domain), and a proof that raises stores nothing.
    """
    total = TrigPoly._of(*key)
    pi = AngleForm(1)
    varying = [(form, c) for form, c in total.terms if not form.is_constant]
    if len(varying) != 2 or abs(varying[0][1]) != abs(varying[1][1]):
        raise PositivityError(f"{total} is not c cos A +- c cos B")
    (a, c), (b, d) = varying
    if d != c:
        b = b + pi
    x = (a + b).scale(_HALF) + (pi if c < 0 else AngleForm())
    y = (a - b).scale(_HALF)
    if not (total - TrigPoly.cos_of(x, 2 * abs(c)) * TrigPoly.cos_of(y)).is_zero():
        raise PositivityError(f"{total} is not 2|c| cos({x}) cos({y})")
    (sx, x_range), (sy, y_range) = (_cos_sign_over_region(f, domain) for f in (x, y))
    if sx * sy <= 0:
        raise PositivityError(
            f"cos({x}) cos({y}) is not positive throughout region {domain}")
    return ProductWitness(x, y, x_range, y_range)


def verify_domain(fam: FamilySpec) -> DomainCertificate:
    """Certify that the open domain is realizable.

    Segment rows prove each sum positive on (0, pi/6) by an exact Taylor
    cover (the recorded mode keeps its name "interval-bisection");
    two-parameter rows by an exact sum-to-product identity and the sign
    of each cosine factor over the region.  Raises PositivityError when
    a sum cannot be proven positive.
    """
    sums = gram_sums(fam)
    if fam.two_param:
        witnesses = tuple(_proved_product(s.key, fam.domain) for s in sums)
    else:
        witnesses = tuple(positive_on_open_interval(s, 0, SEGMENT_END) for s in sums)
    return DomainCertificate(fam.family_id, fam.domain_mode, fam.domain, witnesses)


# -- membership and instantiation -----------------------------------------


@dataclass(frozen=True)
class FamilyMembership:
    family_id: int
    t: RationalAngle
    u: RationalAngle
    swapped_pq: bool
    swapped_rs: bool


class _Equations(NamedTuple):
    """A family's line or plane as integer equations on x = nums/den: x is
    on it iff c . nums == d * den for every (*c, d) in rows, and then
    det*den*tau and det*den*mu are c . nums - d * den for (*c, d) = tau, mu."""

    rows: tuple[tuple[int, int, int, int, int], ...]
    tau: tuple[int, int, int, int, int]
    mu: tuple[int, int, int, int, int]
    det: int

    def parameters(self, nums: Sequence[int], den: int) -> tuple[Fraction, Fraction]:
        return tuple(Fraction(sum(map(operator.mul, row, nums)) - row[4] * den,
                              self.det * den) for row in (self.tau, self.mu))


def _family_equations(fam: FamilySpec) -> _Equations:
    """Membership equations of the angle map L*x = A + tau*B + mu*G.

    The four forms are written over their common denominator L, with
    integer vectors A, B, G (G = 0 on a segment row), so on the family
    y = L*nums - A*den is den*(tau*B + mu*G).  A line pivots on the first
    i with det = B_i != 0: det*den*tau = y_i, and each other k gives
    det*y_k - B_k*y_i = 0.  A plane pivots on the first pair (i, j) with
    det = B_i*G_j - B_j*G_i != 0: Cramer's rule gives det*den*tau =
    G_j*y_i - G_i*y_j and det*den*mu = B_i*y_j - B_j*y_i, and each other
    k gives det*y_k = B_k*det*den*tau + G_k*det*den*mu.  Weights w on y
    give the row (L*w, w . A); equations are reduced by their gcd.  Raises
    ValueError when the directions are linearly dependent.
    """
    forms = fam.angle_forms
    L = math.lcm(*(f.d for f in forms))
    A, B, G = ([getattr(f, part) * (L // f.d) for f in forms] for part in "abc")
    if fam.two_param:
        i, j = next(((i, j) for i in range(4) for j in range(i + 1, 4)
                     if B[i] * G[j] != B[j] * G[i]), (0, 1))
        det = B[i] * G[j] - B[j] * G[i]
        weights = [{k: det, i: G[k] * B[j] - B[k] * G[j], j: B[k] * G[i] - G[k] * B[i]}
                   for k in range(4) if k not in (i, j)]
        tau, mu = {i: G[j], j: -G[i]}, {i: -B[j], j: B[i]}
    else:
        i = next((k for k in range(4) if B[k]), 0)
        det = B[i]
        weights = [{k: det, i: -B[k]} for k in range(4) if k != i]
        tau, mu = {i: 1}, {}
    if not det:
        raise ValueError(f"family {fam.family_id} has dependent directions")

    def row(w: dict[int, int]) -> tuple[int, ...]:
        return (*(L * w.get(m, 0) for m in range(4)), sum(v * A[m] for m, v in w.items()))

    rows = [row(w) for w in weights]
    return _Equations(tuple(tuple(v // math.gcd(*r) for v in r) for r in rows),
                      row(tau), row(mu), det)


# Coordinate orders of the p<->q / r<->s swaps, in the order they are tried.
_SWAPS = (((0, 1, 2, 3), False, False), ((0, 1, 3, 2), False, True),
          ((1, 0, 2, 3), True, False), ((1, 0, 3, 2), True, True))


def _first_member(fams: Sequence[FamilySpec], quad: PythagoreanQuadruple,
                  extent: str) -> Optional[FamilyMembership]:
    """The first family of fams, and its first swap, whose equations the
    quadruple's angles satisfy (inside the closed domain for "domain")."""
    if extent not in ("curve", "domain"):
        raise ValueError(f"unknown extent {extent!r}")
    den = math.lcm(*(a.den for a in quad.angles))
    nums = [a.num * (den // a.den) for a in quad.angles]
    targets = [([nums[i] for i in perm], spq, srs)
               for perm, spq, srs in (_SWAPS[:1] if extent == "curve" else _SWAPS)]
    for fam in fams:
        eqs = fam._equations
        for x, spq, srs in targets:
            x0, x1, x2, x3 = x
            for c0, c1, c2, c3, d in eqs.rows:
                if c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 != d * den:
                    break
            else:
                tau, mu = eqs.parameters(x, den)
                if extent == "curve" or fam.contains_parameters(tau, mu):
                    return FamilyMembership(
                        fam.family_id, RationalAngle.from_fraction(tau),
                        RationalAngle.from_fraction(mu), spq, srs)
    return None


def member_of(quad: PythagoreanQuadruple, fam: FamilySpec,
              extent: str = "domain") -> Optional[FamilyMembership]:
    """Parameters placing the quadruple inside the family, if any.

    The family's line or plane is two or three integer linear equations
    in the angles' numerators over one denominator, derived once per
    family (its directions have full rank, so the parameters are
    unique): the quadruple is on the family exactly when it satisfies
    them all, and only then are the parameters solved, by Cramer's rule
    at fixed pivot coordinates.

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
    return _first_member((fam,), quad, extent)


def classify_quadruple(quad: PythagoreanQuadruple,
                       extent: str = "domain") -> Optional[FamilyMembership]:
    """First family containing the quadruple, in catalog order (and, for
    one family, the first swap in member_of's order): member_of over the
    catalog, with the quadruple's numerators and swaps built once and
    each family's equations tried in that order.
    """
    return _first_member(builtin_families(), quad, extent)


@dataclass(frozen=True)
class FamilyInstance:
    family_id: int
    t: RationalAngle
    u: RationalAngle
    quadruple: PythagoreanQuadruple
    vol: VolumeCoefficient


def instantiate(fam: FamilySpec, tau: Rat, mu: Rat = 0) -> FamilyInstance:
    """The family member at t = tau*pi, u = mu*pi (interior parameters).

    Its volume is computed from the quadruple; it equals the tabulated
    form fam.vol at (tau, mu), since verify_volume_form proves the two
    polynomials identical.
    """
    tau, mu = _parameters(tau, mu)
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
    return FamilyInstance(fam.family_id, RationalAngle.from_fraction(tau),
                          RationalAngle.from_fraction(mu), quad,
                          volume(quad, checked=False))


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
