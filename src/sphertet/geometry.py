"""Z2-symmetric spherical tetrahedra with rational dihedral angles.

A quadruple (p, q, r, s) of dihedral angles is "Pythagorean" when

    cos p cos q + cos((r+s)/2) cos((r-s)/2) = 0,

equivalently cos a + cos b + cos c + cos d = 0 under a = p+q, b = p-q,
c = r, d = s.  Such a quadruple bounds an actual spherical tetrahedron
iff its Gram matrix is positive definite, in which case the volume is
the rational multiple of pi^2 given by the closed form in volume() and
the edge lengths are (p, q, pi-r, pi-s).

The Z2 symmetry makes the Gram matrix orthogonally similar to
diag(M+, M-) with two 2x2 blocks, so positive definiteness comes down to
the signs of four sums of four cosines (see realizability); no 3x3 or
4x4 determinant is expanded.

Everything here is decided exactly: the residual and the four Gram
quantities are sums of cosines in one cyclotomic field Q(zeta_N), N the
lcm of twice the angle denominators.  One call of the float filter
(cyclotomic.filter_signs) proves the signs of all four Gram quantities
from their cosine terms; a sign it cannot prove comes from
cyclotomic.sign on the exact element, which refines certified intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .angles import RationalAngle, _fraction
from .cyclotomic import (
    CyclotomicNumber,
    Terms,
    angle_exponents,
    cosine_key,
    cosine_numerator,
    cosine_sum,
    filter_signs,
    sign,
)


class PreconditionError(ValueError):
    """A geometric operation was called outside its domain of validity."""


@dataclass(frozen=True)
class PythagoreanQuadruple:
    """Dihedral angles (p, q, r, s), canonical: p >= q and r >= s.

    Swapping p with q, or r with s, is an isometry of the underlying
    tetrahedron, so one representative per orbit is kept.
    """

    p: RationalAngle
    q: RationalAngle
    r: RationalAngle
    s: RationalAngle

    def __post_init__(self) -> None:
        for name in ("p", "q", "r", "s"):
            v: RationalAngle = getattr(self, name)
            if not v.in_open_0_pi():
                raise ValueError(f"angle {name} = {v} outside (0, pi)")
        if self.p < self.q or self.r < self.s:
            raise ValueError("quadruple not canonical; use PythagoreanQuadruple.of")

    @classmethod
    def of(cls, p: RationalAngle, q: RationalAngle, r: RationalAngle,
           s: RationalAngle) -> "PythagoreanQuadruple":
        """Canonicalizing constructor."""
        if p < q:
            p, q = q, p
        if r < s:
            r, s = s, r
        return cls(p, q, r, s)

    @classmethod
    def from_fractions(cls, p, q, r, s) -> "PythagoreanQuadruple":
        return cls.of(*(RationalAngle.from_fraction(x) for x in (p, q, r, s)))

    @property
    def angles(self) -> tuple[RationalAngle, ...]:
        return (self.p, self.q, self.r, self.s)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(a.frac for a in self.angles)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a.frac) for a in self.angles) + ")*pi"


@dataclass(frozen=True)
class EdgeLengths:
    lp: RationalAngle
    lq: RationalAngle
    lr: RationalAngle
    ls: RationalAngle

    @property
    def lengths(self) -> tuple[RationalAngle, ...]:
        return (self.lp, self.lq, self.lr, self.ls)


@dataclass(frozen=True)
class VolumeCoefficient:
    """Volume as the coefficient v in Vol = v * pi^2."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value",
                           _fraction(self.value, "volume coefficient"))
        if not (0 < self.value < 2):
            raise ValueError(f"volume coefficient {self.value} outside (0, 2)")


@dataclass(frozen=True)
class RealizabilityCertificate:
    """Exact outcome of the positive-definiteness test of the Gram matrix.

    signs are the exact signs of the four cosine sums of realizability(),
    in the order S- - P, S- + P, S+ - Q, S+ + Q with
    S-+ = cos((r-s)/2) -+ cos((r+s)/2), P = cos p + cos q and
    Q = cos p - cos q.  A zero sign marks a degenerate Gram matrix.
    """

    quadruple: PythagoreanQuadruple
    signs: tuple[int, int, int, int]

    @property
    def realizable(self) -> bool:
        return all(s > 0 for s in self.signs)


# -- residuals ------------------------------------------------------------


def _residual_terms(quad: PythagoreanQuadruple) -> tuple[int, Terms]:
    """(N, terms): by the product-to-sum identity the residual
    cos p cos q + cos((r+s)/2) cos((r-s)/2) is
    (cos(p+q) + cos(p-q) + cos r + cos s)/2, half the four-cosine
    residual of the (a, b, c, d) form, and one cosine sum."""
    order, (p, q, r, s) = angle_exponents(quad.angles)
    return order, ((1, p + q), (1, p - q), (1, r), (1, s))


def quadruple_residual(quad: PythagoreanQuadruple) -> CyclotomicNumber:
    """cos p cos q + cos((r+s)/2) cos((r-s)/2), exactly."""
    order, terms = _residual_terms(quad)
    return cosine_sum(order, terms, den=2)


def is_pythagorean(quad: PythagoreanQuadruple) -> bool:
    """Whether the residual is zero: its packed key is 0, a canonical
    test that builds no element; a sum too large for a key is summed
    unpacked instead."""
    order, terms = _residual_terms(quad)
    try:
        return cosine_key(order, terms) == 0
    except ArithmeticError:
        return not any(cosine_numerator(order, terms))


# -- the Gram symmetry group -------------------------------------------------

Numerators = tuple[int, int, int, int]


def _canonical(p: int, q: int, r: int, s: int) -> Numerators:
    return (max(p, q), min(p, q), max(r, s), min(r, s))


def gram_orbit(angles: Numerators, den: int) -> frozenset[Numerators]:
    """The orbit of (p, q, r, s) = angles * pi / den under the group
    generated by the swaps p <-> q and r <-> s and the maps

        A: (p, q, r, s) -> (pi - p, pi - q, r, s),
        B: (p, q, r, s) -> (pi - p, q, pi - s, pi - r),

    on integer numerators over den (pi <-> den), each image canonical
    (p >= q, r >= s).  Every map keeps the angles in (0, pi) and the
    denominator, so a search applies them to its grid exponents directly.

    Each map sends the residual cos p cos q + cos((r+s)/2) cos((r-s)/2)
    to +-residual: A and the swaps leave it unchanged, and B negates it
    (cos p -> -cos p, cos((r+s)/2) -> -cos((r+s)/2), cos((r-s)/2) fixed).
    In realizability's notation
    M+- = [[1 -+ cos r, -(cos p +- cos q)], [., 1 -+ cos s]]:
    A turns cos p +- cos q into -(cos p +- cos q), so det M+ and det M-
    do not change.  B sends 1 -+ cos r to 1 +- cos s, 1 -+ cos s to
    1 +- cos r and cos p +- cos q to -(cos p -+ cos q), so it swaps
    det M+ and det M-.  p <-> q negates Q = cos p - cos q, and r <-> s
    swaps the diagonal entries.  So every map preserves both "is a
    solution" and "det M+ > 0 and det M- > 0": the orbit is all
    solutions or none, and all realizable or none.  On the certificate
    signs (S- - P, S- + P, S+ - Q, S+ + Q) A acts by the permutation
    (1, 0, 3, 2), B by (3, 2, 1, 0), p <-> q by (0, 1, 3, 2), and r <-> s
    fixes them.

    A and r <-> s commute with every map, and (p <-> q) B (p <-> q) = A B,
    so A and B applied to canonical quadruples reach the whole orbit.
    """
    orbit: set[Numerators] = set()
    todo = [_canonical(*angles)]
    while todo:
        x = todo.pop()
        if x in orbit:
            continue
        orbit.add(x)
        p, q, r, s = x
        todo += (_canonical(den - p, den - q, r, s),
                 _canonical(den - p, q, den - s, den - r))
    return frozenset(orbit)


# -- realizability ---------------------------------------------------------


def _gram_sums(quad: PythagoreanQuadruple) -> tuple[int, tuple[Terms, ...]]:
    """(N, (P, Q, a, b)): the four sums of realizability as (k, e) terms
    of k cos(2*pi*e/N), N = lcm(2 den) of the four angles."""
    order, (p, q, r, s) = angle_exponents(quad.angles)
    return order, (
        ((1, p), (1, q)),                                        # P
        ((1, p), (-1, q)),                                       # Q
        ((1, r + s), (1, r - s), (-1, 2 * p), (-1, 2 * q)),      # a
        ((2, r), (2, s), (2, p + q), (2, p - q)),                # b
    )


@lru_cache(maxsize=None)
def realizability(quad: PythagoreanQuadruple) -> RealizabilityCertificate:
    """Exact positive-definiteness certificate for the Gram matrix.

    The Gram matrix of the outward face normals is [[A, B], [B, C]] with
    A = [[1, -cos r], [-cos r, 1]], B = -[[cos p, cos q], [cos q, cos p]]
    and C = [[1, -cos s], [-cos s, 1]].  Every block has the form
    [[x, y], [y, x]], so in the orthonormal basis (e1 +- e2)/sqrt 2,
    (e3 +- e4)/sqrt 2 the matrix is diag(M+, M-) with

        M+- = [[1 -+ cos r, -(cos p +- cos q)], [-(cos p +- cos q), 1 -+ cos s]].

    The diagonals 1 -+ cos r and 1 -+ cos s are positive on (0, pi), so
    the Gram matrix is positive definite iff det M+ > 0 and det M- > 0.
    By the half-angle identities (1 -+ cos r)(1 -+ cos s) = S-+^2 with
    S-+ = cos((r-s)/2) -+ cos((r+s)/2), i.e. 2 sin(r/2) sin(s/2) and
    2 cos(r/2) cos(s/2), both positive.  Hence det M+ = (S- - P)(S- + P)
    with P = cos p + cos q and det M- = (S+ - Q)(S+ + Q) with
    Q = cos p - cos q; the two factors of each sum to 2 S-+ > 0, so each
    determinant is positive iff both of its factors are, and
    det G = det M+ det M- is zero iff one of the four sums is.

    The half-angle cosines live in Q(zeta_{4 den}), which can exceed
    MAX_ORDER, so each sum's sign is found from P, Q and the
    determinants: S - X > 0 when X <= 0, else its sign is that of
    S^2 - X^2 = det M; likewise S + X with -X.  By product-to-sum,

        det M+ = (1 - cos r)(1 - cos s) - (cos p + cos q)^2 = (a - b)/2,
        det M- = (1 + cos r)(1 + cos s) - (cos p - cos q)^2 = (a + b)/2,

    with a = cos(r+s) + cos(r-s) - cos 2p - cos 2q and
    b = 2 (cos r + cos s + cos(p+q) + cos(p-q)).  So P, Q, a and b are
    sums of cosines in Q(zeta_N), N = lcm(2 den) of the four angles
    (_gram_sums): nothing is multiplied and nothing is embedded into
    another order.  One call of cyclotomic.filter_signs decides the signs
    of P, Q, a - b and a + b together from their cosine terms.  The
    cosine numerators of a and b become elements (2a and 2b over
    denominator 1), real by construction, and the determinants are
    formed as a - b and a + b, the identity as written, by
    CyclotomicNumber addition: the determinants then exist as elements
    for the interval fallback, and the benchmark's traced layers
    (perfbench) see realizability's additions.  A sign the filter
    declines comes from cyclotomic.sign on that element, and a
    determinant's sign is used only where its P (or Q) is nonzero.
    Angles whose N exceeds MAX_ORDER raise CyclotomicOrderError.
    """
    order, (p_sum, q_sum, a_sum, b_sum) = _gram_sums(quad)
    minus_b = tuple((-k, e) for k, e in b_sum)
    signs = filter_signs(order, (p_sum, q_sum, a_sum + minus_b, a_sum + b_sum))
    # Over denominator 1 the cosine numerators of a and b are the
    # elements 2a and 2b, so one denominator and one order: a -+ b adds
    # numerators directly.
    a, b = (CyclotomicNumber(order, cosine_numerator(order, t)) for t in (a_sum, b_sum))
    dets = (a - b, a + b)  # 4 det M+ and 4 det M-
    out: tuple[int, ...] = ()
    for i, (x_sum, det) in enumerate(zip((p_sum, q_sum), dets)):
        sx = signs[i]
        if sx is None:
            sx = sign(cosine_sum(order, x_sum))
        det_sign = signs[2 + i] if sx else 1
        if det_sign is None:
            det_sign = sign(det)
        out += (det_sign if sx > 0 else 1, det_sign if sx < 0 else 1)
    return RealizabilityCertificate(quad, out)


def is_realizable(quad: PythagoreanQuadruple) -> bool:
    return realizability(quad).realizable


# -- metric data -----------------------------------------------------------


def _require_tetrahedron(quad: PythagoreanQuadruple, caller: str) -> None:
    if not is_pythagorean(quad):
        raise PreconditionError(
            f"{caller}: residual of {quad} is not zero; the closed-form "
            "volume only applies to exact solutions"
        )
    cert = realizability(quad)
    if not cert.realizable:
        raise PreconditionError(
            f"{caller}: {quad} has no realization (cosine-sum signs "
            f"{cert.signs})"
        )


def volume(quad: PythagoreanQuadruple, checked: bool = True) -> VolumeCoefficient:
    """Volume of the tetrahedron as a rational multiple of pi^2:

        Vol = 1/2 ( r(2pi - r)/2 + p^2 + q^2 + s(2pi - s)/2 - pi^2 ).

    With angles x = X pi / D over the lcm D of the denominators this is
    (R(2D - R) + 2P^2 + 2Q^2 + S(2D - S) - 2D^2) / (4D^2): integer
    arithmetic and one Fraction.
    """
    if checked:
        _require_tetrahedron(quad, "volume")
    den = math.lcm(*(x.den for x in quad.angles))
    p, q, r, s = (x.num * (den // x.den) for x in quad.angles)
    num = r * (2 * den - r) + 2 * (p * p + q * q) + s * (2 * den - s) - 2 * den * den
    return VolumeCoefficient(Fraction(num, 4 * den * den))


def edge_lengths(quad: PythagoreanQuadruple, checked: bool = True) -> EdgeLengths:
    """Edge lengths (p, q, pi - r, pi - s) of the realized tetrahedron."""
    if checked:
        _require_tetrahedron(quad, "edge_lengths")
    return EdgeLengths(quad.p, quad.q, quad.r.supplement(), quad.s.supplement())


def vertex_links(quad: PythagoreanQuadruple) -> tuple[tuple[RationalAngle, ...], ...]:
    """Angle triples of the four vertex links.

    Two vertices see the triangle (p, q, s), the other two see (p, q, r);
    all four are returned in vertex order.
    """
    p, q, r, s = quad.angles
    return ((p, q, s), (p, q, s), (p, q, r), (p, q, r))
