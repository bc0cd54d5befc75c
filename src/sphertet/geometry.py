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
lcm of twice the angle denominators.  One stacked table product gives
the numerator rows of all four Gram quantities, each real by
construction, and one call of the float64 filter (cyclotomic.filter_signs)
proves their signs together; a sign it cannot prove comes from
cyclotomic.sign, which refines certified intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .angles import RationalAngle
from .cyclotomic import (
    CyclotomicNumber,
    angle_exponents,
    cosine_numerators,
    cosine_sum,
    filter_signs,
    sign,
)


class PreconditionError(ValueError):
    """A geometric operation was called outside its domain of validity."""


@dataclass(frozen=True)
class RawQuadruple:
    """Angles (a, b, c, d) in (0, pi) entering the four-cosine equation."""

    a: RationalAngle
    b: RationalAngle
    c: RationalAngle
    d: RationalAngle

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v: RationalAngle = getattr(self, name)
            if not v.in_open_0_pi():
                raise ValueError(f"angle {name} = {v} outside (0, pi)")

    @property
    def angles(self) -> tuple[RationalAngle, ...]:
        return (self.a, self.b, self.c, self.d)


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

    def sort_key(self) -> tuple[RationalAngle, ...]:
        """The angles: they order like their fractions, without building any."""
        return self.angles

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
        if not (0 < self.value < 2):
            raise ValueError(f"volume coefficient {self.value} outside (0, 2)")

    def __float__(self) -> float:
        return float(self.value)


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


def quadruple_residual(quad: PythagoreanQuadruple) -> CyclotomicNumber:
    """cos p cos q + cos((r+s)/2) cos((r-s)/2), exactly.

    By the product-to-sum identity it is
    (cos(p+q) + cos(p-q) + cos r + cos s)/2, half the four-cosine
    residual of the (a, b, c, d) form, and one cosine sum.
    """
    order, (p, q, r, s) = angle_exponents(quad.angles)
    return cosine_sum(order, ((1, p + q), (1, p - q), (1, r), (1, s)), den=2)


def is_pythagorean(quad: PythagoreanQuadruple) -> bool:
    return quadruple_residual(quad).is_zero()


# -- coordinate changes ----------------------------------------------------


def pair_to_quadruple(a: RationalAngle, b: RationalAngle, c: RationalAngle,
                      d: RationalAngle) -> Optional[PythagoreanQuadruple]:
    """Map (a, b, c, d) to the canonical (p, q, r, s) = ((a+b)/2, (a-b)/2,
    c, d), or None when the image leaves the open range (e.g. q = 0 for
    a = b).  Accepts the search ranges a in (0, 2pi), b in [0, pi)."""
    p = (a + b) / 2
    q = (a - b) / 2
    for v in (p, q, c, d):
        if not v.in_open_0_pi():
            return None
    return PythagoreanQuadruple.of(p, q, c, d)


# -- realizability ---------------------------------------------------------


# The four sums of realizability as rows of coefficients k of
# k cos(2*pi*e/N), over the exponents e listed by _gram_rows.
_GRAM_COEFFS = np.array([
    # p   q  r+s r-s  2p  2q   r   s  p+q p-q
    [1,   1,  0,  0,  0,  0,  0,  0,  0,  0],  # P = cos p + cos q
    [1,  -1,  0,  0,  0,  0,  0,  0,  0,  0],  # Q = cos p - cos q
    [0,   0,  1,  1, -1, -1,  0,  0,  0,  0],  # a
    [0,   0,  0,  0,  0,  0,  2,  2,  2,  2],  # b
], dtype=np.int64)


def _gram_rows(quad: PythagoreanQuadruple) -> tuple[int, np.ndarray]:
    """(N, rows): the numerators over 2 of P, Q, a and b of realizability
    in Q(zeta_N), N = lcm(2 den) of the four angles, from one stacked
    table product."""
    order, (p, q, r, s) = angle_exponents(quad.angles)
    exponents = (p, q, r + s, r - s, 2 * p, 2 * q, r, s, p + q, p - q)
    return order, cosine_numerators(order, _GRAM_COEFFS, exponents)


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
    sums of cosines in Q(zeta_N), N = lcm(2 den) of the four angles, and
    one stacked table product (cyclotomic.cosine_numerators) gives their
    four numerator rows: nothing is multiplied and nothing is embedded
    into another order.  Every row pairs x^e with x^(-e), so each is
    real by construction and no realness check (a conjugation) is made.
    The rows of a and b become elements (2a and 2b over denominator 1)
    and the determinants are formed as a - b and a + b, the identity as
    written, by CyclotomicNumber addition: the determinants then exist
    as elements for the interval fallback, and the benchmark's traced
    layers (perfbench) see realizability's additions.  One call of
    cyclotomic.filter_signs decides the signs of P, Q, a - b and a + b
    together.  A sign the filter declines comes from cyclotomic.sign on
    that element, and a determinant's sign is used only where its P (or
    Q) is nonzero.  Angles whose N exceeds MAX_ORDER raise
    CyclotomicOrderError.
    """
    order, rows = _gram_rows(quad)
    # Over denominator 1 the rows of a and b are the elements 2a and 2b,
    # so one denominator and one order: a -+ b adds numerators directly.
    a, b = (CyclotomicNumber(order, row.tolist()) for row in rows[2:])
    dets = (a - b, a + b)  # 4 det M+ and 4 det M-
    # Their numerators are at most |row a| + |row b| < 2^63 when the rows
    # are int64, so the dtype of the rows holds them.
    signs = filter_signs(order, np.array((rows[0], rows[1], dets[0].num, dets[1].num),
                                         dtype=rows.dtype))
    out: tuple[int, ...] = ()
    for i, det in enumerate(dets):
        sx = signs[i]
        if sx is None:
            sx = sign(CyclotomicNumber(order, rows[i].tolist(), 2))
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
    if not is_realizable(quad):
        cert = realizability(quad)
        raise PreconditionError(
            f"{caller}: {quad} has no realization (cosine-sum signs "
            f"{cert.signs})"
        )


def volume(quad: PythagoreanQuadruple, checked: bool = True) -> VolumeCoefficient:
    """Volume of the tetrahedron as a rational multiple of pi^2:

        Vol = 1/2 ( r(2pi - r)/2 + p^2 + q^2 + s(2pi - s)/2 - pi^2 ).

    With angles x = f*pi this is pure Fraction arithmetic on the f's.
    """
    if checked:
        _require_tetrahedron(quad, "volume")
    p, q, r, s = quad.fractions
    v = (r * (2 - r) / 2 + p * p + q * q + s * (2 - s) / 2 - 1) / 2
    return VolumeCoefficient(v)


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
