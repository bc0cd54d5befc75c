"""Certified non-decomposability obstructions.

A spherical tetrahedron that decomposes into Coxeter cells would induce,
at every vertex, a decomposition of the vertex link (a spherical
triangle) into links of Coxeter cells, and those are exactly the
Coxeter triangles D(2,2,n), D(2,3,3), D(2,3,4), D(2,3,5).  Two certified
facts about a single link triangle therefore obstruct any such
decomposition:

  * a diameter bound: every D(2,2,n) contains two points at distance
    exactly pi/2, so a link that fits strictly inside a ball of radius
    pi/4 cannot contain one;
  * an area obstruction: the remaining candidate pieces have areas
    pi/6, pi/12, pi/30, so the link area (its angle excess) must be a
    nonnegative integer combination 10k + 5l + 2m in units of pi/60.
    When that Diophantine equation has no solution, no tiling by the
    three right triangles exists either.

Everything here is decided in exact rational arithmetic or in certified
interval arithmetic with explicit precision control; an enclosure that
stays inconclusive after refinement raises rather than guessing.

The module also houses the finite catalog of 4-dimensional spherical
Coxeter cells with their exact volumes, and the suspension lift that
transports a volume fraction of S^3 to volume fractions of S^n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from mpmath import iv

from .angles import RationalAngle, frac_obj
from .cyclotomic import SignedInterval, _iv_to_signed_interval, iv_precision
from .geometry import PreconditionError, PythagoreanQuadruple, vertex_links


# -- Coxeter cell catalog ----------------------------------------------------


@dataclass(frozen=True)
class CoxeterCell:
    """A 4-dimensional spherical Coxeter simplex and its volume.

    Fixed-volume rows carry an exact fraction of pi^2; the two infinite
    families carry a rule evaluated by :meth:`volume`.
    """

    index: int
    symbol: str
    vol: Optional[Fraction]
    vol_rule: Optional[str] = None

    def volume(self, k: Optional[int] = None, l: Optional[int] = None) -> Fraction:
        """Volume as a coefficient of pi^2."""
        if self.vol is not None:
            return self.vol
        if self.vol_rule == "1/(2kl)":
            if k is None or l is None:
                raise PreconditionError(f"{self.symbol} needs both parameters")
            return Fraction(1, 2 * k * l)
        if self.vol_rule == "1/(4k)":
            if k is None:
                raise PreconditionError(f"{self.symbol} needs its parameter")
            return Fraction(1, 4 * k)
        raise PreconditionError(f"no volume rule for {self.symbol}")


def coxeter_catalog() -> tuple[CoxeterCell, ...]:
    """All eleven spherical Coxeter 3-simplex types with exact volumes."""
    path = resources.files("sphertet") / "fixtures" / "coxeter_volumes.json"
    data = json.loads(path.read_text())
    cells = []
    for row in data["rows"]:
        vol = row.get("vol")
        cells.append(
            CoxeterCell(
                index=row["index"],
                symbol=row["symbol"],
                vol=Fraction(vol["num"], vol["den"]) if vol else None,
                vol_rule=row.get("vol_formula"),
            )
        )
    if len(cells) != data["count"]:
        raise ValueError("catalog fixture row count mismatch")
    return tuple(cells)


# -- link triangles ----------------------------------------------------------


@dataclass(frozen=True)
class LinkTriangle:
    """A spherical triangle given by its angles (alpha, beta, gamma).

    Existence on S^2 means the polar-dual side lengths pi - angle
    satisfy the strict triangle inequalities, i.e. the angle sum
    exceeds pi and each angle is smaller than pi plus the sum of the
    other two minus pi.  Checked exactly.
    """

    alpha: RationalAngle
    beta: RationalAngle
    gamma: RationalAngle

    def __post_init__(self) -> None:
        a, b, c = (x.frac for x in self.angles)
        for x in (a, b, c):
            if not 0 < x < 1:
                raise PreconditionError(f"link angle {x}*pi outside (0, pi)")
        if a + b + c <= 1:
            raise PreconditionError("degenerate link: angle sum at most pi")
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if x + y - z >= 1:
                raise PreconditionError("no spherical triangle with these angles")

    @property
    def angles(self) -> tuple[RationalAngle, RationalAngle, RationalAngle]:
        return (self.alpha, self.beta, self.gamma)

    def excess(self) -> Fraction:
        """Area of the triangle as a coefficient of pi."""
        return sum(x.frac for x in self.angles) - 1


def _iv_angle(x: RationalAngle):
    return iv.pi * iv.mpf(x.num) / iv.mpf(x.den)


def _clip_unit(x):
    """Intersect an enclosure with [0, 1]; used under a sqrt.

    Outward rounding can push 1 - cos^2 slightly negative even though
    the true value is a square; clipping at exact rational endpoints
    keeps the enclosure certified.
    """
    s = _iv_to_signed_interval(x, iv.prec)
    lo = max(s.lo, Fraction(0))
    hi = min(max(s.hi, Fraction(0)), Fraction(1))
    lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([lo_iv.a, hi_iv.b])


def _side_cosines_iv(t: LinkTriangle):
    """Enclosures of cos of the sides opposite alpha, beta, gamma.

    Dual law of cosines: cos l_alpha = (cos alpha + cos beta cos gamma)
    / (sin beta sin gamma), and cyclically.
    """
    ca, cb, cg = (iv.cos(_iv_angle(x)) for x in t.angles)
    sa, sb, sg = (iv.sin(_iv_angle(x)) for x in t.angles)
    return (
        (ca + cb * cg) / (sb * sg),
        (cb + cg * ca) / (sg * sa),
        (cg + ca * cb) / (sa * sb),
    )


def link_triangle_sides(t: LinkTriangle, precision: int = 64
                        ) -> tuple[SignedInterval, SignedInterval, SignedInterval]:
    """Certified enclosures of the side cosines (opposite alpha, beta, gamma).

    Cosine space is the native certified representation here: interval
    arccosine is not available, and every comparison of sides against
    rational-multiple-of-pi thresholds can be done through the strictly
    decreasing cosine instead.
    """
    with iv_precision(precision):
        return tuple(
            _iv_to_signed_interval(c, precision) for c in _side_cosines_iv(t)
        )


def sides_within(t: LinkTriangle, lo: RationalAngle, hi: RationalAngle,
                 precision: int = 64) -> bool:
    """Certified check that every side length lies in the open (lo, hi).

    Monotonicity turns it into cos(hi) < cos(side) < cos(lo) on
    enclosures; False here means "not certified at this precision",
    not a proof of the negation.
    """
    with iv_precision(precision):
        cos_lo = iv.cos(_iv_angle(lo))
        cos_hi = iv.cos(_iv_angle(hi))
        for c in _side_cosines_iv(t):
            if not (c > cos_hi and c < cos_lo):
                return False
    return True


def _vertices_iv(t: LinkTriangle):
    """Certified coordinates of the three vertices on S^2.

    A sits at (1, 0, 0); B along the equator at side-length l_gamma;
    C in the upper half space, reached from A by rotating the equator
    direction by the angle alpha.
    """
    cos_la, cos_lb, cos_lg = _side_cosines_iv(t)
    sin_lg = iv.sqrt(_clip_unit(1 - cos_lg * cos_lg))
    sin_lb = iv.sqrt(_clip_unit(1 - cos_lb * cos_lb))
    ca = iv.cos(_iv_angle(t.alpha))
    sa = iv.sin(_iv_angle(t.alpha))
    one = iv.mpf(1)
    zero = iv.mpf(0)
    a = (one, zero, zero)
    b = (cos_lg, sin_lg, zero)
    c = (cos_lb, sin_lb * ca, sin_lb * sa)
    return a, b, c


class CertificationInconclusive(ArithmeticError):
    """Raised when refinement hits the precision cap without a verdict.

    Deliberately distinct from a certified `False`.
    """


@dataclass(frozen=True)
class DiameterCertificate:
    """Certified verdict on "all vertices within distance < radius of center".

    `margins` encloses cos(distance) - cos(radius) per vertex, so the
    verdict True means every margin is certified positive.
    """

    triangle: LinkTriangle
    center: RationalAngle
    radius: RationalAngle
    holds: bool
    margins: tuple[SignedInterval, SignedInterval, SignedInterval]
    precision: int


def diameter_certificate(t: LinkTriangle, center: RationalAngle,
                         radius: RationalAngle, start_bits: int = 64,
                         max_bits: int = 1024) -> DiameterCertificate:
    """Certify whether all three vertices lie within `radius` of `center`.

    The center is a point on the equator given by its longitude; the
    triangle is positioned canonically by :func:`_vertices_iv`.  Strict
    distance comparisons happen in cosine space and are refined by
    doubling the working precision until decided; exhausting the cap
    raises :class:`CertificationInconclusive`.

    Success is monotone in the radius: a certificate at some radius
    implies one at every larger radius (cos(radius) only decreases).
    """
    bits = start_bits
    while True:
        with iv_precision(bits):
            verts = _vertices_iv(t)
            cl = iv.cos(_iv_angle(center))
            sl = iv.sin(_iv_angle(center))
            cos_r = iv.cos(_iv_angle(radius))
            margins = []
            for v in verts:
                dot = v[0] * cl + v[1] * sl  # center has no z component
                margins.append(_iv_to_signed_interval(dot - cos_r, bits))
        if all(m.sign == 1 for m in margins):
            return DiameterCertificate(t, center, radius, True,
                                       tuple(margins), bits)
        if any(m.sign == -1 for m in margins):
            return DiameterCertificate(t, center, radius, False,
                                       tuple(margins), bits)
        if bits >= max_bits:
            raise CertificationInconclusive(
                f"diameter check undecided at {bits} bits for {t}"
            )
        bits = min(2 * bits, max_bits)


# -- the area Diophantine equation -------------------------------------------

# links of the three right-angled Coxeter cells other than D(2,2,n)
_RIGHT_TRIANGLE_LINKS = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
)

_EXPECTED_WEIGHTS = (10, 5, 2)


def area_weights() -> tuple[int, int, int]:
    """Areas of D(2,3,3), D(2,3,4), D(2,3,5) in units of pi/60.

    Re-derived from the angle excesses on every call; a disagreement
    with the expected constants is a build error, not a data point.
    """
    weights = []
    for angles in _RIGHT_TRIANGLE_LINKS:
        w = (sum(angles) - 1) * 60
        if w.denominator != 1 or w <= 0:
            raise ArithmeticError(f"non-integral area weight {w}")
        weights.append(int(w))
    out = tuple(weights)
    if out != _EXPECTED_WEIGHTS:
        raise ArithmeticError(
            f"derived area weights {out} != expected {_EXPECTED_WEIGHTS}"
        )
    return out


def normalized_area(t: LinkTriangle) -> Fraction:
    """Triangle area in units of pi/60 (exact)."""
    return t.excess() * 60


def area_diophantine(target) -> Optional[tuple[int, int, int]]:
    """Solve 10k + 5l + 2m = target over nonnegative integers.

    Returns the solution with the largest k (then largest l), or None.
    A non-integer rational target is infeasible outright since the left
    side is integral.
    """
    w0, w1, w2 = area_weights()
    target = Fraction(target)
    if target < 0 or target.denominator != 1:
        return None
    total = int(target)
    for k in range(total // w0, -1, -1):
        rest1 = total - w0 * k
        for l in range(rest1 // w1, -1, -1):
            rest2 = rest1 - w1 * l
            if rest2 % w2 == 0:
                return (k, l, rest2 // w2)
    return None


# -- the combined obstruction certificate -------------------------------------


@dataclass(frozen=True)
class ObstructionCertificate:
    """Serializable witness that a tetrahedron admits no Coxeter decomposition.

    Records which vertex link was used, the certified ball (center
    longitude on the equator, radius) containing it, the margin
    enclosures, and the infeasible area target.  Everything needed to
    re-run both checks independently is included.
    """

    quadruple: PythagoreanQuadruple
    vertex_index: int
    triangle: LinkTriangle
    center: RationalAngle
    radius: RationalAngle
    margins: tuple[SignedInterval, SignedInterval, SignedInterval]
    precision: int
    area_target: Fraction
    weights: tuple[int, int, int]

    def to_payload(self) -> dict:
        return {
            "kind": "nondecomposability-obstruction",
            "quadruple": [frac_obj(a.frac) for a in self.quadruple.angles],
            "vertex_index": self.vertex_index,
            "triangle": [frac_obj(a.frac) for a in self.triangle.angles],
            "center": frac_obj(self.center.frac),
            "radius": frac_obj(self.radius.frac),
            "margins": [
                {"lo": frac_obj(m.lo), "hi": frac_obj(m.hi)} for m in self.margins
            ],
            "precision": self.precision,
            "area_target": frac_obj(self.area_target),
            "weights": list(self.weights),
        }


def _float_vertices(t: LinkTriangle):
    def cos_sides():
        ca, cb, cg = (math.cos(float(x)) for x in t.angles)
        sa, sb, sg = (math.sin(float(x)) for x in t.angles)
        return ((ca + cb * cg) / (sb * sg),
                (cb + cg * ca) / (sg * sa),
                (cg + ca * cb) / (sa * sb))

    _, cos_lb, cos_lg = cos_sides()
    sin_lg = math.sqrt(max(0.0, 1 - cos_lg ** 2))
    sin_lb = math.sqrt(max(0.0, 1 - cos_lb ** 2))
    ca, sa = math.cos(float(t.alpha)), math.sin(float(t.alpha))
    return ((1.0, 0.0, 0.0), (cos_lg, sin_lg, 0.0),
            (cos_lb, sin_lb * ca, sin_lb * sa))


def _center_candidates(t: LinkTriangle, radius: RationalAngle,
                       den: int = 120) -> list[RationalAngle]:
    """Cheap float scan for promising equatorial center longitudes."""
    verts = _float_vertices(t)
    cos_r = math.cos(float(radius))
    out = []
    for j in range(den):
        lam = math.pi * j / den
        cl, sl = math.cos(lam), math.sin(lam)
        worst = min(v[0] * cl + v[1] * sl for v in verts)
        if worst > cos_r:
            out.append((worst - cos_r, RationalAngle(j, den)))
    out.sort(key=lambda pair: -pair[0])
    return [c for _, c in out[:8]]


def nondecomposability_certificate(
    quad: PythagoreanQuadruple,
    radius: RationalAngle = RationalAngle(1, 4),
    center: Optional[RationalAngle] = None,
    start_bits: int = 64,
    max_bits: int = 1024,
) -> Optional[ObstructionCertificate]:
    """Try to certify that `quad` has no decomposition into Coxeter cells.

    Each vertex link is tried in turn: its area must make the
    Diophantine equation infeasible, and it must fit strictly inside a
    certified ball of the given radius.  A suggested center longitude is
    tried first when provided; otherwise a coarse scan proposes
    candidates.  Returns None when no link yields both obstructions.
    """
    weights = area_weights()
    for idx, angles in enumerate(vertex_links(quad)):
        try:
            t = LinkTriangle(*angles)
        except PreconditionError:
            continue
        target = normalized_area(t)
        if area_diophantine(target) is not None:
            continue
        candidates = list(_center_candidates(t, radius))
        if center is not None:
            candidates.insert(0, center)
        for c in candidates:
            try:
                cert = diameter_certificate(t, c, radius,
                                            start_bits=start_bits,
                                            max_bits=max_bits)
            except CertificationInconclusive:
                continue
            if cert.holds:
                return ObstructionCertificate(
                    quadruple=quad,
                    vertex_index=idx,
                    triangle=t,
                    center=c,
                    radius=radius,
                    margins=cert.margins,
                    precision=cert.precision,
                    area_target=target,
                    weights=weights,
                )
    return None


def recheck_obstruction(payload: dict) -> bool:
    """Independently re-verify a serialized obstruction certificate.

    Reconstructs the quadruple, re-derives the link triangle from it,
    re-solves the area equation, and re-runs the certified diameter
    check at the recorded center and radius.  Nothing is trusted from
    the payload beyond the identity of the tetrahedron and the chosen
    ball.
    """
    if payload.get("kind") != "nondecomposability-obstruction":
        return False

    def angle(d: dict) -> RationalAngle:
        return RationalAngle(d["num"], d["den"])

    quad = PythagoreanQuadruple.of(*(angle(d) for d in payload["quadruple"]))
    idx = payload["vertex_index"]
    links = vertex_links(quad)
    if not 0 <= idx < len(links):
        return False
    t = LinkTriangle(*links[idx])
    if [a.frac for a in t.angles] != [
        Fraction(d["num"], d["den"]) for d in payload["triangle"]
    ]:
        return False
    if tuple(payload["weights"]) != area_weights():
        return False
    target = normalized_area(t)
    if target != Fraction(payload["area_target"]["num"],
                          payload["area_target"]["den"]):
        return False
    if area_diophantine(target) is not None:
        return False
    cert = diameter_certificate(t, angle(payload["center"]),
                                angle(payload["radius"]))
    return cert.holds


# -- suspension lifts ---------------------------------------------------------


def lifted_volume_fraction(f3: Fraction, n: int) -> Fraction:
    """Fraction of S^n filled by the n-fold suspension of a tetrahedron.

    Each suspension halves the filled fraction of the total measure:
    f_n = f_3 / 2^(n-3).  `f3` is the fraction of S^3, i.e. the volume
    divided by 2 pi^2.
    """
    if n < 3:
        raise PreconditionError(f"suspension dimension {n} below 3")
    return Fraction(f3) / 2 ** (n - 3)


def volume_fraction(vol_coefficient: Fraction) -> Fraction:
    """Convert a volume coefficient of pi^2 into a fraction of S^3."""
    return Fraction(vol_coefficient) / 2
