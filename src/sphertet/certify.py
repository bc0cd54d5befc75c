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

Everything here is decided in exact rational arithmetic or on
fixed-point enclosures in Python integers: the link geometry and the
ball's margins are built from cosines and sines of rational multiples
of pi with a proven error (cyclotomic._root_fixed), and every product,
quotient and square root is rounded outward.  The precision doubles
from 64 bits until a comparison is decided; an enclosure that stays
inconclusive after refinement raises rather than guessing.

The module also houses the finite catalog of 4-dimensional spherical
Coxeter cells with their exact volumes, and the suspension lift that
transports a volume fraction of S^3 to volume fractions of S^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .angles import ZERO, RationalAngle, _fraction, frac_obj, obj_frac
from .cyclotomic import SignedInterval, _root_fixed
from .geometry import PreconditionError, PythagoreanQuadruple, vertex_links
from .records import load_coxeter_fixture


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
        """Volume as a coefficient of pi^2; a parametric cell takes the
        orders k (and l) of its dihedral factors, ints of at least 2."""
        if self.vol is not None:
            return self.vol
        if self.vol_rule == "1/(2kl)":
            if not _coxeter_order(k) or not _coxeter_order(l):
                raise PreconditionError(f"{self.symbol} needs two ints k, l >= 2")
            return Fraction(1, 2 * k * l)
        if self.vol_rule == "1/(4k)":
            if not _coxeter_order(k):
                raise PreconditionError(f"{self.symbol} needs an int k >= 2")
            return Fraction(1, 4 * k)
        raise PreconditionError(f"no volume rule for {self.symbol}")


def _coxeter_order(k) -> bool:
    """k is the order of a dihedral group I2(k): an int of at least 2."""
    return type(k) is int and k >= 2


def coxeter_catalog() -> tuple[CoxeterCell, ...]:
    """All eleven spherical Coxeter 3-simplex types with exact volumes,
    built afresh from the golden rows of records.load_coxeter_fixture: a
    fixed volume as its fraction of pi^2, a parametric one as its rule."""
    return tuple(CoxeterCell(row["index"], row["symbol"],
                             obj_frac(row["vol"]) if "vol" in row else None,
                             row.get("vol_formula"))
                 for row in load_coxeter_fixture()["rows"])


# -- link triangles ----------------------------------------------------------


@dataclass(frozen=True)
class LinkTriangle:
    """A spherical triangle given by its angles (alpha, beta, gamma).

    Existence on S^2 means the polar-dual side lengths pi - angle
    satisfy the strict triangle inequalities, i.e. the angle sum
    exceeds pi and each angle is smaller than pi plus the sum of the
    other two minus pi.  Checked exactly, as integer inequalities on the
    numerators of the angles over the lcm of their denominators.
    """

    alpha: RationalAngle
    beta: RationalAngle
    gamma: RationalAngle

    def __post_init__(self) -> None:
        den = math.lcm(*(x.den for x in self.angles))
        a, b, c = nums = [x.num * (den // x.den) for x in self.angles]
        for x in nums:
            if not 0 < x < den:
                raise PreconditionError(f"link angle {Fraction(x, den)}*pi outside (0, pi)")
        if a + b + c <= den:
            raise PreconditionError("degenerate link: angle sum at most pi")
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if x + y - z >= den:
                raise PreconditionError("no spherical triangle with these angles")
        object.__setattr__(self, "_excess", (a + b + c - den, den))

    @property
    def angles(self) -> tuple[RationalAngle, RationalAngle, RationalAngle]:
        return (self.alpha, self.beta, self.gamma)


# -- fixed-point enclosures ---------------------------------------------------
#
# An enclosure at w bits of a real v is a pair of ints (lo, hi) with
# lo <= 2^w v <= hi.  Each operation below rounds its endpoints outward
# (floor for lo, ceil for hi) from the exact result at its operands'
# endpoints, so it encloses the exact result of any values its operands
# enclose; the only approximation is that of the cosines and sines.

Enclosure = tuple[int, int]


def _cos_sin(x: RationalAngle, w: int) -> tuple[Enclosure, Enclosure]:
    """Enclosures at w bits of cos x and sin x, for x = pi n/d of any sign.

    x is 2 pi k / 2d modulo 2 pi with k = n mod 2d, exactly; k > d folds
    to 2d - k, which keeps the cosine and negates the sine, and
    _root_fixed then gives both within e.
    """
    k, order = x.num % (2 * x.den), 2 * x.den
    c, s, e = _root_fixed(order, w, min(k, order - k))
    if k > x.den:
        s = -s
    return (c - e, c + e), (s - e, s + e)


def _add(a: Enclosure, b: Enclosure) -> Enclosure:
    return a[0] + b[0], a[1] + b[1]


def _mul(a: Enclosure, b: Enclosure, w: int) -> Enclosure:
    """a b: its extremes are among the four endpoint products."""
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends) >> w, -(-max(ends) >> w)


def _div(a: Enclosure, b: Enclosure, w: int) -> Enclosure:
    """a / b for b certified positive: a low end over either end of b
    gives the low end, a high end the high end."""
    if b[0] <= 0:
        raise ArithmeticError("divisor enclosure is not positive")
    lo, hi = a[0] << w, a[1] << w
    return min(lo // b[0], lo // b[1]), -min(-hi // b[0], -hi // b[1])


def _sin_from_cos(c: Enclosure, w: int) -> Enclosure:
    """sqrt(1 - c^2) for the cosine c of an angle in [0, pi].

    The square's enclosure is clipped to [0, 1], which holds the true
    value, and math.isqrt of 2^w times each end is rounded outward.
    """
    one, squares = 1 << w, (c[0] * c[0], c[1] * c[1])
    low = 0 if c[0] <= 0 <= c[1] else min(squares) >> w
    high = -(-max(squares) >> w)
    lo, hi = (max(0, min(one, one - v)) << w for v in (high, low))
    root = math.isqrt(hi)
    return math.isqrt(lo), root + (root * root < hi)


def _working_bits(t: LinkTriangle, bits: int) -> int:
    """The working precision w for a link at bits: 32 guard bits for the
    error e of each cosine and sine (below 2^16 units of 2^-w, as a test
    checks), plus twice the bit length of the largest angle denominator
    d.  sin(pi n/d) >= sin(pi/d) >= 2/d for 0 < n < d, so every sine
    enclosure is positive, and the quotient by sin(beta) sin(gamma) >=
    4/d^2 magnifies the error by less than those extra bits."""
    return bits + 32 + 2 * max(x.den for x in t.angles).bit_length()


def _side_cosines(trig: list[tuple[Enclosure, Enclosure]], w: int
                  ) -> tuple[Enclosure, Enclosure, Enclosure]:
    """Enclosures at w bits of cos of the sides opposite alpha, beta, gamma,
    from those of (cos, sin) of the three angles.

    Dual law of cosines: cos l_alpha = (cos alpha + cos beta cos gamma)
    / (sin beta sin gamma), and cyclically.
    """
    (ca, sa), (cb, sb), (cg, sg) = trig
    return (
        _div(_add(ca, _mul(cb, cg, w)), _mul(sb, sg, w), w),
        _div(_add(cb, _mul(cg, ca, w)), _mul(sg, sa, w), w),
        _div(_add(cg, _mul(ca, cb, w)), _mul(sa, sb, w), w),
    )


def _signed(e: Enclosure, w: int, bits: int) -> SignedInterval:
    return SignedInterval(Fraction(e[0], 1 << w), Fraction(e[1], 1 << w), bits)


def _vertices(t: LinkTriangle, w: int) -> tuple[tuple[Enclosure, Enclosure], ...]:
    """Enclosures at w bits of the x and y coordinates of the vertices.

    A sits at (1, 0, 0); B along the equator at side-length l_gamma;
    C in the upper half space, reached from A by rotating the equator
    direction by the angle alpha.  An equatorial center never reads z.
    """
    trig = [_cos_sin(x, w) for x in t.angles]
    _, cos_lb, cos_lg = _side_cosines(trig, w)
    ca = trig[0][0]
    one = 1 << w
    return ((one, one), (0, 0)), (cos_lg, _sin_from_cos(cos_lg, w)), (
        cos_lb, _mul(_sin_from_cos(cos_lb, w), ca, w))


def _margins(t: LinkTriangle, center: RationalAngle, radius: RationalAngle,
             bits: int) -> tuple[SignedInterval, SignedInterval, SignedInterval]:
    """Enclosures of cos(dist(center, v)) - cos(radius) for the vertices v,
    the dot products with (cos center, sin center, 0)."""
    w = _working_bits(t, bits)
    cl, sl = _cos_sin(center, w)
    cos_r, _ = _cos_sin(radius, w)
    below = (-cos_r[1], -cos_r[0])
    return tuple(_signed(_add(_add(_mul(x, cl, w), _mul(y, sl, w)), below), w, bits)
                 for x, y in _vertices(t, w))


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


# The precision cap of diameter_certificate, in bits.
_MAX_BITS = 1024


def diameter_certificate(t: LinkTriangle, center: RationalAngle,
                         radius: RationalAngle) -> DiameterCertificate:
    """Certify whether all three vertices lie within `radius` of `center`.

    The center is a point on the equator given by its longitude, any
    rational multiple of pi; the triangle is positioned canonically by
    :func:`_vertices`.  Strict distance comparisons happen in cosine
    space and are refined from 64 bits by doubling the precision until
    decided; exhausting _MAX_BITS raises :class:`CertificationInconclusive`.

    Success is monotone in the radius: a certificate at some radius
    implies one at every larger radius (cos(radius) only decreases).
    """
    bits = 64
    while True:
        margins = _margins(t, center, radius, bits)
        if all(m.sign == 1 for m in margins):
            return DiameterCertificate(t, center, radius, True, margins, bits)
        if any(m.sign == -1 for m in margins):
            return DiameterCertificate(t, center, radius, False, margins, bits)
        if bits >= _MAX_BITS:
            raise CertificationInconclusive(
                f"diameter check undecided at {bits} bits for {t}"
            )
        bits = min(2 * bits, _MAX_BITS)


# -- the area Diophantine equation -------------------------------------------

# links of the three right-angled Coxeter cells other than D(2,2,n)
_RIGHT_TRIANGLE_LINKS = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
)

_EXPECTED_WEIGHTS = (10, 5, 2)


@lru_cache(maxsize=1)
def area_weights() -> tuple[int, int, int]:
    """Areas of D(2,3,3), D(2,3,4), D(2,3,5) in units of pi/60.

    Derived once per process from the angle excesses; a disagreement
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
    num, den = t._excess
    return Fraction(60 * num, den)


def area_diophantine(target) -> Optional[tuple[int, int, int]]:
    """Solve 10k + 5l + 2m = target over nonnegative integers.

    Returns the solution with the largest k (then largest l), or None.
    A non-integer rational target is infeasible outright since the left
    side is integral.
    """
    w0, w1, w2 = area_weights()
    target = _fraction(target, "area target")
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


# The radius of the obstruction's ball: a link strictly inside a ball of
# radius pi/4 has diameter < pi/2, so it contains no D(2,2,n).
BALL_RADIUS = RationalAngle(1, 4)


def _float_vertices(t: LinkTriangle) -> tuple[tuple[float, float], tuple[float, float]]:
    """The (x, y) of vertices B and C as :func:`_vertices` places them, in
    floats."""
    ca, cb, cg = (math.cos(float(x)) for x in t.angles)
    sa, sb, sg = (math.sin(float(x)) for x in t.angles)
    cos_lb = (cb + cg * ca) / (sg * sa)
    cos_lg = (cg + ca * cb) / (sa * sb)
    sin_lg = math.sqrt(max(0.0, 1 - cos_lg ** 2))
    sin_lb = math.sqrt(max(0.0, 1 - cos_lb ** 2))
    return (cos_lg, sin_lg), (cos_lb, sin_lb * ca)


# The centre scan's longitudes are pi*j/_SCAN_DEN, 0 <= j < _SCAN_DEN.
_SCAN_DEN = 120


@lru_cache(maxsize=1)
def _longitudes() -> tuple[float, tuple[tuple[int, float, float], ...]]:
    """(cos BALL_RADIUS, the (j, cos, sin) of the scan's longitudes
    pi*j/_SCAN_DEN whose cosine exceeds it), in floats."""
    cos_r = math.cos(float(BALL_RADIUS))
    out = []
    for j in range(_SCAN_DEN):
        lam = math.pi * j / _SCAN_DEN
        cl = math.cos(lam)
        if cl > cos_r:
            out.append((j, cl, math.sin(lam)))
    return cos_r, tuple(out)


def _center_candidates(t: LinkTriangle) -> list[int]:
    """Cheap float scan for promising centers of the ball of BALL_RADIUS:
    up to 8 integers j, best first, each the longitude pi*j/_SCAN_DEN.

    Vertex A is (1, 0), so its term is the longitude's cosine itself: a
    longitude whose cosine is at most cos BALL_RADIUS never passes, and
    the scan reads only the others (_longitudes).
    """
    (b0, b1), (c0, c1) = _float_vertices(t)
    cos_r, longitudes = _longitudes()
    out = []
    for j, cl, sl in longitudes:
        worst = min(cl, b0 * cl + b1 * sl, c0 * cl + c1 * sl)
        if worst > cos_r:
            out.append((worst - cos_r, j))
    out.sort(key=lambda pair: -pair[0])
    return [j for _, j in out[:8]]


def _centers(t: LinkTriangle, center: Optional[RationalAngle]):
    """The centers to try on link t, lazily: `center` when given, then,
    and only once it fails, the scan's proposals other than it."""
    if center is not None:
        yield center
    for j in _center_candidates(t):
        if center is None or j * center.den != center.num * _SCAN_DEN:
            yield RationalAngle(j, _SCAN_DEN)


def nondecomposability_certificate(
    quad: PythagoreanQuadruple,
    center: Optional[RationalAngle] = None,
) -> Optional[ObstructionCertificate]:
    """Try to certify that `quad` has no decomposition into Coxeter cells.

    Each distinct vertex link is tried in turn: its area must make the
    Diophantine equation infeasible, and it must fit strictly inside a
    certified ball of radius BALL_RADIUS.  Two vertices share each link
    triangle, and a repeated angle triple would repeat the same verdicts,
    so it is skipped; a certificate keeps the index of the first vertex
    with its link.  A suggested center longitude is tried first when
    provided; only when it fails does a coarse scan run, and the
    longitudes pi*j/_SCAN_DEN it proposes are tried, each once.
    Returns None when no link yields both obstructions.
    """
    weights = area_weights()
    tried = set()
    for idx, angles in enumerate(vertex_links(quad)):
        if angles in tried:
            continue
        tried.add(angles)
        try:
            t = LinkTriangle(*angles)
        except PreconditionError:
            continue
        target = normalized_area(t)
        if area_diophantine(target) is not None:
            continue
        for c in _centers(t, center):
            try:
                cert = diameter_certificate(t, c, BALL_RADIUS)
            except CertificationInconclusive:
                continue
            if cert.holds:
                return ObstructionCertificate(
                    quadruple=quad,
                    vertex_index=idx,
                    triangle=t,
                    center=c,
                    radius=BALL_RADIUS,
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
    check at the recorded center and radius, which must lie in
    (0, BALL_RADIUS] for the ball to exclude a D(2,2,n).  Nothing is
    trusted from the payload beyond the identity of the tetrahedron and
    the chosen ball.  A malformed payload rechecks False, and so does a
    ball whose margins no precision up to the cap decides (a vertex on
    its boundary).
    """
    def angle(d: dict) -> RationalAngle:
        return RationalAngle.from_fraction(obj_frac(d))

    if (not isinstance(payload, dict)
            or payload.get("kind") != "nondecomposability-obstruction"):
        return False
    try:
        quad = PythagoreanQuadruple.of(*(angle(d) for d in payload["quadruple"]))
        idx, links = payload["vertex_index"], vertex_links(quad)
        if type(idx) is not int or not 0 <= idx < len(links):
            return False
        t = LinkTriangle(*links[idx])
        triangle = [obj_frac(d) for d in payload["triangle"]]
        center, radius = angle(payload["center"]), angle(payload["radius"])
        weights = tuple(payload["weights"])
        target = obj_frac(payload["area_target"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    if not ZERO < radius <= BALL_RADIUS:
        return False
    if [a.frac for a in t.angles] != triangle or weights != area_weights():
        return False
    if normalized_area(t) != target or area_diophantine(target) is not None:
        return False
    try:
        return diameter_certificate(t, center, radius).holds
    except CertificationInconclusive:
        return False


# -- suspension lifts ---------------------------------------------------------


def lifted_volume_fraction(f3: Fraction, n: int) -> Fraction:
    """Fraction of S^n filled by the n-fold suspension of a tetrahedron.

    Each suspension halves the filled fraction of the total measure:
    f_n = f_3 / 2^(n-3).  `f3` is the fraction of S^3, i.e. the volume
    divided by 2 pi^2.
    """
    if not isinstance(n, int):
        raise TypeError(f"suspension dimension must be an int, got {n!r}")
    if n < 3:
        raise PreconditionError(f"suspension dimension {n} below 3")
    return _fraction(f3, "volume fraction") / 2 ** (n - 3)


def volume_fraction(vol_coefficient: Fraction) -> Fraction:
    """Convert a volume coefficient of pi^2 into a fraction of S^3."""
    return _fraction(vol_coefficient, "volume coefficient") / 2
