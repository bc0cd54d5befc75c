"""Rational Lambert cubes and their equal-volume companion tetrahedra.

A Lambert cube L(a, b, c) is a combinatorial cube with essential
dihedral angles a, b, c on three pairwise non-adjacent edges and right
angles elsewhere.  It is realizable as a spherical polytope exactly
when pi/2 < a, b, c < pi and

    cos^2 a + cos^2 b + cos^2 c = 1,

in which case its volume is  (pi^2/2 - (pi-a)^2 - (pi-b)^2 - (pi-c)^2)/4.

Squaring doubles the angles:  cos^2 x = (1 + cos 2x)/2 turns the
constraint into the three-cosine equation cos 2a + cos 2b + cos 2c = -1
with rational target, which the vanishing-sums classification makes
finite: substituting y = 2*pi - 2x maps the window x in (pi/2, pi) onto
y in (0, pi), so the standard denominator grid applies, and the exact
cosine join of the four-cosine search decides cos y1 + cos y2 =
-(cos y3 + 1) on it.  The search returns exactly two cubes.  No
continuous family exists: the only parameter-bearing sub-sum available
to a target of -1 with unit coefficients is the pair
cos t + cos(pi - t) = 0, which would force a third cosine equal to -1
and hence an angle outside the open window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .angles import ZERO, RationalAngle
from .cyclotomic import (
    CyclotomicNumber,
    angle_exponents,
    cos_as_cyclotomic,
    cosine_sum,
    sign,
)
from .geometry import PreconditionError, PythagoreanQuadruple, VolumeCoefficient
from .search import (
    SearchConfig,
    cosine_join,
    field_order,
    grid_angles,
    pair_terms,
    unordered_pairs,
)


@dataclass(frozen=True)
class LambertCube:
    """Essential angles of a spherical Lambert cube, largest first."""

    a: RationalAngle
    b: RationalAngle
    c: RationalAngle

    def __post_init__(self) -> None:
        angles = sorted((self.a, self.b, self.c), reverse=True)
        object.__setattr__(self, "a", angles[0])
        object.__setattr__(self, "b", angles[1])
        object.__setattr__(self, "c", angles[2])
        for x in angles:
            if not Fraction(1, 2) < x.frac < 1:
                raise PreconditionError(
                    f"essential angle {x} outside (pi/2, pi)"
                )

    @property
    def angles(self) -> tuple[RationalAngle, RationalAngle, RationalAngle]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"L({self.a}, {self.b}, {self.c})"


def lambert_residual(a: RationalAngle, b: RationalAngle,
                     c: RationalAngle) -> CyclotomicNumber:
    """Exact cos^2 a + cos^2 b + cos^2 c - 1.

    By cos^2 x = (1 + cos 2x)/2 it is (1 + cos 2a + cos 2b + cos 2c)/2,
    one cosine sum.
    """
    order, exponents = angle_exponents((a, b, c))
    return cosine_sum(order, ((1, 0), *((1, 2 * e) for e in exponents)), den=2)


def lambert_volume(cube: LambertCube) -> VolumeCoefficient:
    """Volume as an exact rational coefficient of pi^2."""
    if not lambert_residual(*cube.angles).is_zero():
        raise PreconditionError(f"{cube} violates the cosine-square relation")
    total = Fraction(1, 2)
    for x in cube.angles:
        total -= (1 - x.frac) ** 2
    return VolumeCoefficient(total / 4)


@dataclass(frozen=True)
class LambertSearchReport:
    cubes: tuple[LambertCube, ...]
    candidates_scanned: int
    """Size of the grid the join covers: unordered triples (y1, y2, y3)."""
    prefilter_hits: int
    """Grid tuples whose exact cosine sum is zero."""
    no_continuous_family: bool
    volumes: tuple[VolumeCoefficient, ...]


def search_rational_lambert_cubes(
    cfg: Optional[SearchConfig] = None,
) -> LambertSearchReport:
    """Exhaustive search for rational Lambert cubes; returns both found.

    Joins the pair sums cos y1 + cos y2 with -(cos y3 + 1) exactly over
    the folded grid y = 2*pi - 2x in (0, pi), keeping y1 >= y2 >= y3 so
    each unordered triple counts once, then maps back to essential
    angles.
    """
    cfg = cfg or SearchConfig()
    dens = cfg.profile.union_denominators()
    ys = grid_angles(dens, Fraction(0), Fraction(1))
    matches = cosine_join(
        pair_terms(unordered_pairs(ys)),
        [(y3, ((-1, y3), (-1, ZERO))) for y3 in ys],  # cos 0 = 1
        field_order(dens),
    )
    cubes = [
        LambertCube(*(RationalAngle.from_fraction(1 - y.frac / 2)
                      for y in (y1, y2, y3)))
        for (y1, y2), y3 in matches if y3 <= y2
    ]
    cubes.sort(key=lambda cu: tuple(x.frac for x in cu.angles), reverse=True)
    # the would-be parametric pattern needs a third angle with cosine -1,
    # i.e. y = pi, excluded by the open window; verified exactly:
    no_family = not any(y.frac == 1 for y in ys) and sign(
        cos_as_cyclotomic(RationalAngle(1, 1)) + Fraction(1)
    ) == 0
    n = len(ys)
    return LambertSearchReport(
        cubes=tuple(cubes),
        candidates_scanned=n * (n + 1) * (n + 2) // 6,
        prefilter_hits=len(cubes),
        no_continuous_family=no_family,
        volumes=tuple(lambert_volume(cu) for cu in cubes),
    )


@dataclass(frozen=True)
class CompanionTetrahedron:
    """An equal-volume tetrahedron paired with a Lambert cube.

    The quadruple (pi/2, pi/2, pi/2, s) does not satisfy the four-cosine
    equation (its residual is cos(s)/2), so its volume comes from the
    one-essential-angle reflection-group family: a tetrahedron with a
    single essential angle s = pi/k and right angles elsewhere has
    volume pi^2/(4k) = pi*s/4, extended to rational k.
    """

    quadruple: PythagoreanQuadruple
    vol: VolumeCoefficient
    volume_route: str
    coxeter_parameter: Fraction  # the k of the I2(k) x A1 x A1 pattern


def companion_tetrahedra() -> tuple[CompanionTetrahedron, CompanionTetrahedron]:
    """The two tetrahedra matching the Lambert cube volumes exactly."""
    out = []
    for s_num, s_den in ((31, 144), (17, 90)):
        s = RationalAngle(s_num, s_den)
        half = RationalAngle(1, 2)
        quad = PythagoreanQuadruple.of(half, half, half, s)
        from .geometry import quadruple_residual

        residual = quadruple_residual(quad)
        if residual.is_zero():
            from .geometry import volume

            vol = volume(quad)
            route = "four-cosine"
        else:
            # residual = cos(s)/2 exactly; cross-checked here
            order, (e,) = angle_exponents((s,))
            expected = cosine_sum(order, ((1, e),), den=2)
            if not (residual - expected).is_zero():
                raise ArithmeticError("unexpected residual shape for companion")
            vol = VolumeCoefficient(s.frac / 4)
            route = "coxeter-parametric"
        out.append(
            CompanionTetrahedron(
                quadruple=quad,
                vol=vol,
                volume_route=route,
                coxeter_parameter=1 / s.frac,
            )
        )
    t1, t2 = out
    if t1.vol.value != Fraction(31, 576) or t2.vol.value != Fraction(17, 360):
        raise ArithmeticError("companion volumes disagree with the cube volumes")
    return t1, t2
