"""Exhaustive search for rational solutions of the four-cosine equation.

The Conway-Jones classification of vanishing rational sums of cosines
confines the angles of any sporadic solution of

    cos a + cos b + cos c + cos d = 0

to the reduced denominators of PAPER_GRID, the grid that the command
line and the reproduction always scan; a library caller may pass a
wider one, such as MANN_GRID (length-4 relations never vanish, which the
search re-verifies at startup from the four known denominator-21
relations).  That makes the solution set finite up to the continuous
families, and a grid search over

    a in (0, 2pi), b in {0} union (0, pi), c >= d in (0, pi),
    a > b, a + b < 2pi

(complements to pi and 2pi included, b = 0 covering the degenerate
"infinite denominator" case p = q) reaches every canonical quadruple
p = (a+b)/2, q = (a-b)/2, r = c, s = d with p >= q, r >= s.

A Grid holds every value as an integer: the angle 2*pi*e/420 (420 =
lcm(2*den) over the grid's denominators) is its exponent e in
Q(zeta_420), and the grid keeps the sorted exponents, the packed key of
each exponent's cosine, the candidate pair lists and the zero-sum
tuples of exponents, each built once.  Twice a cosine sum over the grid
is an integer vector in that field's canonical power basis, packed into
one int (cyclotomic.cosine_key), so equal ints mean equal numbers; the
packing is linear, so a sum's key is the sum of its angles' keys.  The
equation is therefore decided by one exact hash join
(Grid.zero_sum_tuples): the keys of cos a + cos b are looked up among
those of -(cos c + cos d), and no float test decides anything.

The exact solutions are deduplicated on the same integers: the tuple
(a, b, c, d) gives (p, q, r, s) = (a + b, a - b, 2c, 2d) * pi/420, and a
RationalAngle is built only for a reported quadruple.  The Gram
positive-definiteness test (geometry.realizability) is constant on each
orbit of the Gram symmetry group (geometry.gram_orbit), so it is decided
once per orbit, for the orbit's first solution in sorted order, and the
verdict goes to every member.  The realizable solutions are matched
against the continuous-family catalog one by one; what remains is the
sporadic list.

The other two equations are slices of the same zero-sum tuples.  With
s = r the residual cos p cos q + cos((r+s)/2) cos((r-s)/2) is
cos p cos q + cos r, so the Pythagorean triples below are the tuples
with c = d.  The Lambert search (lambert.py) folds y = 2*pi - 2x, which
turns cos 2a + cos 2b + cos 2c = -1 into cos y3 + cos 0 + cos y1 +
cos y2 = 0, so its cubes are the tuples with b = 0.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .angles import RationalAngle
from .cyclotomic import common_order, cosine_key
from .families import classify_quadruple
from .geometry import (
    EdgeLengths,
    Numerators,
    PythagoreanQuadruple,
    VolumeCoefficient,
    edge_lengths,
    gram_orbit,
    realizability,
    volume,
)

# The four denominator-21 relations that would be needed for a vanishing
# sum of rational length 4; each equals 1/2, so no such solution exists.
_LENGTH4_RELATIONS = (
    ((1, (1, 7)), (1, (3, 7)), (-1, (1, 21)), (1, (8, 21))),
    ((1, (1, 7)), (-1, (2, 7)), (1, (2, 21)), (-1, (5, 21))),
    ((-1, (2, 7)), (1, (3, 7)), (1, (4, 21)), (1, (10, 21))),
    ((-1, (1, 15)), (1, (2, 15)), (1, (4, 15)), (-1, (7, 15))),
)


@dataclass(frozen=True)
class Grid:
    """The angles nu/den*pi, den in `denominators` and nu/den reduced, that
    a search scans, and its candidate lists.  Each value is built on first
    read, once per instance.

    Every grid cosine lies in Q(zeta_order), order = lcm(2*den), and every
    value is an integer there: the angle 2*pi*e/order is the exponent e,
    which lies in (0, pi) when 2e < order.  The denominators are kept
    sorted and distinct, so grids of one set compare equal.
    """

    denominators: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "denominators", tuple(sorted(set(self.denominators))))

    @cached_property
    def order(self) -> int:
        return common_order(*(2 * den for den in self.denominators))

    @cached_property
    def exponents(self) -> list[int]:
        """The e in (0, order) whose angle 2*pi*e/order has its reduced
        denominator order // gcd(2e, order) among the denominators,
        sorted: the grid angles in (0, 2pi)."""
        n, dens = self.order, set(self.denominators)
        return [e for e in range(1, n) if n // math.gcd(2 * e, n) in dens]

    @cached_property
    def cosine_keys(self) -> dict[int, int]:
        """e -> cyclotomic.cosine_key of cos(2*pi*e/order), for 0 and the
        exponents."""
        return {e: cosine_key(self.order, ((1, e),)) for e in (0, *self.exponents)}

    @cached_property
    def ab_pairs(self) -> list[tuple[int, int]]:
        """(a, b) with a in (0, 2pi), b in {0} union (0, pi), a > b and
        a + b < 2pi; b < a < order - b already puts b below pi."""
        n, bs = self.order, (0, *self.exponents)
        return [(a, b) for a in self.exponents for b in bs if b < a < n - b]

    @cached_property
    def cd_pairs(self) -> list[tuple[int, int]]:
        """(c, d), c >= d in (0, pi): each unordered pair once."""
        n = self.order
        vals = [e for e in self.exponents if 2 * e < n]
        return [(x, y) for i, x in enumerate(vals) for y in vals[: i + 1]]

    @cached_property
    def zero_sum_tuples(self) -> list[tuple[int, int, int, int]]:
        """The (a, b, c, d), (a, b) in ab_pairs and (c, d) in cd_pairs,
        with cos a + cos b + cos c + cos d = 0: an exact hash join of the
        (a, b) pair sums against the negated (c, d) pair sums.

        A pair sum is keyed by the sum of its angles' cosine_keys, which
        by linearity is cosine_key of the whole sum while its coefficients
        stay within the digit bound.  The bound depends on a sum only
        through its weight, 2 for every pair, so keying 2 cos 0 checks
        them all and raises ArithmeticError before any match is returned.
        The matches come in ab_pairs order, each pair's in cd_pairs order.
        """
        keys = self.cosine_keys
        cosine_key(self.order, ((2, 0),))
        index: dict[int, list] = {}
        for c, d in self.cd_pairs:
            index.setdefault(-keys[c] - keys[d], []).append((c, d))
        return [(a, b, c, d) for a, b in self.ab_pairs
                for c, d in index.get(keys[a] + keys[b], ())]


# The union of the denominator lists the Conway-Jones classification
# attaches to each rational length of a vanishing sub-sum: {1, 2, 3} for
# rational cosines, {3, 5} for length 2, {3, 7} and {3, 5, 15} for the
# two length-3 relations (Conway and Jones 1976).  b = 0, the "infinite
# denominator", is always on the grid besides.
PAPER_GRID = Grid((1, 2, 3, 5, 7, 15))

# A wider grid for cross-checks: the denominators dividing 210 = 2*3*5*7.
# Four cosines are a sum of eight roots of unity, and Mann's theorem
# (H. B. Mann, "On linear relations between roots of unity", Mathematika
# 12, 1965) admits only the primes up to 7 in the order of a minimal
# vanishing sum of eight.  It contains PAPER_GRID and has its order, 420.
MANN_GRID = Grid(tuple(den for den in range(1, 211) if 210 % den == 0))


@dataclass(frozen=True)
class SearchConfig:
    """Provenance of a search: the fixed grid, described for config_hash."""

    # not stored: perfbench/workloads.py still passes workers=1
    workers: InitVar[int] = 1

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ValueError(
                f"the search runs in one process; got workers={workers}")

    def describe(self) -> dict:
        return {"denominators": list(PAPER_GRID.denominators), "include_zero": True}


def verify_no_length4_solutions() -> bool:
    """The four length-4 relations each sum to 1/2 exactly, hence never 0:
    each is keyed over its own order, where 1 is the key of 1/2."""
    for relation in _LENGTH4_RELATIONS:
        order = common_order(*(2 * den for _, (_, den) in relation))
        terms = [(k, num * (order // (2 * den))) for k, (num, den) in relation]
        if cosine_key(order, terms) != 1:
            return False
    return True


# -- the sporadic pipeline ---------------------------------------------------


def candidate_count(grid: Grid = PAPER_GRID) -> int:
    """Size of the extended candidate grid (used as a cross-check)."""
    return len(grid.ab_pairs) * len(grid.cd_pairs)


def _solution_numerators(tuples: Iterable[Sequence[int]],
                         order: int) -> list[Numerators]:
    """The distinct canonical (p, q, r, s) of grid tuples (a, b, c, d) of
    exponents as integer numerators over order (pi <-> order), sorted.

    The exponent e is the angle 2*pi*e/order, so p = (a+b)/2,
    q = (a-b)/2, r = c and s = d are (a + b, a - b, 2c, 2d) * pi/order.
    A tuple whose image leaves (0, pi), as q = 0 for a = b, has no
    quadruple.
    """
    found = set()
    for a, b, c, d in tuples:
        nums = (a + b, a - b, 2 * max(c, d), 2 * min(c, d))
        if 0 < min(nums) and max(nums) < order:
            found.add(nums)
    return sorted(found)


def _quadruples(nums: Iterable[Numerators], den: int) -> list[PythagoreanQuadruple]:
    """The quadruples (p, q, r, s) * pi/den, sharing one angle per numerator."""
    angles = [RationalAngle(n, den) for n in range(den)]
    return [PythagoreanQuadruple(*(angles[n] for n in x)) for x in nums]


@dataclass(frozen=True)
class SporadicRow:
    quadruple: PythagoreanQuadruple
    lengths: EdgeLengths
    vol: VolumeCoefficient


@dataclass(frozen=True)
class SearchReport:
    config: Optional[SearchConfig]
    """None for a grid other than PAPER_GRID, which it does not describe."""
    candidates_scanned: int
    """Size of the grid the join covers."""
    prefilter_hits: int
    """Grid tuples whose exact cosine sum is zero."""
    sporadic: tuple[SporadicRow, ...]
    """The realizable solutions on no catalog family, with their edge
    lengths and volumes."""
    raw_solutions: tuple[PythagoreanQuadruple, ...]
    """The distinct canonical quadruples of the zero-sum tuples, sorted."""
    realizable: tuple[PythagoreanQuadruple, ...]
    """The raw solutions with a positive definite Gram matrix, in raw
    order; decided once per Gram-symmetry orbit."""
    elapsed_seconds: float
    notes: tuple[str, ...] = ()

    @property
    def raw_solution_count(self) -> int:
        return len(self.raw_solutions)

    @property
    def realizable_count(self) -> int:
        return len(self.realizable)

    @property
    def family_member_count(self) -> int:
        return len(self.realizable) - len(self.sporadic)

    @property
    def sporadic_count(self) -> int:
        return len(self.sporadic)


def run_sporadic_search(cfg: Optional[SearchConfig] = None, *,
                        grid: Grid = PAPER_GRID) -> SearchReport:
    """The sporadic pipeline on grid: exact solutions, the realizable
    ones, and those on no catalog family.

    realizability is decided once per orbit of the Gram symmetry group,
    for the first solution of the orbit in sorted order, and its verdict
    goes to every member (geometry.gram_orbit proves it constant on
    orbits).  Family membership is decided per quadruple, because the
    catalog is not closed under the group.  A cfg describes PAPER_GRID
    only, so another grid takes none and reports config None.
    """
    if grid == PAPER_GRID:
        cfg = cfg or SearchConfig()
    elif cfg is not None:
        raise ValueError("a SearchConfig describes PAPER_GRID only")
    t0 = time.monotonic()
    if not verify_no_length4_solutions():
        raise ArithmeticError(
            "length-4 relations failed exact verification; search space invalid"
        )
    solutions = grid.zero_sum_tuples
    den = grid.order
    nums = _solution_numerators(solutions, den)
    quads = dict(zip(nums, _quadruples(nums, den)))
    raw_quads = tuple(quads.values())

    verdicts: dict[Numerators, bool] = {}
    for x, q in quads.items():
        if x not in verdicts:
            verdicts.update(dict.fromkeys(gram_orbit(x, den),
                                          realizability(q).realizable))
    realizable = [q for x, q in quads.items() if verdicts[x]]

    sporadic_quads = [q for q in realizable
                      if classify_quadruple(q, extent="curve") is None]

    rows = tuple(
        SporadicRow(q, edge_lengths(q, checked=False), volume(q, checked=False))
        for q in sporadic_quads
    )
    notes = []
    if len(realizable) != 172:
        notes.append(
            f"realizable-stage count {len(realizable)} differs from the "
            "published 172; orbit conventions differ, sporadic stage is "
            "the authoritative comparison"
        )
    return SearchReport(
        config=cfg,
        candidates_scanned=candidate_count(grid),
        prefilter_hits=len(solutions),
        sporadic=rows,
        raw_solutions=raw_quads,
        realizable=tuple(realizable),
        elapsed_seconds=time.monotonic() - t0,
        notes=tuple(notes),
    )


# -- Pythagorean triples (three-cosine equation) -----------------------------


@dataclass(frozen=True)
class TripleReport:
    config: SearchConfig
    nontrivial: tuple[tuple[RationalAngle, RationalAngle, RationalAngle], ...]
    trivial_hits: int
    orbit_sizes: dict
    elapsed_seconds: float


def search_triples(cfg: Optional[SearchConfig] = None) -> TripleReport:
    """All rational solutions of cos p cos q + cos r = 0 with angles in
    (0, pi), reported as canonical complement-orbit representatives.

    They are the zero-sum tuples with c = d (see above).  The trivial
    family p = pi/2 (or q = pi/2), which forces r = pi/2, is counted but
    excluded from the nontrivial list; the others are folded by the
    symmetries (p, q, r) -> (pi-p, q, pi-r), (p, pi-q, pi-r) and p <-> q
    to p >= q in (0, pi/2].  At r = s these are geometry.gram_orbit's B,
    (p <-> q) B (p <-> q) and p <-> q, so a solution's key is the least
    member of its Gram orbit, cut to (p, q, r).
    """
    cfg = cfg or SearchConfig()
    t0 = time.monotonic()
    n = PAPER_GRID.order  # numerators over n, pi <-> n
    tuples = [t for t in PAPER_GRID.zero_sum_tuples if t[2] == t[3]]
    orbits: Counter = Counter()
    trivial = 0
    for x in _solution_numerators(tuples, n):
        if n in (2 * x[0], 2 * x[1]):
            trivial += 1
            continue
        orbits[min(gram_orbit(x, n))[:3]] += 1
    return TripleReport(
        config=cfg,
        nontrivial=tuple(tuple(RationalAngle(x, n) for x in key)
                         for key in sorted(orbits)),
        trivial_hits=trivial,
        orbit_sizes={tuple(Fraction(x, n) for x in key): size
                     for key, size in orbits.items()},
        elapsed_seconds=time.monotonic() - t0,
    )
