"""Exhaustive search for rational solutions of the four-cosine equation.

The Conway-Jones classification of vanishing rational sums of cosines
confines the angles of any sporadic solution of

    cos a + cos b + cos c + cos d = 0

to reduced denominators in {1, 2, 3, 5, 7, 15} (the union of the lists
attached to each rational length; length-4 relations never vanish, which
the search re-verifies at startup from the four known denominator-21
relations).  That makes the solution set finite up to the continuous
families, and a grid search over

    a in (0, 2pi), b in {0} union (0, pi), c >= d in (0, pi),
    a > b, a + b < 2pi

(complements to pi and 2pi included, b = 0 covering the degenerate
"infinite denominator" case p = q) reaches every canonical quadruple
p = (a+b)/2, q = (a-b)/2, r = c, s = d with p >= q, r >= s.

Every grid cosine lies in Q(zeta_N), N = lcm(2*den) over the grid's
denominators (420 for the default grid), and twice a cosine is an
integer vector in that field's canonical power basis, so equal vectors
mean equal numbers.  The equation is therefore decided by an exact hash
join (cosine_join): the vectors of cos a + cos b are looked up among
those of -(cos c + cos d), and no float test decides anything.  The
exact solutions are deduplicated, filtered through the exact Gram
positive-definiteness test, and matched against the continuous-family
catalog; what remains is the sporadic list.  The three-cosine search
below and the Lambert search use the same join.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .angles import HALF_PI, RationalAngle
from .cyclotomic import common_order, cosine_sum, totient
from .families import classify_quadruple
from .geometry import (
    EdgeLengths,
    PythagoreanQuadruple,
    RawQuadruple,
    VolumeCoefficient,
    edge_lengths,
    pair_to_quadruple,
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
class DenominatorProfile:
    """Denominator lists per rational length of a vanishing sub-sum.

    length1 covers fully rational cosines (the zero angle plays the role
    of the infinite denominator and is toggled by include_zero); length2
    and the two length3 lists come with the sporadic relations of the
    cosine classification.
    """

    length1: tuple[int, ...] = (1, 2, 3)
    length2: tuple[int, ...] = (3, 5)
    length3_a: tuple[int, ...] = (3, 7)
    length3_b: tuple[int, ...] = (3, 5, 15)
    include_zero: bool = True

    def union_denominators(self) -> tuple[int, ...]:
        return tuple(
            sorted(set(self.length1) | set(self.length2)
                   | set(self.length3_a) | set(self.length3_b))
        )

    @classmethod
    def length1_only(cls) -> "DenominatorProfile":
        return cls(length2=(), length3_a=(), length3_b=())


@dataclass(frozen=True)
class SearchConfig:
    profile: DenominatorProfile = field(default_factory=DenominatorProfile)
    # not stored: perfbench/workloads.py still passes workers=1
    workers: InitVar[int] = 1

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ValueError(
                f"the search runs in one process; got workers={workers}")

    def describe(self) -> dict:
        return {
            "denominators": list(self.profile.union_denominators()),
            "include_zero": self.profile.include_zero,
        }


def grid_angles(dens: Sequence[int], lo: Fraction, hi: Fraction) -> list[RationalAngle]:
    """All angles nu/den*pi with reduced denominator in dens, lo < nu/den < hi."""
    out = set()
    for den in dens:
        nu = 1
        while Fraction(nu, den) < hi:
            if Fraction(nu, den) > lo and math.gcd(nu, den) == 1:
                out.add(RationalAngle(nu, den))
            nu += 1
    return sorted(out)


# -- exact cosine sums -------------------------------------------------------

CosineTerms = Iterable[tuple[int, RationalAngle]]


def field_order(dens: Iterable[int]) -> int:
    """N such that Q(zeta_N) holds cos(nu/den*pi) for every den in dens."""
    return common_order(*(2 * den for den in dens))


@lru_cache(maxsize=None)
def _twice_cos(x: RationalAngle, order: int) -> tuple[int, ...]:
    e, rest = divmod(x.num * order, 2 * x.den)  # x = 2*pi*e/order
    if rest:
        raise ValueError(f"cos({x}) is not in Q(zeta_{order})")
    return cosine_sum(order, ((2, e),)).num  # den 1: (2x^e + 2x^-e)/2


def twice_cosine_sum(terms: CosineTerms, order: int) -> tuple[int, ...]:
    """2 * sum(k * cos x) over the (k, x) terms, as an integer vector.

    The vector holds the coordinates in the power basis of Q(zeta_order),
    which is canonical: two sums are equal exactly when their vectors
    are, and a sum is rational exactly when all coordinates after the
    first are zero (the first is then twice its value).
    """
    total = [0] * totient(order)
    for k, x in terms:
        for i, v in enumerate(_twice_cos(x, order)):
            if v:
                total[i] += k * v
    return tuple(total)


def cosine_join(left: Sequence[tuple[object, CosineTerms]],
                right: Sequence[tuple[object, CosineTerms]],
                order: int) -> list[tuple]:
    """All (l, r) whose cosine sums are exactly equal.

    left and right hold (item, terms) entries, the terms as for
    twice_cosine_sum.  The matches come in left order, each left item's
    matches in right order, so the result does not depend on hashing.
    """
    index: dict[tuple[int, ...], list] = {}
    for item, terms in right:
        index.setdefault(twice_cosine_sum(terms, order), []).append(item)
    return [(item, match) for item, terms in left
            for match in index.get(twice_cosine_sum(terms, order), ())]


def pair_terms(pairs: Iterable[tuple[RationalAngle, RationalAngle]],
               k: int = 1) -> list:
    """Join entries for k * (cos x + cos y), one per pair (x, y)."""
    return [((x, y), ((k, x), (k, y))) for x, y in pairs]


# -- rational length -------------------------------------------------------


def rational_length(raw: RawQuadruple) -> Optional[int]:
    """Size of the largest minimal rational sub-sum of cos a + ... + cos d.

    A sub-sum is minimal-rational when it is rational but none of its
    proper nonempty sub-sums is.  Returns None when no sub-sum at all is
    rational.  (Values 1..4 are possible for arbitrary inputs; vanishing
    sums never have length 4.)
    """
    order = field_order(x.den for x in raw.angles)
    rational_mask = []
    for mask in range(1, 16):
        terms = [(1, x) for i, x in enumerate(raw.angles) if mask & (1 << i)]
        if not any(twice_cosine_sum(terms, order)[1:]):
            rational_mask.append(mask)
    rational_set = set(rational_mask)
    best: Optional[int] = None
    for mask in rational_mask:
        proper_rational = any(
            sub in rational_set
            for sub in range(1, mask)
            if sub & mask == sub and sub != mask
        )
        if not proper_rational:
            size = bin(mask).count("1")
            if best is None or size > best:
                best = size
    return best


def verify_no_length4_solutions() -> bool:
    """The four length-4 relations each sum to 1/2 exactly, hence never 0."""
    for relation in _LENGTH4_RELATIONS:
        terms = [(k, RationalAngle(num, den)) for k, (num, den) in relation]
        twice = twice_cosine_sum(terms, field_order(x.den for _, x in terms))
        if twice[0] != 1 or any(twice[1:]):
            return False
    return True


# -- the sporadic pipeline ---------------------------------------------------


def _search_grids(profile: DenominatorProfile):
    dens = profile.union_denominators()
    a_vals = grid_angles(dens, Fraction(0), Fraction(2))
    b_vals = grid_angles(dens, Fraction(0), Fraction(1))
    if profile.include_zero:
        b_vals = [RationalAngle(0)] + b_vals
    cd_vals = grid_angles(dens, Fraction(0), Fraction(1))
    return a_vals, b_vals, cd_vals


_TWO_PI = RationalAngle(2)


def _pair_candidates(a_vals, b_vals):
    pairs = []
    for a in a_vals:
        for b in b_vals:
            if a > b and a + b < _TWO_PI:
                pairs.append((a, b))
    return pairs


def unordered_pairs(vals: Sequence[RationalAngle]
                    ) -> list[tuple[RationalAngle, RationalAngle]]:
    """Pairs (x, y), x >= y, of a sorted grid: each unordered pair once."""
    return [(x, y) for i, x in enumerate(vals) for y in vals[: i + 1]]


def candidate_count(profile: DenominatorProfile) -> int:
    """Size of the extended candidate grid (used as a cross-check)."""
    a_vals, b_vals, cd_vals = _search_grids(profile)
    return len(_pair_candidates(a_vals, b_vals)) * len(unordered_pairs(cd_vals))


def zero_sum_tuples(profile: DenominatorProfile
                    ) -> list[tuple[RationalAngle, ...]]:
    """Grid tuples (a, b, c, d), c >= d, with cos a + cos b + cos c + cos d = 0.

    Exact: the (a, b) pair sums are joined with the negated (c, d) pair
    sums.  b = 0 needs no special case, as cos 0 = 1 has its own vector.
    """
    a_vals, b_vals, cd_vals = _search_grids(profile)
    matches = cosine_join(pair_terms(_pair_candidates(a_vals, b_vals)),
                          pair_terms(unordered_pairs(cd_vals), -1),
                          field_order(profile.union_denominators()))
    return [ab + cd for ab, cd in matches]


def exact_quadruples(tuples: Iterable[Sequence[RationalAngle]]
                     ) -> tuple[PythagoreanQuadruple, ...]:
    """Distinct canonical quadruples of zero-sum grid tuples, sorted."""
    quads = {pair_to_quadruple(*t) for t in tuples} - {None}
    return tuple(sorted(quads, key=lambda q: q.sort_key()))


@dataclass(frozen=True)
class SporadicRow:
    quadruple: PythagoreanQuadruple
    lengths: EdgeLengths
    vol: VolumeCoefficient


@dataclass(frozen=True)
class SearchReport:
    config: SearchConfig
    candidates_scanned: int
    """Size of the grid the join covers."""
    prefilter_hits: int
    """Grid tuples whose exact cosine sum is zero."""
    raw_solution_count: int
    realizable_count: int
    family_member_count: int
    sporadic: tuple[SporadicRow, ...]
    raw_solutions: tuple[PythagoreanQuadruple, ...]
    realizable: tuple[PythagoreanQuadruple, ...]
    length4_skip_verified: bool
    elapsed_seconds: float
    notes: tuple[str, ...] = ()

    @property
    def sporadic_count(self) -> int:
        return len(self.sporadic)

    def stage_quadruples(self, stage: str) -> tuple[PythagoreanQuadruple, ...]:
        if stage == "raw":
            return self.raw_solutions
        if stage == "realizable":
            return self.realizable
        if stage == "sporadic":
            return tuple(row.quadruple for row in self.sporadic)
        raise ValueError(f"unknown stage {stage!r}")


def run_sporadic_search(cfg: Optional[SearchConfig] = None) -> SearchReport:
    cfg = cfg or SearchConfig()
    t0 = time.monotonic()
    length4_ok = verify_no_length4_solutions()
    if not length4_ok:
        raise ArithmeticError(
            "length-4 relations failed exact verification; search space invalid"
        )
    solutions = zero_sum_tuples(cfg.profile)
    raw_quads = exact_quadruples(solutions)

    realizable = [q for q in raw_quads if realizability(q).realizable]

    sporadic_quads = [q for q in realizable
                      if classify_quadruple(q, extent="curve") is None]
    member_count = len(realizable) - len(sporadic_quads)

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
        candidates_scanned=candidate_count(cfg.profile),
        prefilter_hits=len(solutions),
        raw_solution_count=len(raw_quads),
        realizable_count=len(realizable),
        family_member_count=member_count,
        sporadic=rows,
        raw_solutions=raw_quads,
        realizable=tuple(realizable),
        length4_skip_verified=length4_ok,
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


def _fold_triple(p: RationalAngle, q: RationalAngle, r: RationalAngle):
    """Canonical representative under complements and the p<->q swap.

    cos p cos q + cos r = 0 is preserved by (p,q,r) -> (pi-p, q, pi-r)
    and (p, pi-q, pi-r); folding puts p, q in (0, pi/2].
    """
    if p > HALF_PI:
        p, r = p.supplement(), r.supplement()
    if q > HALF_PI:
        q, r = q.supplement(), r.supplement()
    if p < q:
        p, q = q, p
    return (p, q, r)


def search_triples(cfg: Optional[SearchConfig] = None) -> TripleReport:
    """All rational solutions of cos p cos q + cos r = 0 with angles in
    (0, pi), reported as canonical complement-orbit representatives.

    With a = p + q and b = p - q the equation reads
    cos a + cos b = -2 cos c, which the exact join decides over the grid.
    The trivial family p = pi/2 (or q = pi/2), which forces r = pi/2, is
    counted but excluded from the nontrivial list.
    """
    cfg = cfg or SearchConfig()
    t0 = time.monotonic()
    a_vals, b_vals, c_vals = _search_grids(cfg.profile)
    matches = cosine_join(pair_terms(_pair_candidates(a_vals, b_vals)),
                          [(c, ((-2, c),)) for c in c_vals],
                          field_order(cfg.profile.union_denominators()))
    canonical: dict[tuple[Fraction, ...], set] = {}
    trivial = 0
    for (a, b), c in matches:
        p, q, r = (a + b) / 2, (a - b) / 2, c
        if not (p.in_open_0_pi() and q.in_open_0_pi()):
            continue
        if p == HALF_PI or q == HALF_PI:
            trivial += 1
            continue
        key_p, key_q, key_r = _fold_triple(p, q, r)
        key = (key_p.frac, key_q.frac, key_r.frac)
        canonical.setdefault(key, set()).add((p.frac, q.frac, r.frac))
    nontrivial = tuple(
        tuple(RationalAngle.from_fraction(f) for f in key)
        for key in sorted(canonical)
    )
    return TripleReport(
        config=cfg,
        nontrivial=nontrivial,
        trivial_hits=trivial,
        orbit_sizes={key: len(v) for key, v in canonical.items()},
        elapsed_seconds=time.monotonic() - t0,
    )
