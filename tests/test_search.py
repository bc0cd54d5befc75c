from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphertet import cyclotomic, lambert, search
from sphertet.angles import RationalAngle, angle
from sphertet.cyclotomic import cos_as_cyclotomic, cosine_key
from sphertet.geometry import realizability
from sphertet.lambert import search_rational_lambert_cubes
from sphertet.search import (
    MANN_GRID,
    PAPER_GRID,
    Grid,
    SearchConfig,
    _quadruples,
    _solution_numerators,
    candidate_count,
    run_sporadic_search,
    search_triples,
    verify_no_length4_solutions,
)

def test_union_denominators():
    assert PAPER_GRID.denominators == (1, 2, 3, 5, 7, 15)
    assert PAPER_GRID.order == 420
    assert SearchConfig().describe()["denominators"] == [1, 2, 3, 5, 7, 15]


def test_grids_of_one_denominator_set_are_equal():
    assert Grid((15, 7, 5, 3, 2, 1, 7)) == PAPER_GRID


def _angle(e: int) -> RationalAngle:
    """The PAPER_GRID angle 2*pi*e/order, built independently of the grid."""
    return RationalAngle(2 * e, PAPER_GRID.order)


def test_grid_exponents_open_range():
    # order 6: pi/3, 2pi/3, 4pi/3, 5pi/3; the pairs c >= d in (0, pi)
    assert Grid((3,)).exponents == [1, 2, 4, 5]
    assert Grid((3,)).cd_pairs == [(1, 1), (2, 1), (2, 2)]
    # order 4: pi/2, 3pi/2
    assert Grid((2,)).exponents == [1, 3]
    # order 2: pi, which is not below pi
    assert Grid((1,)).exponents == [1]
    assert Grid((1,)).cd_pairs == []


def test_grid_sizes_match_the_denominator_lists():
    assert len(PAPER_GRID.exponents) == 43  # (0, 2pi) over the union list
    assert len(PAPER_GRID.cosine_keys) == 44  # and zero
    assert sum(2 * e < PAPER_GRID.order for e in PAPER_GRID.exponents) == 21  # (0, pi)
    assert len(PAPER_GRID.ab_pairs) == 484
    assert len(PAPER_GRID.cd_pairs) == 21 * 22 // 2


def test_candidate_count():
    # 231 unordered {c, d} pairs times the admissible (a, b) pairs
    assert candidate_count() == len(PAPER_GRID.ab_pairs) * (21 * 22 // 2)
    assert candidate_count() == 111804


_GRID_VALUES = ("order", "exponents", "cosine_keys", "ab_pairs", "cd_pairs",
                "zero_sum_tuples")


def test_the_searches_build_each_grid_value_once(monkeypatch):
    """The quadruple, triple and Lambert searches share PAPER_GRID's
    lists and its one join: with its values forgotten, the three build
    each one once."""
    builds = Counter()
    for name in _GRID_VALUES:
        prop = vars(Grid)[name]

        def counted(grid, build=prop.func, name=name):
            builds[name] += 1
            return build(grid)

        monkeypatch.setattr(prop, "func", counted)
        monkeypatch.delitem(vars(PAPER_GRID), name, raising=False)
    run_sporadic_search()
    search_triples()
    search_rational_lambert_cubes()
    assert builds == Counter(_GRID_VALUES)


def test_lambert_reads_the_grid_value_of_search():
    assert lambert.PAPER_GRID is search.PAPER_GRID
    assert not hasattr(lambert, "GRID_DENOMINATORS")
    assert not hasattr(search, "GRID_DENOMINATORS")


def test_search_config_pins_a_single_process():
    assert SearchConfig(workers=1) == SearchConfig()
    assert "workers" not in SearchConfig().describe()
    with pytest.raises(ValueError):
        SearchConfig(workers=2)


def test_no_length_four_relations():
    assert verify_no_length4_solutions()


@lru_cache(maxsize=None)
def _join_output() -> frozenset:
    return frozenset(PAPER_GRID.zero_sum_tuples)


def test_confirm_zero_accepts_known_solution():
    # cos pi + cos pi/3 + cos 3pi/5 + cos pi/5 = 0, exponents over 420
    hit = (210, 70, 126, 42)
    assert hit in _join_output()


def test_confirm_zero_rejects_non_solution():
    # cos pi/3 + cos pi/5 + cos pi/2 + cos pi/7 != 0, exponents over 420
    miss = (70, 42, 105, 30)
    assert miss not in _join_output()
    assert not any(sorted(t) == sorted(miss) for t in _join_output())


@given(st.sampled_from(PAPER_GRID.ab_pairs), st.sampled_from(PAPER_GRID.cd_pairs))
# b = 0: cos 2pi/3 + cos 0 + cos 2pi/3 + cos pi/2 = 0
@example((140, 0), (140, 105))
@settings(max_examples=200)
def test_prefilter_never_discards_exact_zeros(ab, cd):
    """A grid candidate is in the join's output exactly when its cosine
    sum, added up as CyclotomicNumbers, is zero."""
    a, b = ab
    c, d = cd
    total = (cos_as_cyclotomic(_angle(a)) + cos_as_cyclotomic(_angle(b))
             + cos_as_cyclotomic(_angle(c)) + cos_as_cyclotomic(_angle(d)))
    assert ((a, b, c, d) in _join_output()) == total.is_zero()


def test_join_vectors_are_the_embedded_cosines():
    """Each join key packs 2 cos x embedded from Q(zeta_(2 den)) into
    Q(zeta_420), for 0 and every exponent of the paper's grid."""
    order = PAPER_GRID.order
    for e, key in PAPER_GRID.cosine_keys.items():
        twice = (cos_as_cyclotomic(_angle(e)) * 2).embed(order)
        assert twice.den == 1
        assert tuple(cyclotomic._order_data(order).unpack(key)) == twice.num, e


def test_join_keys_are_the_keys_of_the_whole_sums():
    """The join keys a pair sum as the sum of its angles' keys; the
    packing is linear, so that is cosine_key of the whole sum."""
    order, keys = PAPER_GRID.order, PAPER_GRID.cosine_keys
    for pairs, k in ((PAPER_GRID.ab_pairs, 1), (PAPER_GRID.cd_pairs, -1)):
        for x, y in pairs:
            assert (k * (keys[x] + keys[y])
                    == cosine_key(order, ((k, x), (k, y)))), (x, y)


def test_join_raises_where_the_whole_sum_has_no_key(request, monkeypatch):
    """With 8-bit digits and no headroom (narrow_slots) the order-60 pair
    sums still have keys and join as with the default tables; under a
    digit bound that a single cosine meets and a pair sum of weight 2
    exceeds, the join raises, although every angle has its key."""
    dens = (1, 2, 3, 5)
    expected = Grid(dens).zero_sum_tuples
    request.getfixturevalue("narrow_slots")
    grid = Grid(dens)
    order = grid.order
    table = cyclotomic._order_data(order)
    assert table.width == 8
    assert grid.zero_sum_tuples == expected
    monkeypatch.setattr(table, "row_max", 1 << (table.width - 3))
    grid = Grid(dens)
    assert len(grid.cosine_keys) == len(grid.exponents) + 1
    with pytest.raises(ArithmeticError):
        cosine_key(order, ((1, 1), (1, 2)))
    with pytest.raises(ArithmeticError):
        grid.zero_sum_tuples


def test_search_pipeline_counts(sporadic_report):
    rep = sporadic_report
    assert rep.candidates_scanned == 111804
    assert rep.raw_solution_count == 790
    assert rep.realizable_count == 208
    assert rep.family_member_count == 149
    assert rep.sporadic_count == 59
    assert rep.prefilter_hits >= rep.raw_solution_count


def test_the_search_refuses_a_vanishing_length4_relation(monkeypatch):
    """The startup check is live: with a relation that sums to zero,
    cos pi/3 + cos 2pi/3, among the length-4 relations the search raises
    before it scans anything."""
    monkeypatch.setattr(search, "_LENGTH4_RELATIONS",
                        (((1, (1, 3)), (1, (2, 3))),))
    assert not verify_no_length4_solutions()
    with pytest.raises(ArithmeticError, match="length-4"):
        run_sporadic_search()


def test_search_stages_are_nested(sporadic_report):
    raw = set(sporadic_report.raw_solutions)
    realizable = set(sporadic_report.realizable)
    sporadic = {row.quadruple for row in sporadic_report.sporadic}
    assert sporadic <= realizable <= raw


def test_sporadic_rows_are_sorted_and_unique(sporadic_report):
    quads = [tuple(a.frac for a in row.quadruple.angles)
             for row in sporadic_report.sporadic]
    assert quads == sorted(quads)
    assert len(set(quads)) == len(quads)


def test_triples_search_finds_the_unique_nontrivial_solution():
    rep = search_triples(SearchConfig())
    assert rep.nontrivial == ((angle(1, 4), angle(1, 4), angle(2, 3)),)
    assert rep.trivial_hits == 21
    key = (Fraction(1, 4), Fraction(1, 4), Fraction(2, 3))
    assert rep.orbit_sizes[key] == 3


def test_realizable_stage_matches_the_direct_decision(sporadic_report):
    """The verdict given to each orbit is the one realizability reaches
    on every member by itself, uncached."""
    rep = sporadic_report
    assert rep.realizable == tuple(q for q in rep.raw_solutions
                                   if realizability.__wrapped__(q).realizable)


def _counted_realizability(monkeypatch) -> list:
    """search.realizability wrapped, as the benchmark wraps it, to record
    each quadruple it is asked about."""
    calls = []

    def counted(q, decide=search.realizability):
        calls.append(q)
        return decide(q)

    monkeypatch.setattr(search, "realizability", counted)
    return calls


def test_the_search_decides_realizability_once_per_orbit(monkeypatch, sporadic_report):
    calls = _counted_realizability(monkeypatch)
    rep = run_sporadic_search()
    assert len(calls) == len(set(calls)) == 262
    assert rep.raw_solutions == sporadic_report.raw_solutions
    assert rep.realizable == sporadic_report.realizable
    # each orbit is decided at its first member in sorted order
    assert calls == sorted(calls, key=lambda q: q.angles)
    assert calls[0] == rep.raw_solutions[0]


def test_solution_numerators_canonicalize_and_deduplicate(sporadic_report):
    """Repeated tuples count once, c < d is swapped, and a = b (q = 0)
    has no quadruple."""
    order = PAPER_GRID.order
    tuples = PAPER_GRID.zero_sum_tuples
    swapped = [(a, b, d, c) for a, b, c, d in tuples]
    degenerate = (105,) * 4  # pi/2 four times
    raw = list(sporadic_report.raw_solutions)
    assert _quadruples(_solution_numerators(tuples, order), order) == raw
    assert (_quadruples(_solution_numerators([degenerate, *swapped[::-1], *tuples],
                                             order), order) == raw)


def test_mann_grid_funnel(monkeypatch):
    """The divisors-of-210 grid: 967,774,500 candidates, 66,136 exact
    solutions, 11,496 realizable, 91 on no catalog family, with one
    realizability decision per each of the 22,074 orbits."""
    assert MANN_GRID.denominators == tuple(d for d in range(1, 211) if 210 % d == 0)
    assert set(PAPER_GRID.denominators) < set(MANN_GRID.denominators)
    assert MANN_GRID.order == PAPER_GRID.order == 420
    calls = _counted_realizability(monkeypatch)
    rep = run_sporadic_search(grid=MANN_GRID)
    assert rep.candidates_scanned == candidate_count(MANN_GRID) == 967_774_500
    assert rep.raw_solution_count == 66_136
    assert rep.realizable_count == 11_496
    assert rep.sporadic_count == 91
    assert len(calls) == 22_074
    assert rep.config is None


def test_a_search_config_describes_only_the_paper_grid(sporadic_report):
    """An explicit cfg with another grid is refused before any search; a
    grid equal to PAPER_GRID keeps it, as the default run does."""
    with pytest.raises(ValueError, match="PAPER_GRID"):
        run_sporadic_search(SearchConfig(), grid=MANN_GRID)
    with pytest.raises(ValueError, match="PAPER_GRID"):
        run_sporadic_search(SearchConfig(), grid=Grid((1, 2, 3)))
    assert sporadic_report.config == SearchConfig()
    rep = run_sporadic_search(SearchConfig(), grid=Grid(PAPER_GRID.denominators))
    assert rep.config == SearchConfig()
