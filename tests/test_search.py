from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphertet.angles import angle
from sphertet.cyclotomic import cos_as_cyclotomic, key_numerator
from sphertet.search import (
    GRID_DENOMINATORS,
    SearchConfig,
    candidate_count,
    field_order,
    grid_angles,
    search_triples,
    twice_cosine_sum,
    unordered_pairs,
    verify_no_length4_solutions,
    zero_sum_tuples,
    _pair_candidates,
    _search_grids,
)

def test_union_denominators():
    assert GRID_DENOMINATORS == (1, 2, 3, 5, 7, 15)


def test_grid_angles_open_range():
    third = grid_angles((3,), Fraction(0), Fraction(1))
    assert third == [angle(1, 3), angle(2, 3)]
    wide = grid_angles((2,), Fraction(0), Fraction(2))
    assert wide == [angle(1, 2), angle(3, 2)]
    assert angle(1, 1) not in grid_angles((1,), Fraction(0), Fraction(1))


def test_grid_sizes_match_the_denominator_lists():
    a_vals, b_vals, cd_vals = _search_grids()
    assert len(a_vals) == 43  # (0, 2pi) over the union list
    assert len(b_vals) == 22  # [0, pi), zero included
    assert len(cd_vals) == 21  # (0, pi)


def test_candidate_count():
    # 231 unordered {c, d} pairs times the admissible (a, b) pairs
    a_vals, b_vals, _ = _search_grids()
    pairs = _pair_candidates(a_vals, b_vals)
    assert candidate_count() == len(pairs) * (21 * 22 // 2)
    assert candidate_count() == 111804


def test_search_config_pins_a_single_process():
    assert SearchConfig(workers=1) == SearchConfig()
    assert "workers" not in SearchConfig().describe()
    with pytest.raises(ValueError):
        SearchConfig(workers=2)


def test_no_length_four_relations():
    assert verify_no_length4_solutions()


_A_VALS, _B_VALS, _CD_VALS = _search_grids()


@lru_cache(maxsize=None)
def _join_output() -> frozenset:
    return frozenset(zero_sum_tuples())


def test_confirm_zero_accepts_known_solution():
    # cos pi + cos pi/3 + cos 3pi/5 + cos pi/5 = 0
    hit = (angle(1), angle(1, 3), angle(3, 5), angle(1, 5))
    assert hit in _join_output()


def test_confirm_zero_rejects_non_solution():
    # cos pi/3 + cos pi/5 + cos pi/2 + cos pi/7 != 0
    miss = (angle(1, 3), angle(1, 5), angle(1, 2), angle(1, 7))
    assert miss not in _join_output()
    assert not any(sorted(t) == sorted(miss) for t in _join_output())


@given(st.sampled_from(_pair_candidates(_A_VALS, _B_VALS)),
       st.sampled_from(unordered_pairs(_CD_VALS)))
# b = 0: cos 2pi/3 + cos 0 + cos 2pi/3 + cos pi/2 = 0
@example((angle(2, 3), angle(0)), (angle(2, 3), angle(1, 2)))
@settings(max_examples=200)
def test_prefilter_never_discards_exact_zeros(ab, cd):
    """A grid candidate is in the join's output exactly when its cosine
    sum, added up as CyclotomicNumbers, is zero."""
    a, b = ab
    c, d = cd
    total = (cos_as_cyclotomic(a) + cos_as_cyclotomic(b)
             + cos_as_cyclotomic(c) + cos_as_cyclotomic(d))
    assert ((a, b, c, d) in _join_output()) == total.is_zero()


@pytest.mark.parametrize("order", [420, 2520])
def test_join_vectors_are_the_embedded_cosines(order):
    """Each join key packs 2 cos x embedded from Q(zeta_(2 den)) into
    Q(zeta_order), for every angle of the default grid."""
    dens = GRID_DENOMINATORS
    assert field_order(dens) == 420
    for x in [angle(0)] + grid_angles(dens, Fraction(0), Fraction(2)):
        twice = (cos_as_cyclotomic(x) * 2).embed(order)
        assert twice.den == 1
        assert key_numerator(order, twice_cosine_sum(((1, x),), order)) == twice.num, x


def test_join_vectors_need_the_field_of_the_angle():
    with pytest.raises(ValueError):
        twice_cosine_sum(((1, angle(1, 8)),), 420)


def test_search_pipeline_counts(sporadic_report):
    rep = sporadic_report
    assert rep.candidates_scanned == 111804
    assert rep.raw_solution_count == 790
    assert rep.realizable_count == 208
    assert rep.family_member_count == 149
    assert rep.sporadic_count == 59
    assert rep.length4_skip_verified
    assert rep.prefilter_hits >= rep.raw_solution_count


def test_search_stages_are_nested(sporadic_report):
    raw = set(sporadic_report.stage_quadruples("raw"))
    realizable = set(sporadic_report.stage_quadruples("realizable"))
    sporadic = set(sporadic_report.stage_quadruples("sporadic"))
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
