import itertools

import pytest

from segtrees import (
    BUDGET_EXCEEDED,
    COUNT_ALL,
    EXHAUSTED_NONE,
    FIND_ONE,
    FOUND,
    GUARD_Q,
    BudgetExceeded,
    GuardRefused,
    NotCertifiable,
    SearchConfig,
    build_tree,
    certify_not_seg,
    count_all,
    enumerate_specs,
    make_certificate,
    parse_spec,
    search,
    verify,
)
from oracle import naive_count, naive_exists

ALL_FLAGS = [
    SearchConfig(break_negation=n, break_leaf_permutations=l,
                 break_equal_spine_vertices=s)
    for n, l, s in itertools.product([True, False], repeat=3)
]


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", enumerate_specs(7), ids=lambda s: s.format())
def test_counts_match_naive_oracle(spec):
    expected = naive_count(spec.counts)
    result = count_all(spec)
    assert result.count == expected
    assert (result.outcome == FOUND) == (expected > 0)


@pytest.mark.parametrize("text", ["RT(1,1)", "RT(0,1,1)", "RT(2,1)", "RT(1,1,1)"])
@pytest.mark.parametrize("cfg", ALL_FLAGS,
                         ids=lambda c: f"N{int(c.break_negation)}"
                                       f"L{int(c.break_leaf_permutations)}"
                                       f"S{int(c.break_equal_spine_vertices)}")
def test_every_flag_combo_matches_naive(text, cfg):
    spec = parse_spec(text)
    assert count_all(spec, cfg).count == naive_count(spec.counts)


def test_existence_matches_naive_q6():
    for spec in enumerate_specs(6):
        r = search(spec, SearchConfig(mode=FIND_ONE))
        assert (r.outcome == FOUND) == naive_exists(spec.counts), spec.format()


# ---------------------------------------------------------------------------
# frozen values and result shape
# ---------------------------------------------------------------------------

def test_rt11_has_exactly_two_labelings():
    r = count_all(parse_spec("RT(1,1)"))
    assert r.outcome == FOUND
    assert r.count == 2


def test_found_labeling_is_seg():
    spec = parse_spec("RT(0,2,3)")
    r = search(spec, SearchConfig(mode=FIND_ONE))
    assert r.outcome == FOUND
    assert verify(build_tree(spec), r.labeling).is_seg
    assert r.count is None


def test_find_one_exhaustion_reports_zero_count():
    r = search(parse_spec("RT(0,1,1)"), SearchConfig(mode=FIND_ONE))
    assert r.outcome == EXHAUSTED_NONE
    assert r.count == 0
    assert r.labeling is None
    assert r.nodes_visited > 0


def test_deterministic_across_runs():
    spec = parse_spec("RT(2,2,1)")
    cfg = SearchConfig(mode=COUNT_ALL)
    assert search(spec, cfg) == search(spec, cfg)


def test_mode_constants_distinct():
    assert len({FIND_ONE, COUNT_ALL}) == 2
    assert len({FOUND, EXHAUSTED_NONE, BUDGET_EXCEEDED}) == 3


# ---------------------------------------------------------------------------
# budget and guard
# ---------------------------------------------------------------------------

def test_budget_stops_search():
    r = search(parse_spec("RT(0^3,3,5)"), SearchConfig(mode=COUNT_ALL, node_budget=50))
    assert r.outcome == BUDGET_EXCEEDED
    assert r.nodes_visited <= 50
    assert r.count is None


def test_zero_budget_immediate_stop():
    r = search(parse_spec("RT(1,1)"), SearchConfig(node_budget=0))
    assert r.outcome == BUDGET_EXCEEDED
    assert r.nodes_visited == 0


def test_guard_refuses_large_trees():
    big = parse_spec("RT(0^9,8,8)")  # q = 27
    assert big.q > GUARD_Q
    with pytest.raises(GuardRefused):
        search(big)
    # override runs, bounded here by a tiny budget
    r = search(big, SearchConfig(node_budget=10, override_guard=True))
    assert r.outcome == BUDGET_EXCEEDED


def test_guard_boundary_inclusive():
    at_limit = parse_spec("RT(0^8,7,7)")  # q = 24 exactly
    assert at_limit.q == GUARD_Q
    r = search(at_limit, SearchConfig(node_budget=10))
    assert r.outcome == BUDGET_EXCEEDED  # ran, not refused


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_contents():
    spec = parse_spec("RT(0,1,1)")
    cert = certify_not_seg(spec)
    assert cert["spec"] == "RT(0,1^2)"
    assert cert["q"] == 5
    assert cert["edge_target"] == [-2, -1, 0, 1, 2]
    assert cert["vertex_target"] == [-3, -2, -1, 1, 2, 3]
    assert cert["outcome"] == EXHAUSTED_NONE
    assert cert["result"] == "none"
    assert cert["nodes_visited"] > 0
    assert set(cert["flags"]) == {
        "break_negation", "break_leaf_permutations", "break_equal_spine_vertices"
    }
    assert cert["version"]


def test_certify_refuses_seg_tree():
    with pytest.raises(NotCertifiable):
        certify_not_seg(parse_spec("RT(1,1)"))


def test_certify_budget_exceeded_raises():
    with pytest.raises(BudgetExceeded):
        certify_not_seg(parse_spec("RT(0,1,5)"), SearchConfig(node_budget=3))


def test_make_certificate_from_result():
    spec = parse_spec("RT(0,1,1)")
    cfg = SearchConfig(mode=FIND_ONE)
    result = search(spec, cfg)
    cert = make_certificate(spec, cfg, result)
    assert cert["nodes_visited"] == result.nodes_visited
    with pytest.raises(NotCertifiable):
        make_certificate(spec, cfg, search(parse_spec("RT(1,1)"), cfg))


# ---------------------------------------------------------------------------
# symmetry properties
# ---------------------------------------------------------------------------

def test_flag_combos_agree_on_q8_sample():
    for spec in enumerate_specs(8):
        results = {(c.break_negation, c.break_leaf_permutations,
                    c.break_equal_spine_vertices):
                   count_all(spec, c) for c in ALL_FLAGS}
        outcomes = {(r.outcome, r.count) for r in results.values()}
        assert len(outcomes) == 1, (spec.format(), outcomes)


def test_counts_always_even():
    for spec in enumerate_specs(8):
        r = count_all(spec)
        assert r.count % 2 == 0, spec.format()


def test_breaking_reduces_nodes():
    spec = parse_spec("RT(0^2,1^2)")
    broken = count_all(spec, SearchConfig()).nodes_visited
    unbroken = count_all(
        spec,
        SearchConfig(break_negation=False, break_leaf_permutations=False,
                     break_equal_spine_vertices=False),
    ).nodes_visited
    assert broken < unbroken
