import hashlib
import itertools
from collections import Counter
from dataclasses import replace
from functools import cache

import pytest

from segtrees import (
    BUDGET_EXCEEDED,
    CONSTRUCTIVE,
    COUNT_ALL,
    EXHAUSTED_NONE,
    FIND_ONE,
    FOUND,
    GUARD_Q,
    NOT_SEG,
    BudgetExceeded,
    GuardRefused,
    NotCertifiable,
    SearchConfig,
    build_tree,
    certify_not_seg,
    classify,
    count_all,
    enumerate_specs,
    make_certificate,
    parse_spec,
    search,
    verify,
)
from oracle import naive_count, naive_exists, naive_is_seg_assignment, naive_solutions

ALL_FLAGS = [
    SearchConfig(break_leaf_permutations=l, break_equal_spine_vertices=s)
    for l, s in itertools.product([True, False], repeat=2)
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


# each tree's brute-force count is shared by its 8 cases
_naive_count = cache(naive_count)


# the ids keep the N digit of the retired negation flag, which now picks the
# check: N1 compares the count with the oracle, N0 compares find-one's outcome
# and checks that the negation of the labeling found is SEG too
@pytest.mark.parametrize("text", ["RT(1,1)", "RT(0,1,1)", "RT(2,1)", "RT(1,1,1)",
                                  "RT(0^2,1,1)", "RT(0^2,2,1)", "RT(0^4,1,1)",
                                  "RT(2^2)"])
@pytest.mark.parametrize("check, cfg", [
    pytest.param(n, c, id=f"{n}L{int(c.break_leaf_permutations)}"
                          f"S{int(c.break_equal_spine_vertices)}")
    for n in ("N1", "N0") for c in ALL_FLAGS
])
def test_every_flag_combo_matches_naive(text, check, cfg):
    spec = parse_spec(text)
    expected = _naive_count(spec.counts)
    if check == "N1":
        assert count_all(spec, cfg).count == expected
        return
    r = search(spec, replace(cfg, mode=FIND_ONE))
    assert (r.outcome == FOUND) == (expected > 0)
    if r.labeling is not None:
        tree = build_tree(spec)
        negated = {e: -lab for e, lab in r.labeling.items()}
        assert verify(tree, negated).is_seg
        assert naive_is_seg_assignment(spec.counts, [negated[e] for e in tree.edge_ids])


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
    # RT(0,1,1) is refused before the first node (one-leaf zero); this
    # refutation still searches
    r = search(parse_spec("RT(0,1,3)"), SearchConfig(mode=FIND_ONE))
    assert r.outcome == EXHAUSTED_NONE
    assert r.count == 0
    assert r.labeling is None
    assert r.nodes_visited > 0


def test_deterministic_across_runs():
    spec = parse_spec("RT(2,2,1)")
    cfg = SearchConfig(mode=COUNT_ALL)
    assert search(spec, cfg) == search(spec, cfg)


@pytest.mark.parametrize("mode", ["count", "find_one", "", None])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ValueError, match="find-one.*count-all"):
        search(parse_spec("RT(1,1)"), SearchConfig(mode=mode))


def test_mode_constants_distinct():
    assert len({FIND_ONE, COUNT_ALL}) == 2
    assert len({FOUND, EXHAUSTED_NONE, BUDGET_EXCEEDED}) == 3


# outcome and count under every flag set and both modes for q <= 9: no search
# order may move them.  The first labeling found depends on the order, so
# each one is checked, not hashed.  Every count is even: the engine must
# find both f and -f
SEARCH_ORDER_DIGEST_Q9 = "b3a519fbd570b61f60821f1323415701eeefacc99b66af63a060be2a800f198d"


def test_search_order_digest_q9():
    h = hashlib.sha256()
    runs = nodes = 0
    for spec in enumerate_specs(9):
        tree = build_tree(spec)
        for cfg in ALL_FLAGS:
            flags = (cfg.break_leaf_permutations, cfg.break_equal_spine_vertices)
            for mode in (FIND_ONE, COUNT_ALL):
                r = search(spec, replace(cfg, mode=mode))
                h.update(repr((spec.counts, flags, mode, r.outcome, r.count)).encode())
                runs += 1
                nodes += r.nodes_visited
                if mode == COUNT_ALL:
                    assert r.count % 2 == 0, (spec.format(), flags)
                if r.labeling is not None:
                    assert verify(tree, r.labeling).is_seg, spec.format()
                    flat = [r.labeling[e] for e in tree.edge_ids]
                    assert naive_is_seg_assignment(spec.counts, flat), spec.format()
    assert runs == 408
    # 370,088 while the last group was searched: its a! orderings in the
    # flags-off count runs are now placed once and re-expanded; 150,684
    # before the one-leaf zero and spine-sum sign cuts
    assert nodes == 76_397
    assert h.hexdigest() == SEARCH_ORDER_DIGEST_Q9


# earlier values, newest first: before the one-leaf zero and sign cuts;
# before the exact cover and the zero window; with the pendants on the spine
@pytest.mark.parametrize("text, mode, nodes", [
    # every branch vertex has one leaf and q is odd: refused before a node
    ("RT(0^3,1^5)", FIND_ONE, 0),  # 856; 5,317; 76,017
    ("RT(0,1^6)", FIND_ONE, 0),  # 1,649; 10,824; 20,577
    ("RT(4,1^4)", COUNT_ALL, 1_734),  # 5,967; 14,390; 53,926
    ("RT(0,1^8)", FIND_ONE, 0),  # 26,588; 437,935
    # even q, so 0 in R; root sum checked on the spine
    ("RT(1^6)", COUNT_ALL, 3_279),  # 3,849
    ("RT(0^4,1^4)", COUNT_ALL, 4_772),  # 8,517; even q, root sum from the pendant group
    ("RT(2,1^6)", FIND_ONE, 172),  # 17,273; odd q; root sum checked on the spine
    # a refutation that still searches: 0 has one home, the 35-leaf vertex
    ("RT(0,1,35)", FIND_ONE, 815),  # 854
])
def test_node_counts_pinned(text, mode, nodes):
    r = search(parse_spec(text), SearchConfig(mode=mode, override_guard=True))
    assert r.nodes_visited == nodes


@pytest.mark.parametrize("text, cfg, nodes, count", [
    # unsorted last groups, placed once and re-expanded by a!: the pendant
    # group with equal-spine breaking off (5,080 nodes when searched) and a
    # leaf group of 3 with leaf breaking off (542 when searched).  Before
    # the spine-sum sign cut: 520, 206 and 264 nodes
    ("RT(0^4,1,1)", SearchConfig(break_equal_spine_vertices=False), 304, 1_824),
    ("RT(2,3)", SearchConfig(break_leaf_permutations=False), 120, 168),
    ("RT(0^4,1,1)", SearchConfig(), 156, 1_824),
])
def test_count_nodes_pinned_and_budget_exact(text, cfg, nodes, count):
    # a budget b below the run's nodes stops it after exactly b nodes, also
    # when it runs out inside a placed last group; b = nodes is enough
    spec = parse_spec(text)
    for b in (None, nodes):
        r = count_all(spec, replace(cfg, node_budget=b))
        assert (r.outcome, r.nodes_visited, r.count) == (FOUND, nodes, count)
    for b in range(nodes):
        r = count_all(spec, replace(cfg, node_budget=b))
        assert (r.outcome, r.nodes_visited, r.count) == (BUDGET_EXCEEDED, b, None), b


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
    spec = parse_spec("RT(0,1,3)")
    cert = certify_not_seg(spec)
    assert cert["spec"] == "RT(0,1,3)"
    assert cert["q"] == 7
    assert cert["edge_target"] == [-3, -2, -1, 0, 1, 2, 3]
    assert cert["vertex_target"] == [-4, -3, -2, -1, 1, 2, 3, 4]
    assert cert["outcome"] == EXHAUSTED_NONE
    assert cert["result"] == "none"
    assert cert["nodes_visited"] > 0
    assert set(cert["flags"]) == {"break_leaf_permutations", "break_equal_spine_vertices"}
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
        results = {(c.break_leaf_permutations, c.break_equal_spine_vertices):
                   count_all(spec, c) for c in ALL_FLAGS}
        outcomes = {(r.outcome, r.count) for r in results.values()}
        assert len(outcomes) == 1, (spec.format(), outcomes)


def test_theory_matches_find_one_under_every_flag_set():
    # theory-vs-oracle agreement through q = 11, under all 4 flag sets
    for spec in enumerate_specs(11):
        status = classify(spec).status
        if status not in (CONSTRUCTIVE, NOT_SEG):
            continue
        for cfg in ALL_FLAGS:
            r = search(spec, cfg)
            assert (r.outcome == FOUND) == (status == CONSTRUCTIVE), (spec.format(), cfg)
            assert r.labeling is None or verify(build_tree(spec), r.labeling).is_seg


def test_counts_always_even():
    # the two theorems the search cuts by, on the oracle's labelings.  For odd
    # q, 0 sits on the spine edge of a vertex with two or more leaves.  The
    # branch spine sum S is as often > 0 as < 0, and the S = 0 labelings pair
    # up under negation, so every count is even
    solutions = 0
    for spec in enumerate_specs(7):
        counts, n = spec.counts, spec.n
        signs = Counter()
        for flat in naive_solutions(counts):
            if spec.q % 2:
                at = flat.index(0)
                assert at < n and counts[at] >= 2, (spec.format(), flat)
            s = sum(v for v, a in zip(flat, counts) if a)
            signs[(s > 0) - (s < 0)] += 1
        assert signs[1] == signs[-1], (spec.format(), signs)
        assert signs[0] % 2 == 0, (spec.format(), signs)
        solutions += sum(signs.values())
    assert solutions == 586


def test_breaking_reduces_nodes():
    spec = parse_spec("RT(0^2,1^2)")
    broken = count_all(spec, SearchConfig()).nodes_visited
    unbroken = count_all(
        spec,
        SearchConfig(break_leaf_permutations=False, break_equal_spine_vertices=False),
    ).nodes_visited
    assert broken < unbroken
