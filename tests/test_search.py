import gc
import hashlib
import importlib
import random
import sys
from collections import Counter
from functools import cache
from itertools import accumulate, combinations, groupby, permutations, product
from math import factorial, prod

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
    UNCOVERED,
    GuardRefused,
    build_tree,
    classify,
    enumerate_specs,
    induce,
    make_certificate,
    parse_spec,
    search,
    verify,
)
from oracle import (
    cover_count,
    naive_count,
    naive_exists,
    naive_is_seg_assignment,
    naive_solutions,
)
from segtrees.search import _plan, _subset_sums

search_module = importlib.import_module("segtrees.search")  # segtrees.search is the function


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", enumerate_specs(7), ids=lambda s: s.format())
def test_counts_match_naive_oracle(spec):
    expected = naive_count(spec.counts)
    result = search(spec, COUNT_ALL)
    assert result.count == expected == cover_count(spec.counts)
    assert (result.outcome == FOUND) == (expected > 0)


def test_cover_count_matches_count_all_q10():
    # the exact-cover counter shares no cut with the search; CI runs this to q <= 12
    specs = enumerate_specs(10)
    assert len(specs) == 83
    for spec in specs:
        assert cover_count(spec.counts) == search(spec, COUNT_ALL).count, spec.format()


# each tree's brute-force solutions are shared by its 8 cases
_naive_solutions = cache(lambda counts: list(naive_solutions(counts)))


def _leaf_groups_and_runs(counts):
    # the slots of each vertex's leaves, and the vertices of each equal-count run
    n = len(counts)
    at = list(accumulate(counts, initial=n))
    runs = list(accumulate((len(list(g)) for _, g in groupby(counts)), initial=0))
    return ([range(at[i], at[i + 1]) for i in range(n)],
            [range(runs[k], runs[k + 1]) for k in range(len(runs) - 1)])


def _leaves_ascend(flat, groups):
    return all(flat[s] < flat[s + 1] for g in groups for s in g[:-1])


def _runs_ascend(flat, runs, counts):
    # a run of branch vertices ascends in the spine order 0, -1, 1, -2, 2, ...,
    # by the key (|v|, v); the pendants are the root's leaf group and ascend
    # numerically.  The labels are distinct, so exactly one reordering of a
    # run ascends under either order, and the N1 count identity holds for both
    def key(d):
        return (abs(flat[d]), flat[d]) if counts[d] else flat[d]
    return all(key(d) < key(d + 1) for r in runs for d in r[:-1])


def _leaf_reorderings(flat, groups):
    for perms in product(*(permutations(g) for g in groups)):
        out = list(flat)
        for g, p in zip(groups, perms):
            for s, t in zip(g, p):
                out[s] = flat[t]
        yield out


def _run_reorderings(flat, groups, runs):
    # whole vertices, spine label and leaves, move within their run
    for perms in product(*(permutations(r) for r in runs)):
        out = list(flat)
        for r, p in zip(runs, perms):
            for d, e in zip(r, p):
                out[d] = flat[e]
                for s, t in zip(groups[d], groups[e]):
                    out[s] = flat[t]
        yield out


# the ids keep the digits of the retired flags, which now pick checks against
# the brute-force oracle.  N1 checks count mode and cover_count against the
# oracle's count; there L1 (S1) checks that the oracle's solutions whose leaf
# groups (equal-count runs, by ``_runs_ascend``) ascend, times the a! (m!)
# orderings each stands for, are all of them: the re-expansion the search
# relies on.  N0 checks find-one's outcome and that the negation of its
# labeling is SEG; there L1 (S1) checks that its leaf groups (runs) ascend,
# and L0 (S0) that every reordering of them is SEG too
@pytest.mark.parametrize("text", ["RT(1,1)", "RT(0,1,1)", "RT(2,1)", "RT(1,1,1)",
                                  "RT(0^2,1,1)", "RT(0^2,2,1)", "RT(0^4,1,1)",
                                  "RT(2^2)"])
@pytest.mark.parametrize("check, leaves, spine", [
    pytest.param(n, l, s, id=f"{n}L{int(l)}S{int(s)}")
    for n in ("N1", "N0") for l in (True, False) for s in (True, False)
])
def test_every_flag_combo_matches_naive(text, check, leaves, spine):
    spec = parse_spec(text)
    solutions = _naive_solutions(spec.counts)
    groups, runs = _leaf_groups_and_runs(spec.counts)
    if check == "N1":
        assert search(spec, COUNT_ALL).count == cover_count(spec.counts) == len(solutions)
        if leaves:
            kept = sum(1 for f in solutions if _leaves_ascend(f, groups))
            assert kept * prod(map(factorial, spec.counts)) == len(solutions)
        if spine:
            kept = sum(1 for f in solutions if _runs_ascend(f, runs, spec.counts))
            assert kept * prod(factorial(len(r)) for r in runs) == len(solutions)
        return
    r = search(spec)
    assert (r.outcome == FOUND) == bool(solutions)
    if r.labeling is None:
        return
    tree = build_tree(spec)
    flat = r.labeling.slots
    negated = {e: -lab for e, lab in r.labeling.edges().items()}
    assert verify(tree, negated).is_seg
    assert naive_is_seg_assignment(spec.counts, [-v for v in flat])
    if leaves:
        assert _leaves_ascend(flat, groups)
    else:
        assert all(naive_is_seg_assignment(spec.counts, f)
                   for f in _leaf_reorderings(flat, groups))
    if spine:
        assert _runs_ascend(flat, runs, spec.counts)
    else:
        assert all(naive_is_seg_assignment(spec.counts, f)
                   for f in _run_reorderings(flat, groups, runs))


def test_existence_matches_naive_q6():
    for spec in enumerate_specs(6):
        r = search(spec, FIND_ONE)
        assert (r.outcome == FOUND) == naive_exists(spec.counts), spec.format()


# ---------------------------------------------------------------------------
# frozen values and result shape
# ---------------------------------------------------------------------------

def test_rt11_has_exactly_two_labelings():
    r = search(parse_spec("RT(1,1)"), COUNT_ALL)
    assert r.outcome == FOUND
    assert r.count == 2


def test_found_labeling_is_seg():
    spec = parse_spec("RT(0,2,3)")
    r = search(spec, FIND_ONE)
    assert r.outcome == FOUND
    assert verify(build_tree(spec), r.labeling.edges()).is_seg
    assert r.count is None


def test_survey_style_search_names_no_edges():
    # a survey row reads only the outcome and the nodes: search verifies the
    # slot list without naming an edge; the dict is built only on request
    r = search(parse_spec("RT(0,2,3)"), node_budget=10**6)
    assert r.outcome == FOUND
    lab = r.labeling
    assert "edge_ids" not in lab.tree.__dict__
    assert lab.edges() == dict(zip(lab.tree.edge_ids, lab.slots))


def test_find_one_exhaustion_reports_zero_count():
    # RT(0,1,1) is refused before the first node (one-leaf zero); this
    # refutation still searches
    r = search(parse_spec("RT(0,1,3)"), FIND_ONE)
    assert r.outcome == EXHAUSTED_NONE
    assert r.count == 0
    assert r.labeling is None
    assert r.nodes_visited > 0


def test_deterministic_across_runs():
    spec = parse_spec("RT(2,2,1)")
    assert search(spec, COUNT_ALL) == search(spec, COUNT_ALL)


@pytest.mark.parametrize("mode", ["count", "find_one", "", None])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ValueError, match="find-one.*count-all"):
        search(parse_spec("RT(1,1)"), mode)


@pytest.mark.parametrize("budget", ["10", 1.5, -1, True, False])
def test_bad_node_budget_rejected(budget):
    # "10" used to die in the engine, 1.5 to stop after 2 nodes, -1 to mean 0
    with pytest.raises(ValueError, match="node_budget must be None or an int >= 0"):
        search(parse_spec("RT(1,1)"), node_budget=budget)


def test_mode_constants_distinct():
    assert len({FIND_ONE, COUNT_ALL}) == 2
    assert len({FOUND, EXHAUSTED_NONE, BUDGET_EXCEEDED}) == 3


# outcome and count in both modes for q <= 9: no search order may move them.
# The first labeling found depends on the order, so each one is checked, not
# hashed.  Every count is even: the engine must find both f and -f
SEARCH_ORDER_DIGEST_Q9 = "ebc7e824ebd44f574ab0fc37f3776678c6b9b6af3158b071fd30003e79c691e6"


def test_search_order_digest_q9():
    h = hashlib.sha256()
    runs = nodes = 0
    for spec in enumerate_specs(9):
        tree = build_tree(spec)
        for mode in (FIND_ONE, COUNT_ALL):
            r = search(spec, mode)
            h.update(repr((spec.counts, mode, r.outcome, r.count)).encode())
            runs += 1
            nodes += r.nodes_visited
            if mode == COUNT_ALL:
                assert r.count % 2 == 0, spec.format()
            if r.labeling is not None:
                lab, f = r.labeling, r.labeling.edges()
                assert lab.tree == tree
                assert verify(tree, f).is_seg, spec.format()
                flat = [f[e] for e in tree.edge_ids]
                assert lab.slots == flat, spec.format()
                assert lab.induced == list(induce(tree, f).values()), spec.format()
                assert naive_is_seg_assignment(spec.counts, flat), spec.format()
    assert runs == 102
    # 9,268 before count mode read the last two groups off a table of subset
    # sums, 10,014 with the spine labels in ascending order, and before that
    # 76,397 over 408 runs while two symmetry flags made 4 configurations
    assert nodes == 7_950
    assert h.hexdigest() == SEARCH_ORDER_DIGEST_Q9


# earlier values, newest first: with the spine labels in ascending order;
# before the one-leaf zero and sign cuts; before the exact cover and the
# zero window; with the pendants on the spine
@pytest.mark.parametrize("text, mode, nodes", [
    # every branch vertex has one leaf and q is odd: refused before a node
    ("RT(0^3,1^5)", FIND_ONE, 0),  # 856; 5,317; 76,017
    ("RT(0,1^6)", FIND_ONE, 0),  # 1,649; 10,824; 20,577
    ("RT(4,1^4)", COUNT_ALL, 1_731),  # 1,734; 5,967; 14,390; 53,926
    ("RT(0,1^8)", FIND_ONE, 0),  # 26,588; 437,935
    # even q, so 0 in R; root sum checked on the spine
    ("RT(1^6)", COUNT_ALL, 3_262),  # 3,279; 3,849
    ("RT(0^4,1^4)", COUNT_ALL, 4_762),  # 4,772; 8,517; even q, root sum from the pendant group
    ("RT(2,1^6)", FIND_ONE, 17),  # 172; 17,273; odd q; root sum checked on the spine
    # a refutation that still searches: 0 has one home, the 35-leaf vertex
    ("RT(0,1,35)", FIND_ONE, 112),  # 815; 854
])
def test_node_counts_pinned(text, mode, nodes):
    r = search(parse_spec(text), mode, override_guard=True)
    assert r.nodes_visited == nodes


@pytest.mark.parametrize("text, nodes, count", [
    # placed last groups of 3 or more labels: a leaf group of 3, a pendant
    # group of 3 and one of 4.  RT(2,3) and RT(0^3,1,3) took 67 and 99 nodes
    # before count mode read the last two groups off a table of subset sums,
    # 82 and 127 with the spine labels in ascending order, and RT(0^4,1,1)
    # 264 before the spine-sum sign cut
    ("RT(2,3)", 50, 168),
    ("RT(0^3,1,3)", 62, 576),
    ("RT(0^4,1,1)", 156, 1_824),
])
def test_count_nodes_pinned_and_budget_exact(text, nodes, count):
    # a budget b below the run's nodes stops it after exactly b nodes, also
    # when it runs out inside a placed last group or at a read of the last two
    # groups' table; b = nodes is enough
    spec = parse_spec(text)
    for b in (None, nodes):
        r = search(spec, COUNT_ALL, node_budget=b)
        assert (r.outcome, r.nodes_visited, r.count) == (FOUND, nodes, count)
    for b in range(nodes):
        r = search(spec, COUNT_ALL, node_budget=b)
        assert (r.outcome, r.nodes_visited, r.count) == (BUDGET_EXCEEDED, b, None), b


# count trees with q = 10 that scan many labels closing nothing (409, 302
# and 382 of their nodes; 1,534, 1,423 and 1,012 of 8,836, 6,683 and 3,767
# before count mode read the last two groups off a table of subset sums):
# such a label costs a node and makes no call, so a budget that runs out on
# one must still stop exactly
@pytest.mark.parametrize("text, nodes, count", [
    ("RT(0^2,2^2,1)", 6_642, 34_880),
    ("RT(0,2^2,3)", 4_871, 72_576),
    ("RT(0^2,2^3)", 2_790, 62_016),
])
def test_count_budget_stops_exact_q10(text, nodes, count):
    spec = parse_spec(text)
    for b in (nodes - 1, nodes // 2):
        r = search(spec, COUNT_ALL, node_budget=b)
        assert (r.outcome, r.nodes_visited, r.count) == (BUDGET_EXCEEDED, b, None), b
    for b in (None, nodes):
        r = search(spec, COUNT_ALL, node_budget=b)
        assert (r.outcome, r.nodes_visited, r.count) == (FOUND, nodes, count)


def test_count_nodes_total_q10():
    # once it has its first labeling, count mode reads the last two groups
    # off a table of subset sums and charges each labeling 1 + a_last nodes,
    # as a placed last group does (102,902 scanning the second-to-last group,
    # and 103,505 with the spine labels in ascending order)
    results = [search(spec, COUNT_ALL) for spec in enumerate_specs(10)]
    assert sum(r.nodes_visited for r in results) == 83_086
    assert sum(r.count for r in results) == 2_073_658


def test_subset_sums_match_brute_force():
    # field s of _subset_sums(bits, a, w) is the number of a-subsets of bits
    # summing to s, also for a = 0 and a = len(bits), in the narrowest fields
    # w = len(bits) + 1; a sum no subset reaches reads 0, past the table too
    rng = random.Random(0)
    cases = [(rng.sample(range(25), m), a) for m in range(13) for a in {0, m // 2, m}]
    cases += [(rng.sample(range(40), m), rng.randint(0, m)) for m in rng.choices(range(1, 16), k=40)]
    for bits, a in cases:
        w = len(bits) + 1
        table = _subset_sums(bits, a, w)
        want = Counter(map(sum, combinations(bits, a)))
        top = sum(sorted(bits)[len(bits) - a:])
        assert table >> (top + 1) * w == 0, (bits, a)
        for s in range(top + 4):
            assert table >> s * w & (1 << w) - 1 == want[s], (bits, a, s)


# count runs where the last two groups' table of subset sums does the work:
# the counts are those of the scan it replaced, the nodes fall below
# ``scanned`` (the nodes when the second-to-last group was scanned), and a
# table cap of 1 pool moves nothing
@pytest.mark.parametrize("text, count, nodes, scanned", [
    ("RT(6,7)", 10_675_929_600, 12_638, 23_277),
    ("RT(0,6,7)", 272_254_348_800, 300_898, 411_903),
    ("RT(2,4,6)", 201_070_080, 21_493, 32_215),
    ("RT(0^2,2,1^2,5)", 57_561_600, 238_511, 297_593),
    ("RT(0,1^3,3^2)", 16_249_248, 104_374, 196_550),
])
def test_last_two_groups_table_counts(monkeypatch, text, count, nodes, scanned):
    spec = parse_spec(text)
    r = search(spec, COUNT_ALL)
    assert (r.outcome, r.count, r.nodes_visited) == (FOUND, count, nodes)
    assert nodes < scanned
    monkeypatch.setattr(search_module, "SUM_TABLE_CAP", 1)
    assert search(spec, COUNT_ALL) == r


# the spine tries its labels in magnitude order, 0, -1, 1, -2, 2, ...; in
# ascending order these three took 668,239, 530,681 and 445,020 nodes
@pytest.mark.parametrize("text, nodes", [
    ("RT(0^2,2^5,1^2)", 21),
    ("RT(0^2,2^2,1^4,3)", 21),
    ("RT(0^2,2^4,5)", 20),
])
def test_magnitude_order_finds_in_few_nodes(text, nodes):
    spec = parse_spec(text)
    r = search(spec)
    assert (r.outcome, r.nodes_visited) == (FOUND, nodes)
    assert naive_is_seg_assignment(spec.counts, r.labeling.slots)


def test_magnitude_order_refutes_not_seg_q21():
    # every non-SEG tree with q <= 21 is refuted; 1,012 nodes in ascending order
    results = [search(s) for s in enumerate_specs(21) if classify(s).status == NOT_SEG]
    assert len(results) == 53
    assert {r.outcome for r in results} == {EXHAUSTED_NONE}
    assert sum(r.nodes_visited for r in results) == 304


def test_count_budget_stops_exact_q9():
    # a budget below a count run's nodes stops it after exactly that many,
    # also where whole solutions are counted at once; trees refuted in 0
    # nodes have no such budget
    runs = 0
    for spec in enumerate_specs(9):
        nodes = search(spec, COUNT_ALL).nodes_visited
        for b in (nodes - 1, nodes // 2) if nodes else ():
            r = search(spec, COUNT_ALL, node_budget=b)
            assert (r.outcome, r.nodes_visited, r.count) == (BUDGET_EXCEEDED, b, None), (spec.format(), b)
            runs += 1
    assert runs == 90


def test_find_one_budget_stops_exact_q9():
    # a budget below a find-one run's nodes stops it after exactly that many;
    # a budget of exactly its nodes changes nothing
    runs = 0
    for spec in enumerate_specs(9):
        full = search(spec)
        nodes = full.nodes_visited
        for b in (nodes - 1, nodes // 2) if nodes else ():
            r = search(spec, node_budget=b)
            assert (r.outcome, r.nodes_visited, r.count) == (BUDGET_EXCEEDED, b, None), (spec.format(), b)
            runs += 1
        r = search(spec, node_budget=nodes)
        assert (r.outcome, r.nodes_visited, r.labeling) == (full.outcome, nodes, full.labeling)
    assert runs == 90


# ---------------------------------------------------------------------------
# budget and guard
# ---------------------------------------------------------------------------

def test_budget_stops_search():
    r = search(parse_spec("RT(0^3,3,5)"), COUNT_ALL, node_budget=50)
    assert r.outcome == BUDGET_EXCEEDED
    assert r.nodes_visited <= 50
    assert r.count is None


def test_zero_budget_immediate_stop():
    r = search(parse_spec("RT(1,1)"), node_budget=0)
    assert r.outcome == BUDGET_EXCEEDED
    assert r.nodes_visited == 0


def test_guard_refuses_large_trees():
    big = parse_spec("RT(0^9,8,8)")  # q = 27
    assert big.q > GUARD_Q
    with pytest.raises(GuardRefused):
        search(big)
    # override runs, bounded here by a tiny budget
    r = search(big, node_budget=10, override_guard=True)
    assert r.outcome == BUDGET_EXCEEDED


@pytest.mark.parametrize("text", ["RT(4,1^1500)", "RT(0^1500,1600^2)", "RT(1^500000)"])
def test_too_deep_refused_before_the_run(monkeypatch, text):
    # many branches, or a long group before the last: the depth is read off
    # the group plan, so _run is never entered
    def no_run(*args):
        raise AssertionError("_run entered")

    monkeypatch.setattr(search_module, "_run", no_run)
    spec = parse_spec(text)
    assert _plan(spec)[2] > sys.getrecursionlimit()
    with pytest.raises(GuardRefused, match="too deep for the search"):
        search(spec, override_guard=True)


def test_a_search_leaves_no_cyclic_garbage():
    # _run's nested functions reach each other through their cells; every
    # way out of a run clears them, so with the collector off nothing is
    # left for it: found, exhausted and budget-stopped runs in both modes
    seen = set()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in enumerate_specs(9):
            for mode in (FIND_ONE, COUNT_ALL):
                for budget in (None, 5):
                    seen.add((mode, search(spec, mode, budget).outcome))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert seen == {(mode, outcome) for mode in (FIND_ONE, COUNT_ALL)
                    for outcome in (FOUND, EXHAUSTED_NONE, BUDGET_EXCEEDED)}


def test_dfs_depth_bounds_the_nesting_q9():
    # count runs visit every branch, so the deepest nesting shows; it never
    # passes the depth _plan reads off the group plan, and reaches it on some trees
    frames = {"dfs_spine", "next_group", "close", "dfs_group"}
    reached = 0
    for spec in enumerate_specs(9):
        depth = deepest = 0

        def profile(frame, event, arg):
            nonlocal depth, deepest
            if frame.f_code.co_name in frames:
                if event == "call":
                    depth += 1
                    deepest = max(deepest, depth)
                elif event == "return":
                    depth -= 1

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            search(spec, COUNT_ALL)
        finally:
            sys.setprofile(old)
        planned = _plan(spec)[2]
        assert deepest <= planned, spec
        reached += deepest == planned
    assert reached


# find-one past GUARD_Q: the nodes and a hash of the first labeling.  At
# q = 33 the pool spans five bytes
def test_uncovered_trees_to_q35_found_within_q_plus_64_nodes():
    # the paper gives no rule for j odd, k >= 4 even, l = 0; find-one labels
    # every such tree with q <= 35 within q + 64 nodes (at most 28 past q, and
    # 535 of the 683 in q nodes or fewer), the evidence a rule would rest on
    specs = [s for s in enumerate_specs(35) if classify(s).status == UNCOVERED]
    assert len(specs) == 683
    missed = [s.format() for s in specs
              if search(s, node_budget=s.q + 64, override_guard=True).outcome != FOUND]
    assert missed == []


@pytest.mark.parametrize("text, nodes, digest", [
    ("RT(0,1^14,3)", 94_385, "e2fa6cdadc38935eb6bda234ac584516e378a95d66c83d44e47441f124aa734c"),
    ("RT(1^13,3)", 96_390, "2d81fed578dbe0b24eb7cdfe2ae3c12a66727426605086dbd419457f96591871"),
])
def test_override_guard_find_one_pinned(text, nodes, digest):
    spec = parse_spec(text)
    assert spec.q > GUARD_Q
    r = search(spec, override_guard=True)
    assert (r.outcome, r.nodes_visited) == (FOUND, nodes)
    assert hashlib.sha256(" ".join(map(str, r.labeling.slots)).encode()).hexdigest() == digest
    assert naive_is_seg_assignment(spec.counts, r.labeling.slots)


def test_wide_pool_is_read_bit_by_bit():
    # a pool wider than TABLE_BITS labels builds no byte table (a table
    # holds about 3 KB a label); the nodes and first labeling are pinned
    spec = parse_spec("RT(2,3,60)")  # q = 68
    assert spec.q > search_module.TABLE_BITS
    r = search(spec, override_guard=True)
    assert (r.outcome, r.nodes_visited) == (FOUND, 68)
    digest = hashlib.sha256(" ".join(map(str, r.labeling.slots)).encode()).hexdigest()
    assert digest == "e27469a24d60e6fa30f254290e5910b4fce7ba746b1975ba67849584c20d6703"
    assert search_module._byte_bits.cache_info().currsize <= search_module.TABLE_BITS // 8


def test_guard_boundary_inclusive():
    at_limit = parse_spec("RT(0^8,7,7)")  # q = 24 exactly
    assert at_limit.q == GUARD_Q
    r = search(at_limit, node_budget=10)
    assert r.outcome == BUDGET_EXCEEDED  # ran, not refused


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_contents():
    spec = parse_spec("RT(0,1,3)")
    cert = make_certificate(spec, search(spec))
    assert cert["spec"] == "RT(0,1,3)"
    assert cert["q"] == 7
    assert cert["edge_target"] == [-3, -2, -1, 0, 1, 2, 3]
    assert cert["vertex_target"] == [-4, -3, -2, -1, 1, 2, 3, 4]
    assert cert["outcome"] == EXHAUSTED_NONE
    assert cert["result"] == "none"
    assert cert["nodes_visited"] > 0
    assert cert["version"]
    assert set(cert) == {"spec", "q", "edge_target", "vertex_target", "nodes_visited",
                         "outcome", "result", "version"}


def test_certify_refuses_seg_tree():
    with pytest.raises(ValueError, match="a found search certifies no absence"):
        spec = parse_spec("RT(1,1)")
        make_certificate(spec, search(spec))


def test_certify_budget_exceeded_raises():
    with pytest.raises(ValueError, match="a budget-exceeded search certifies no absence"):
        spec = parse_spec("RT(0,1,5)")
        make_certificate(spec, search(spec, node_budget=3))


def test_make_certificate_from_result():
    spec = parse_spec("RT(0,1,1)")
    result = search(spec, FIND_ONE)
    cert = make_certificate(spec, result)
    assert cert["nodes_visited"] == result.nodes_visited
    with pytest.raises(ValueError, match="found"):
        make_certificate(spec, search(parse_spec("RT(1,1)"), FIND_ONE))


# ---------------------------------------------------------------------------
# symmetry properties
# ---------------------------------------------------------------------------

def test_flag_combos_agree_on_q8_sample():
    # the one configuration's two modes agree on existence, and count mode's
    # first labeling is SEG
    for spec in enumerate_specs(8):
        counted, found = search(spec, COUNT_ALL), search(spec)
        assert counted.outcome == found.outcome, spec.format()
        assert (counted.outcome == FOUND) == (counted.count > 0), spec.format()
        assert counted.labeling is None or verify(build_tree(spec), counted.labeling.edges()).is_seg


def test_theory_matches_find_one_under_every_flag_set():
    # theory-vs-oracle agreement through q = 11
    for spec in enumerate_specs(11):
        status = classify(spec).status
        if status not in (CONSTRUCTIVE, NOT_SEG):
            continue
        r = search(spec)
        assert (r.outcome == FOUND) == (status == CONSTRUCTIVE), spec.format()
        assert r.labeling is None or verify(build_tree(spec), r.labeling.edges()).is_seg


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
    # a search that enumerated every labeling would visit a node per labeling
    # at least; the symmetry breaking visits fewer than the count it reports
    r = search(parse_spec("RT(0^4,1,1)"), COUNT_ALL)
    assert r.nodes_visited < r.count
