import ast
import hashlib
import json
from pathlib import Path

import pytest

from segtrees import (
    CONSTRUCTIVE,
    NOT_SEG,
    ConstructionFault,
    Labeling,
    build_tree,
    classify,
    enumerate_specs,
    label_any,
    parse_spec,
    verify,
)
from segtrees import constructions
from segtrees.constructions import _Builder, _paired_leaves

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# hand-computed outputs, frozen so formula drift cannot pass silently;
# listed as {edge id: label} in tree order
FROZEN = {
    "RT(1,1)": {"v1": 1, "v2": -1, "v1.1": -2, "v2.1": 2},
    "RT(2,2)": {"v1": 1, "v2": -1, "v1.1": 2, "v1.2": -2, "v2.1": 3, "v2.2": -3},
    "RT(2,1)": {"v1": 0, "v2": 1, "v1.1": -1, "v1.2": -2, "v2.1": 2},
    "RT(1,1,1)": {"v1": 1, "v2": -1, "v3": 3, "v1.1": -2, "v2.1": 2, "v3.1": -3},
    "RT(2,2,1)": {"v1": 2, "v2": -2, "v3": 1, "v1.1": 3, "v1.2": -3,
                  "v2.1": 4, "v2.2": -4, "v3.1": -1},
    "RT(0,2,2,1)": {"v1": 2, "v2": 0, "v3": -2, "v4": 1, "v2.1": -1, "v2.2": -4,
                    "v3.1": 3, "v3.2": -3, "v4.1": 4},
    "RT(0,0,2,1)": {"v1": 2, "v2": -2, "v3": 0, "v4": 1, "v3.1": -1, "v3.2": -3,
                    "v4.1": 3},
    "RT(2,2,1,1)": {"v1": 3, "v2": -3, "v3": 1, "v4": -1, "v1.1": 4, "v1.2": -4,
                    "v2.1": 5, "v2.2": -5, "v3.1": -2, "v4.1": 2},
    "RT(0,2,2,2)": {"v1": 1, "v2": -1, "v3": 2, "v4": -2, "v2.1": 3, "v2.2": -3,
                    "v3.1": 4, "v3.2": -4, "v4.1": 5, "v4.2": -5},
    "RT(2,2,2)": {"v1": 0, "v2": 1, "v3": 4, "v1.1": -1, "v1.2": -4,
                  "v2.1": 2, "v2.2": -2, "v3.1": 3, "v3.2": -3},
    "RT(2,2,2,1,1)": {"v1": 0, "v2": 2, "v3": -3, "v4": 1, "v5": -1,
                      "v1.1": -2, "v1.2": 3, "v2.1": 4, "v2.2": -4,
                      "v3.1": 5, "v3.2": -5, "v4.1": 6, "v5.1": -6},
    "RT(0,2,2,1,1)": {"v1": 1, "v2": 0, "v3": 5, "v4": 2, "v5": -2,
                      "v2.1": -1, "v2.2": -5, "v3.1": 3, "v3.2": -3,
                      "v4.1": -4, "v5.1": 4},
    "RT(0,0,0,1,3)": {"v1": -1, "v2": -2, "v3": 3, "v4": 1, "v5": 0, "v4.1": 4,
                      "v5.1": 2, "v5.2": -3, "v5.3": -4},
    "RT(2,2,2,1)": {"v1": 0, "v2": 2, "v3": -2, "v4": 1, "v1.1": -1, "v1.2": -5,
                    "v2.1": 3, "v2.2": -3, "v3.1": 4, "v3.2": -4, "v4.1": 5},
    "RT(0,2,4,1,1)": {"v1": 1, "v2": 0, "v3": 6, "v4": 2, "v5": -2,
                      "v2.1": -1, "v2.2": -6, "v3.1": 3, "v3.2": -3,
                      "v3.3": 5, "v3.4": -5, "v4.1": -4, "v5.1": 4},
}


@pytest.mark.parametrize("text", sorted(FROZEN), ids=sorted(FROZEN))
def test_frozen_construction_outputs(text):
    spec = parse_spec(text)
    assert label_any(spec).edges() == FROZEN[text]


def _golden_edges(stem: str):
    data = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    return parse_spec(data["spec"]), data["edges"]


# constructions reproduce all six golden labelings edge-for-edge
@pytest.mark.parametrize(
    "stem", ["RT_0x4_2_6", "RT_0x3_2_5", "RT_0x3_2_4", "RT_0x3_3_5",
             "RT_0_2_3x2_5", "RT_2_3x2_5"],
)
def test_golden_fidelity(stem):
    spec, golden = _golden_edges(stem)
    assert label_any(spec).edges() == golden


# sha256 over label_any's answer for every spec with q <= 24 (7,037 specs):
# the kind classify decides, its tag and case, and the labels in slot order,
# so no rule may move a label
_KINDS = {CONSTRUCTIVE: "labeled", NOT_SEG: "not_seg"}


def _answer(spec):
    cls, lab = classify(spec), label_any(spec)
    kind = _KINDS.get(cls.status, "unknown")
    return repr((spec.counts, kind, cls.tag, cls.case, lab.slots if lab else None)).encode()


SLOT_ORDER_DIGEST_Q24 = "a1334c1a251a368812e5a90b744a86ed68439d66b98385acfbf87274d4061a72"


def test_slot_order_digest_q24():
    h = hashlib.sha256()
    for spec in enumerate_specs(24):
        h.update(_answer(spec))
    assert h.hexdigest() == SLOT_ORDER_DIGEST_Q24


# the same digest over large trees whose leaf pairs go down by runs of equal
# counts: the six label_large seed-0 trees of perfbench, a lone large odd
# vertex, long odd runs, rules with placed vertices, and a single-leaf
# caterpillar (taken before the odd-odds rule took over the single-leaf tag)
LARGE_TREES = (
    "RT(0^2,10000,20000)", "RT(0^9999,2,20000)", "RT(0^2,2^3000,1^6000)",
    "RT(0^2,2^2001,3^4001)", "RT(0^2,2^3333,1,3^3333)", "RT(0^3,2^5000,3,5)",
    "RT(0^2,2^3,3,20001)", "RT(0^2,2^3,1,3,20001)",
    "RT(0^2,2^3,1^2,3^2,5^1000,7^999)", "RT(0^3,9999,20001)", "RT(0^999,1,20001)",
)
SLOT_ORDER_DIGEST_LARGE = "b1d6154e8dfef935a991c6fe83b0cb70a8d46414bb7ba1d0a7abc4314ef77ea5"


def test_slot_order_digest_large_trees():
    h = hashlib.sha256()
    for text in LARGE_TREES:
        spec = parse_spec(text)
        h.update(_answer(spec))
    assert h.hexdigest() == SLOT_ORDER_DIGEST_LARGE


def test_all_constructive_specs_verify_q13():
    checked = 0
    for spec in enumerate_specs(13):
        if classify(spec).status != CONSTRUCTIVE:
            continue
        lab = label_any(spec)
        assert verify(build_tree(spec), lab.edges()).is_seg, spec.format()
        checked += 1
    assert checked > 150


def test_label_any_labels_exactly_the_constructive_specs():
    # classify alone decides: a not-SEG or open spec gets None, and is
    # search's to decide (label --search-budget); its tag is classify's
    unlabeled = 0
    for spec in enumerate_specs(13):
        lab = label_any(spec)
        assert (lab is None) == (classify(spec).status != CONSTRUCTIVE), spec.format()
        unlabeled += lab is None
    assert unlabeled == 19 + 45  # not SEG, then open


def test_proved_not_seg_without_search():
    for text, tag in [("RT(0,1,1)", "cat-not-seg-ones"), ("RT(0,1,1,1)", "lob-not-seg-all-ones")]:
        spec = parse_spec(text)
        assert label_any(spec) is None
        assert (classify(spec).status, classify(spec).tag) == (NOT_SEG, tag)


def test_unknown_without_budget():
    spec = parse_spec("RT(2,1,1)")
    assert label_any(spec) is None
    assert classify(spec).status not in (CONSTRUCTIVE, NOT_SEG)
    assert classify(spec).tag == "conjecture-1"


def test_label_any_leaves_every_open_spec_unknown():
    # open families are search's to decide (label --search-budget); label_any
    # gives them no labeling, and their tag is classify's
    specs = [s for s in enumerate_specs(13) if classify(s).status not in (CONSTRUCTIVE, NOT_SEG)]
    assert len(specs) == 45
    for spec in specs:
        assert label_any(spec) is None, spec.format()


def test_constructions_imports_nothing_from_search():
    # construction and search are independent routes in the import graph too
    source = Path(constructions.__file__).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
    assert not names & {"search", "segtrees.search"}


@pytest.mark.parametrize("i", [0, 3], ids=["vertex-0", "vertex-n+1"])
def test_builder_leaf_checks_vertex_index(i):
    B = _Builder(build_tree(parse_spec("RT(2,1)")), "test")
    with pytest.raises(ConstructionFault, match="out of range"):
        B.leaf(i, 1, 1)
    assert B.x == [None] * 5


# RT(2,1): v1 has leaves v1.1, v1.2 and v2 has v2.1; each placement runs off
# the tree, so it must fault before it reads a count or writes a slot
@pytest.mark.parametrize("place", [
    lambda B: B.leaf(3, 1, 5),
    lambda B: B.leaf(0, 1, 5),
    lambda B: B.leaf(1, 3, 5),
    lambda B: B.leaf(2, 2, 5),
    lambda B: B.spine_pairs(2, 1, 5),
    lambda B: B.spine_pairs(0, 1, 5),
    lambda B: B.first_leaf_pairs(2, 1, 5),
    lambda B: B.first_leaf_pairs(1, 2, 5),
], ids=["pair-vertex-n+1", "pair-vertex-0", "pair-past-leaves", "pair-one-leaf",
        "spine-pairs-past-n", "spine-pairs-vertex-0", "first-leaf-pairs-past-n",
        "first-leaf-pairs-two-past-n"])
def test_builder_placers_check_range(place):
    B = _Builder(build_tree(parse_spec("RT(2,1)")), "test")
    with pytest.raises(ConstructionFault, match="out of range"):
        place(B)
    assert B.x == [None] * 5


def test_builder_block_collision_writes_nothing():
    B = _Builder(build_tree(parse_spec("RT(2,2)")), "test")
    B.leaf(2, 2, 7)
    with pytest.raises(ConstructionFault, match=r"edge v2\.2 assigned twice \(7, -5\)"):
        _paired_leaves(B, 5, 2)  # v2.1 is free, v2.2 is not: the block writes neither
    assert B.x == [None, None, None, None, None, 7]


# a run of equal counts is written as a few slices, however long the run or
# large the count: 4,001 odd vertices, 6,000 single leaves, one 20,001-leaf vertex
@pytest.mark.parametrize("text", [
    "RT(0^2,2^2001,3^4001)", "RT(0^2,2^3000,1^6000)", "RT(0^2,2^3,3,20001)",
])
def test_placers_write_runs_not_vertices(monkeypatch, text):
    put, blocks = _Builder._put, []

    def counting_put(self, writes):
        blocks.append(len(writes))
        put(self, writes)

    monkeypatch.setattr(_Builder, "_put", counting_put)
    assert label_any(parse_spec(text)) is not None
    assert sum(blocks) <= 20, blocks


# RT(3^5): the leaf pairs of the odd run are two strided columns, (v_i.2) and
# (v_i.3); a collision names the lowest slot over both, with the value meant
# for it, and writes nothing (messages taken from the vertex-by-vertex placer)
@pytest.mark.parametrize("pre, message", [
    ([(3, 2, 7)], r"edge v3\.2 assigned twice \(7, 3\)"),
    ([(3, 3, 7)], r"edge v3\.3 assigned twice \(7, -3\)"),
    ([(4, 2, 7), (2, 3, 8)], r"edge v2\.3 assigned twice \(8, -2\)"),
], ids=["plus-column", "minus-column", "lowest-of-two-columns"])
def test_paired_leaves_collision_on_a_run_writes_nothing(pre, message):
    B = _Builder(build_tree(parse_spec("RT(3^5)")), "test")
    for i, m, value in pre:
        B.leaf(i, m, value)
    before = list(B.x)
    with pytest.raises(ConstructionFault, match=message):
        _paired_leaves(B, 1, 1)
    assert B.x == before


# RT(3^6): the first leaves of v1, v3, v5 take +5, +7, +9 and those of v2,
# v4, v6 take -5, -7, -9, as two strided slices
@pytest.mark.parametrize("pre, message", [
    ([(4, 1, 7)], r"edge v4\.1 assigned twice \(7, -7\)"),
    ([(5, 1, 7), (2, 1, 8)], r"edge v2\.1 assigned twice \(8, -5\)"),
], ids=["one", "lowest-of-two-slices"])
def test_first_leaf_pairs_collision_on_a_run_writes_nothing(pre, message):
    B = _Builder(build_tree(parse_spec("RT(3^6)")), "test")
    for i, m, value in pre:
        B.leaf(i, m, value)
    before = list(B.x)
    with pytest.raises(ConstructionFault, match=message):
        B.first_leaf_pairs(1, 3, 5)
    assert B.x == before
    B = _Builder(build_tree(parse_spec("RT(3^6)")), "test")
    B.first_leaf_pairs(1, 3, 5)
    assert B.x[6::3] == [5, -5, 7, -7, 9, -9]
    assert B.x.count(None) == len(B.x) - 6


def test_outcome_shape():
    spec = parse_spec("RT(1,1)")
    lab = label_any(spec)
    assert isinstance(lab, Labeling)
    assert lab.tree == build_tree(spec)
    assert list(lab.slots) == [1, -1, -2, 2]
    assert label_any(parse_spec("RT(0,1,1)")) is None
