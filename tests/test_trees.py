import hashlib
import json
import sys

import pytest

from segtrees import (
    CONJECTURED,
    CONSTRUCTIVE,
    NOT_SEG,
    UNCOVERED,
    EmptyRange,
    NotDiameterFour,
    SpecSyntaxError,
    TreeSpec,
    build_tree,
    canonicalize,
    classify,
    enumerate_specs,
    parse_spec,
    search,
)


# ---------------------------------------------------------------------------
# parsing and canonical form
# ---------------------------------------------------------------------------

def test_parse_basic_forms():
    assert parse_spec("RT(1,1)").counts == (1, 1)
    assert parse_spec("1,1").counts == (1, 1)
    assert parse_spec("rt( 0 , 2 , 5 )").counts == (0, 2, 5)
    assert parse_spec("RT(0^4,2,6)").counts == (0, 0, 0, 0, 2, 6)
    assert parse_spec("RT(3^2,5)").counts == (5, 3, 3) or parse_spec("RT(3^2,5)").counts == (3, 3, 5)


def test_parse_canonicalizes():
    # zeros first, evens ascending, then odds ascending
    assert parse_spec("RT(5,2,0,3)").counts == (0, 2, 3, 5)
    assert parse_spec("RT(6,2)").counts == (2, 6)
    assert parse_spec("RT(1,2)").counts == (2, 1)


# int() raises a plain ValueError on an item of more than 4,300 digits
_PAST_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int string-conversion limit")


@pytest.mark.parametrize("bad", ["", "RT()", "RT(", "RT(1,)", "RT(a)", "RT(1,-1)",
                                 "RT(1^0)", "RT(1.5,1)", "1 1", "RT 1,1",
                                 pytest.param("RT(" + "9" * 5_000 + ",1)", id="count-too-long",
                                              marks=_PAST_DIGIT_LIMIT),
                                 pytest.param("RT(1^" + "9" * 5_000 + ",1)", id="exponent-too-long",
                                              marks=_PAST_DIGIT_LIMIT)])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


@pytest.mark.parametrize("bad", ["RT(3)", "RT(0,0)", "RT(0^5)", "RT(7)"])
def test_parse_rejects_wrong_diameter(bad):
    # fewer than two spine vertices with leaves never has diameter 4
    with pytest.raises(NotDiameterFour):
        parse_spec(bad)


@pytest.mark.parametrize("counts,first_bad", [([1, True], True), ([1, -2], -2), ([2, 1.0], 1.0),
                                               ([1, "a"], "a"), ([1, -2, "a"], -2),
                                               ([1, "a", -2], "a")])
def test_canonicalize_rejects_counts_that_are_not_nonnegative_ints(counts, first_bad):
    # parse_spec's item regex refuses such text first, so only a direct call
    # gets here.  Types and signs are checked in bulk; the message still names
    # the first bad count in the order given
    with pytest.raises(SpecSyntaxError) as exc:
        canonicalize(counts)
    assert str(exc.value) == f"counts must be nonnegative integers, got {first_bad!r}"


def test_canonicalize_accepts_int_subclasses_but_bool():
    class Count(int):
        pass

    assert canonicalize([Count(3), 0, Count(2), 1]).counts == (0, 2, 1, 3)


def test_canonicalize_idempotent_and_sorted():
    c = canonicalize([5, 0, 2, 3, 0, 4, 1])
    assert c.counts == (0, 0, 2, 4, 1, 3, 5)
    assert canonicalize(c.counts) == c


def test_format_compresses_runs():
    assert parse_spec("RT(0,0,0,0,2,6)").format() == "RT(0^4,2,6)"
    assert parse_spec("RT(1,1)").format() == "RT(1^2)"
    assert parse_spec("RT(0,2,5)").format() == "RT(0,2,5)"
    assert str(parse_spec("RT(0,0,1,1)")) == "RT(0^2,1^2)"


def test_format_parse_round_trip():
    for text in ["RT(0^4,2,6)", "RT(1^2)", "RT(0,2,3^2,5)", "RT(2,3^2,5)"]:
        spec = parse_spec(text)
        assert parse_spec(spec.format()) == spec


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,n,j,k,l,q,family",
    [
        ("RT(1,1)", 2, 0, 0, 2, 4, "EvenCaterpillar"),
        ("RT(2,1)", 2, 0, 1, 1, 5, "OddCaterpillar"),
        ("RT(0,1,1)", 3, 1, 0, 2, 5, "OddCaterpillar"),
        ("RT(1,1,1)", 3, 0, 0, 3, 6, "EvenLobster"),
        ("RT(0^4,2,6)", 6, 4, 2, 0, 14, "EvenCaterpillar"),
        ("RT(0,2,3^2,5)", 5, 1, 1, 3, 18, "EvenLobster"),
        ("RT(2,3^2,5)", 4, 0, 1, 3, 17, "OddLobster"),
        ("RT(0,2,2,2,2)", 5, 1, 4, 0, 13, "OddLobster"),
    ],
)
def test_spec_quantities(text, n, j, k, l, q, family):
    s = parse_spec(text)
    assert (s.n, s.j, s.k, s.l, s.q, s.family) == (n, j, k, l, q, family)
    assert s.p == q + 1


def test_build_tree_layout():
    t = build_tree(parse_spec("RT(0,2,1)"))
    assert t.edge_ids == ("v1", "v2", "v3", "v2.1", "v2.2", "v3.1")
    assert t.leaf_start == (3, 3, 5)
    assert t.vertex_ids[0] == "v0"
    assert len(t.vertex_ids) == t.p


def test_tree_names_edges_on_first_read_and_stays_a_value_object():
    s = parse_spec("RT(0,2,1)")
    assert build_tree(s) is s
    a, b = build_tree(s), build_tree(parse_spec("RT(0,1,2)"))
    assert "edge_ids" not in a.__dict__
    assert a == b and hash(a) == hash(b)
    assert a.edge_ids == ("v1", "v2", "v3", "v2.1", "v2.2", "v3.1")
    assert "edge_ids" in a.__dict__ and "edge_ids" not in b.__dict__
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1 and repr(a) == repr(b)
    assert a == TreeSpec(a.counts) and hash(a) == hash(TreeSpec(a.counts))
    assert repr(a) == repr(TreeSpec(a.counts)) == "TreeSpec(counts=(0, 2, 1))"
    assert a != build_tree(parse_spec("RT(2,1)"))
    # a find-one search, as a survey row runs it, caches nothing on the spec
    fields = {"counts", "n", "j", "k", "l", "q"}
    specs = enumerate_specs(9)
    for spec in specs:
        search(spec)
    assert [spec for spec in specs if set(spec.__dict__) != fields] == []


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

CASES = [
    # caterpillars, q even
    ("RT(2,2)", CONSTRUCTIVE, "cat-q-even-j-even", "both-even", dict(r=0, s=1, t=1)),
    ("RT(1,1)", CONSTRUCTIVE, "cat-q-even-j-even", "both-odd", dict(r=0, s=1, t=1)),
    ("RT(0^2,1^2)", CONSTRUCTIVE, "cat-q-even-j-even", "both-odd", dict(r=1, s=1, t=1)),
    ("RT(0,2,3)", CONSTRUCTIVE, "cat-q-even-j-odd", None, dict(r=1, s=1, t=2)),
    # caterpillars, q odd
    ("RT(2,1)", CONSTRUCTIVE, "cat-q-odd-j-even", None, dict(r=0, s=1, t=1)),
    ("RT(0^2,2,1)", CONSTRUCTIVE, "cat-q-odd-j-even", None, dict(r=1, s=1, t=1)),
    ("RT(0,4,4)", CONSTRUCTIVE, "cat-q-odd-j-odd-evens", None, dict(r=1, s=2, t=2)),
    ("RT(0^3,1,3)", CONSTRUCTIVE, "cat-q-odd-single-leaf", None, dict(r=1, t=1)),
    ("RT(0,3,3)", CONSTRUCTIVE, "cat-q-odd-j-odd-odds", None, dict(r=0, s=1, t=1)),
    ("RT(0,1,1)", NOT_SEG, "cat-not-seg-ones", None, None),
    ("RT(0,1,5)", NOT_SEG, "cat-not-seg-ones", None, None),
    ("RT(0^3,1,1)", NOT_SEG, "cat-not-seg-ones", None, None),
    # lobsters, q even
    ("RT(1,1,1)", CONSTRUCTIVE, "lob-jkl-even-even-odd", None, None),
    ("RT(2,2,1)", CONSTRUCTIVE, "lob-jkl-even-even-odd", None, None),
    ("RT(0,2,3^2,5)", CONSTRUCTIVE, "lob-jkl-odd-odd-odd", None, None),
    ("RT(2,2,1,1)", CONSTRUCTIVE, "lob-jkl-even-even-even", None, None),
    ("RT(0,2,2,2)", CONSTRUCTIVE, "lob-jkl-odd-odd-even", None, None),
    # lobsters, q odd
    ("RT(2,3^2,5)", CONSTRUCTIVE, "lob-jkl-even-odd-odd", "l-ge-3", None),
    ("RT(2,2,2)", CONSTRUCTIVE, "lob-jkl-even-odd-even", "l-0", dict(r=0, s=1, t=0)),
    ("RT(2,2,2,1,1)", CONSTRUCTIVE, "lob-jkl-even-odd-even", "l-ge-2", dict(r=0, s=1, t=1)),
    ("RT(0,2,2,1)", CONSTRUCTIVE, "lob-jkl-odd-even-small-l", "l-1", dict(r=0, s=1)),
    ("RT(0,2,2,1,1)", CONSTRUCTIVE, "lob-jkl-odd-even-small-l", "l-2", dict(r=0, s=1)),
    ("RT(0,1,1,1)", NOT_SEG, "lob-not-seg-all-ones", None, None),
    ("RT(0^3,1,1,1)", NOT_SEG, "lob-not-seg-all-ones", None, None),
    # open cases
    ("RT(2,1,1)", CONJECTURED, "conjecture-1", None, None),
    ("RT(0,1,1,1,3)", CONJECTURED, "conjecture-2", None, None),
    ("RT(0,1,1,3)", CONJECTURED, "conjecture-3", None, None),
    ("RT(0,1,3,3)", CONJECTURED, "conjecture-3", None, None),
    ("RT(0,2,2,2,2)", UNCOVERED, "uncovered", None, None),
]


@pytest.mark.parametrize("text,status,tag,case,params", CASES,
                         ids=[c[0] for c in CASES])
def test_classify_dispatch(text, status, tag, case, params):
    cls = classify(parse_spec(text))
    assert cls.status == status
    assert cls.tag == tag
    if case is not None:
        assert cls.case == case
    if params is not None:
        for key, val in params.items():
            assert cls.params[key] == val, f"param {key}"


def test_classify_total_small():
    # no spec below q=13 escapes the dispatch or raises
    for spec in enumerate_specs(13):
        cls = classify(spec)
        assert cls.status in (CONSTRUCTIVE, NOT_SEG, CONJECTURED, UNCOVERED)
        assert cls.tag


# sha256 over json [counts, status, tag, case, params] of classify on every
# spec with q <= 24 (7,037 specs), in enumerate_specs order: every tag, case,
# parameter value and parameter key order is pinned
CLASSIFY_DIGEST_Q24 = "786f40674f060857de7f552fa495f3dcad324447b53a0a7e8911bfd8a55f94d0"


def test_classify_digest_q24():
    h = hashlib.sha256()
    for spec in enumerate_specs(24):
        c = classify(spec)
        h.update(json.dumps([spec.counts, c.status, c.tag, c.case, c.params]).encode())
    assert h.hexdigest() == CLASSIFY_DIGEST_Q24


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_frozen_prefix():
    assert [s.counts for s in enumerate_specs(4)] == [(1, 1)]
    assert [s.counts for s in enumerate_specs(5)] == [(1, 1), (2, 1), (0, 1, 1)]


def test_enumerate_counts_by_q():
    by_q = {}
    for s in enumerate_specs(7):
        by_q[s.q] = by_q.get(s.q, 0) + 1
    assert by_q == {4: 1, 5: 2, 6: 5, 7: 8}


def test_enumerate_canonical_unique_ordered():
    specs = enumerate_specs(9)
    assert len(set(specs)) == len(specs)
    for s in specs:
        assert canonicalize(s.counts).counts == s.counts
    keys = [(s.q, s.n, s.counts) for s in specs]
    assert keys == sorted(keys)


def test_enumerate_empty_range():
    with pytest.raises(EmptyRange):
        enumerate_specs(3)


def test_spec_is_hashable_value_object():
    a = parse_spec("RT(1,1)")
    b = parse_spec("rt(1 , 1)")
    assert a == b and hash(a) == hash(b)
    assert a != parse_spec("RT(2,1)")
    assert isinstance(a, TreeSpec)
    assert repr(a) == "TreeSpec(counts=(1, 1))"
