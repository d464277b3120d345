import json
from pathlib import Path

import pytest

from segtrees import (
    DomainMismatch,
    LabelingFormatError,
    Violation,
    build_tree,
    edge_label_target,
    induce,
    label_any,
    negate,
    parse_dot_spec,
    parse_spec,
    read_labeling,
    to_dot,
    verify,
    vertex_label_target,
    write_labeling,
)
from segtrees.labeling import _induced, verify_slots
from oracle import naive_induced

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def golden(name: str):
    spec, f = read_labeling((GOLDEN_DIR / name).read_text())
    return spec, build_tree(spec), f


def test_targets_even_and_odd():
    assert edge_label_target(4) == (-2, -1, 1, 2)
    assert edge_label_target(7) == (-3, -2, -1, 0, 1, 2, 3)
    assert vertex_label_target(5) == (-2, -1, 0, 1, 2)
    assert vertex_label_target(8) == (-4, -3, -2, -1, 1, 2, 3, 4)


def test_target_sizes_match_argument():
    for m in range(4, 30):
        tgt = edge_label_target(m)
        assert len(tgt) == m
        assert len(set(tgt)) == m
        assert sum(tgt) == 0


def test_induce_hand_example():
    tree = build_tree(parse_spec("RT(1,1)"))
    f = {"v1": 1, "v2": -1, "v1.1": -2, "v2.1": 2}
    g = induce(tree, f)
    assert g == {"v1.1": -2, "v1": -1, "v2.1": 2, "v2": 1, "v0": 0}


# q keys, one of them renamed: the right size but the wrong domain
RENAMED_RT11 = {"v1": 1, "v2": -1, "v1.1": -2, "v9": 2}


def test_induce_requires_total_labeling():
    tree = build_tree(parse_spec("RT(1,1)"))
    with pytest.raises(DomainMismatch) as exc:
        induce(tree, {"v1": 1, "v2": -1, "v1.1": -2})
    assert "v2.1" in exc.value.missing
    with pytest.raises(DomainMismatch) as exc:
        induce(tree, {"v1": 1, "v2": -1, "v1.1": -2, "v2.1": 2, "v9": 3})
    assert "v9" in exc.value.extra
    with pytest.raises(DomainMismatch) as exc:
        induce(tree, RENAMED_RT11)
    assert (exc.value.missing, exc.value.extra) == (("v2.1",), ("v9",))


def test_verify_reports_renamed_edge_without_raising():
    report = verify(build_tree(parse_spec("RT(1,1)")), RENAMED_RT11)
    assert not report.is_seg
    assert Violation("DomainMismatch", ("v2.1",), ("v9",)) in report.violations


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")))
def test_golden_files_verify(name):
    _, tree, f = golden(name)
    report = verify(tree, f)
    assert report.is_seg, [v.describe() for v in report.violations]


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")))
def test_golden_induced_labels_match_per_vertex_sums(name):
    spec, tree, f = golden(name)
    g = naive_induced(spec.counts, f)
    assert _induced(tree, [f[e] for e in tree.edge_ids]) == [g[v] for v in tree.vertex_ids]
    assert induce(tree, f) == g


def test_verify_flags_wrong_multiset():
    _, tree, f = golden("RT_0x3_2_4.json")
    f = dict(f)
    f["v1"] = 5  # duplicates an existing label, drops 1
    report = verify(tree, f)
    assert not report.is_seg
    kinds = {v.kind for v in report.violations}
    assert "EdgeLabelsNotTargetSet" in kinds


def test_verify_flags_bad_vertex_sums():
    # swap two leaf labels between different vertices: edge set intact,
    # induced labels break
    _, tree, f = golden("RT_0x3_3_5.json")
    f = dict(f)
    f["v4.1"], f["v5.1"] = f["v5.1"], f["v4.1"]
    report = verify(tree, f)
    assert not report.is_seg
    kinds = {v.kind for v in report.violations}
    assert kinds == {"VertexLabelsNotTargetSet"}


def test_verify_lists_non_integer_label_without_raising():
    f = {"v1": 1, "v2": 1, "v1.1": "a", "v2.1": 2}
    report = verify(build_tree(parse_spec("RT(1,1)")), f)
    assert not report.is_seg
    assert report.violations == (
        Violation("EdgeLabelsNotTargetSet", (-2, -1), (1, "a")),
    )


def test_verify_reports_domain_mismatch_as_violation():
    _, tree, f = golden("RT_0x3_2_4.json")
    f = dict(f)
    del f["v1"]
    report = verify(tree, f)
    assert not report.is_seg
    assert any(v.kind == "DomainMismatch" for v in report.violations)


# RT(2,1,1) has 7 slots: v1, v2, v3, v1.1, v1.2, v2.1, v3.1
@pytest.mark.parametrize("x, missing, extra", [
    ([0, 1, -1, 2, -2, 3], ("v3.1",), ()),
    ([0, 1, -1, 2, -2, 3, -3, 4], (), (7,)),
], ids=["short", "long"])
def test_verify_slots_reports_wrong_length_without_raising(x, missing, extra):
    report, induced = verify_slots(build_tree(parse_spec("RT(2,1,1)")), x)
    assert not report.is_seg
    assert induced is None
    assert report.violations == (Violation("DomainMismatch", missing, extra),)


def test_negate_involution_and_seg_preserving():
    _, tree, f = golden("RT_0x4_2_6.json")
    g = negate(f)
    assert negate(g) == f
    assert set(g) == set(f)
    assert verify(tree, g).is_seg


def test_write_read_round_trip(tmp_path):
    spec, tree, f = golden("RT_0_2_3x2_5.json")
    text = write_labeling(tree, f)
    spec2, f2 = read_labeling(text)
    assert spec2 == spec
    assert f2 == f
    # and the serialized edge order follows the tree
    data = json.loads(text)
    assert list(data["edges"]) == list(tree.edge_ids)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")))
def test_write_reproduces_golden_file(name):
    _, tree, f = golden(name)
    assert write_labeling(tree, f) == (GOLDEN_DIR / name).read_text()


def test_write_matches_json_dumps_at_scale():
    spec = parse_spec("RT(0^2,2^3000,1^6000)")
    out = label_any(spec)
    edges = {e: out.labeling[e] for e in out.tree.edge_ids}
    expected = json.dumps({"spec": spec.format(), "edges": edges}, indent=2) + "\n"
    assert write_labeling(out.tree, out.labeling) == expected


def test_write_rejects_partial_labeling():
    tree = build_tree(parse_spec("RT(1,1)"))
    with pytest.raises(DomainMismatch):
        write_labeling(tree, {"v1": 1})


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"edges": {"v1": 1}}',
        '{"spec": "RT(1,1)"}',
        '{"spec": "RT(1,1)", "edges": {"v1": "x"}}',
        '{"spec": "RT(1,1)", "edges": {"v1": true}}',
        '{"spec": "RT(1,1)", "edges": [1, 2]}',
    ],
)
def test_read_rejects_malformed(text):
    with pytest.raises(LabelingFormatError):
        read_labeling(text)


def test_dot_unlabeled_structure():
    tree = build_tree(parse_spec("RT(1,1)"))
    dot = to_dot(tree)
    assert dot.startswith("graph segtree {")
    assert '"v0" -- "v1";' in dot
    assert '"v2" -- "v2.1";' in dot
    assert parse_dot_spec(dot) == parse_spec("RT(1^2)")


def test_dot_labeled_shows_induced_labels():
    spec, tree, f = golden("RT_0x4_2_6.json")
    dot = to_dot(tree, f)
    assert '"v0" [label="0"];' in dot  # root induced label in the golden data
    assert f'[label="{f["v6.6"]}"]' in dot
    assert parse_dot_spec(dot) == spec


def test_dot_deterministic():
    spec, tree, f = golden("RT_2_3x2_5.json")
    assert to_dot(tree, f) == to_dot(tree, f)
