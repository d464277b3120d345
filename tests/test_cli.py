import dataclasses
import hashlib
import importlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from segtrees import (
    CONJECTURED,
    UNCOVERED,
    ConstructionFault,
    SearchConfig,
    VerificationReport,
    Violation,
    build_tree,
    classify,
    enumerate_specs,
    induce,
    parse_dot_spec,
    parse_spec,
    read_labeling,
    search,
    verify,
    write_labeling,
)
from segtrees import cli, constructions
from segtrees.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "RT(0,1,1)")
    assert code == 0
    assert "OddCaterpillar" in out
    assert "not SEG" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "RT(1,1)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == "RT(1^2)"
    assert data["status"] == "constructive"
    assert data["tag"] == "cat-q-even-j-even"
    assert [data["j"], data["k"], data["l"]] == [0, 0, 2]


def test_classify_parse_error_exit1(capsys):
    code, _, err = run(capsys, "classify", "RT(3)")
    assert code == 1
    assert err.strip()


def test_classify_q_limit_checked_before_expanding(capsys):
    # expanding 10^15 repeats would need petabytes; q is refused by arithmetic first
    code, out, err = run(capsys, "classify", "RT(1^1000000000000000)")
    assert code == 1
    assert out == ""
    assert "q=2000000000000000 exceeds supported limit 1000000" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int string-conversion limit")
def test_classify_past_int_digit_limit_exit1(capsys):
    # int() raises a plain ValueError on an item of more than 4,300 digits
    code, out, err = run(capsys, "classify", "RT(1^" + "9" * 5_000 + ",1)")
    assert (code, out) == (1, "")
    assert "is too long" in err
    assert "set_int_max_str_digits" not in err


def test_classify_open_case(capsys):
    code, out, _ = run(capsys, "classify", "RT(2,1,1)")
    assert code == 0
    assert "conjecture-1" in out


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------

def test_label_constructive_exit0(capsys, tmp_path):
    out_file = tmp_path / "lab.json"
    code, out, _ = run(capsys, "label", "RT(0^4,2,6)", "--out", str(out_file))
    assert code == 0
    spec, f = read_labeling(out_file.read_text())
    assert verify(build_tree(spec), f).is_seg
    assert "SEG labeling found" in out


@pytest.mark.parametrize("command, text", [
    ("label", """\
RT(1^2): SEG labeling found via cat-q-even-j-even [both-odd]
  v1 = 1
  v2 = -1
  v1.1 = -2
  v2.1 = 2
  induced: v0=0, v1=-1, v2=1, v1.1=-2, v2.1=2
"""),
    ("search", """\
RT(1^2): found (nodes=4)
  v1 = -1
  v2 = 1
  v1.1 = 2
  v2.1 = -2
  induced: v0=0, v1=1, v2=-1, v1.1=2, v2.1=-2
"""),
])
def test_labeling_text_prints_induced_labels(capsys, command, text):
    # both commands print the edge labels, then the labels they induce
    code, out, _ = run(capsys, command, "RT(1,1)")
    assert code == 0
    assert out == text


def test_label_not_seg_exit3(capsys):
    code, out, _ = run(capsys, "label", "RT(0,1,1,1)")
    assert code == 3
    assert "not SEG" in out


def test_label_open_no_budget_exit2(capsys):
    code, out, _ = run(capsys, "label", "RT(2,1,1)")
    assert code == 2
    assert "undecided" in out


def test_label_open_with_budget_finds(capsys):
    code, out, _ = run(capsys, "label", "RT(2,1,1)", "--search-budget", "10^7",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "labeled"
    assert data["tag"] == "by-search"
    spec = parse_spec(data["spec"])
    assert verify(build_tree(spec), data["labeling"]).is_seg


def test_label_json_not_seg(capsys):
    code, out, _ = run(capsys, "label", "RT(0,1,3)", "--format", "json")
    assert code == 3
    assert json.loads(out)["status"] == "not-seg"


def test_label_by_exhaustion_certifies_its_one_search(capsys, monkeypatch, tmp_path):
    # no open tree with q <= 11 is non-SEG, so let the non-SEG RT(0,1,3) look open
    real_classify = constructions.classify
    monkeypatch.setattr(
        constructions, "classify",
        lambda spec: dataclasses.replace(
            real_classify(spec), status=CONJECTURED, tag="conjecture-1"),
    )
    engine = importlib.import_module("segtrees.search")
    real_search = engine.search
    runs = []

    def counting_search(spec, config):
        runs.append(real_search(spec, config))
        return runs[-1]

    monkeypatch.setattr(engine, "search", counting_search)
    monkeypatch.setattr(cli, "search", counting_search)
    code, out, _ = run(capsys, "label", "RT(0,1,3)", "--search-budget", "10^6",
                       "--format", "json", "--certificates-dir", str(tmp_path))
    assert code == 3
    assert len(runs) == 1
    data = json.loads(out)
    assert data["tag"] == "by-exhaustion"
    cert = data["certificate"]
    assert "flags" not in cert
    assert cert["nodes_visited"] == runs[0].nodes_visited
    assert json.loads((tmp_path / "RT_0_1_3.cert.json").read_text()) == cert


def test_label_construction_fault_exit3(capsys, monkeypatch):
    good_rule = constructions._even_q  # RT(1,1): q = 4, l = 2

    def bad_rule(B, rs, t, u):
        good_rule(B, rs, t, u)
        B.x[0] = -B.x[0]  # slot 0 is v1: now v1 and v2 share a label

    monkeypatch.setattr(constructions, "_even_q", bad_rule)
    code, out, err = run(capsys, "label", "RT(1,1)")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: produced labeling failed verification")


def test_label_unassigned_edge_exit3(capsys, monkeypatch):
    # _even_q on RT(1,1) is spine_pairs(1, 1, 1), then
    # first_leaf_pairs(1, 1, -2); skip the last: v1.1 and v2.1 stay unlabeled
    monkeypatch.setattr(constructions, "_even_q", lambda B, rs, t, u: B.spine_pairs(1, 1, 1))
    code, out, err = run(capsys, "label", "RT(1,1)")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert "unassigned edges ['v1.1', 'v2.1']" in err


# one spec per rule, both cases of each multi-case rule, and one found by search
SLOT_PATH_SPECS = [
    ("RT(0^2,2,4)", "cat-q-even-j-even", "both-even"),  # _even_q, t = 0, u = 0
    ("RT(0,2^2,4,1^2,3^2)", "lob-jkl-odd-odd-even", None),  # _even_q, t = 2, u = 0
    ("RT(0,2,5)", "cat-q-even-j-odd", None),  # _even_q, t = 0, u = 1
    ("RT(2,4,1,3,5)", "lob-jkl-even-even-odd", None),  # _even_q, t = 1, u = 1
    ("RT(0^2,2,5)", "cat-q-odd-j-even", None),  # the lobster rule at s = 1, t = 0
    ("RT(0,2,6)", "cat-q-odd-j-odd-evens", None),
    ("RT(0^3,1,5)", "cat-q-odd-single-leaf", None),
    ("RT(0,3,5)", "cat-q-odd-j-odd-odds", None),
    ("RT(0^2,2^2,4,1)", "lob-jkl-even-odd-odd", "l-1"),
    ("RT(2^2,4,1,3,5)", "lob-jkl-even-odd-odd", "l-ge-3"),
    ("RT(2^2,4)", "lob-jkl-even-odd-even", "l-0"),
    ("RT(0^2,2,4^2,1,3)", "lob-jkl-even-odd-even", "l-ge-2"),
    ("RT(0^3,2,4,1)", "lob-jkl-odd-even-small-l", "l-1"),
    ("RT(0^3,2,4,1,3)", "lob-jkl-odd-even-small-l", "l-2"),
    ("RT(2,1,1)", "by-search", None),
]


@pytest.mark.parametrize("text,tag,case", SLOT_PATH_SPECS, ids=[t for t, *_ in SLOT_PATH_SPECS])
def test_label_output_matches_public_dict_api(capsys, tmp_path, text, tag, case):
    # label prints and writes from the slot list; the dict API must say the same
    out = constructions.label_any(parse_spec(text), SearchConfig(node_budget=10**6))
    assert (out.tag, out.case) == (tag, case)
    path = tmp_path / "f.json"
    code, stdout, _ = run(capsys, "label", text, "--search-budget", "10^6", "--out", str(path))
    assert code == 0
    assert path.read_text() == write_labeling(out.tree, out.labeling)
    edge_lines = [f"  {e} = {out.labeling[e]}" for e in out.tree.edge_ids]
    induced = ", ".join(f"{v}={g}" for v, g in induce(out.tree, out.labeling).items())
    assert stdout.splitlines()[1:] == edge_lines + [f"  induced: {induced}", f"  written to {path}"]
    code, stdout, _ = run(capsys, "label", text, "--search-budget", "10^6", "--format", "json")
    labeling = json.loads(stdout)["labeling"]
    assert list(labeling) == list(out.tree.edge_ids)
    assert labeling == out.labeling


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_golden_exit0(capsys):
    code, out, _ = run(capsys, "verify", str(GOLDEN_DIR / "RT_0x3_2_4.json"))
    assert code == 0
    assert "verified" in out


def test_verify_corrupted_exit3(capsys, tmp_path):
    data = json.loads((GOLDEN_DIR / "RT_0x3_2_4.json").read_text())
    data["edges"]["v1"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 3
    assert "NOT" in out


def test_verify_domain_mismatch_exit3(capsys, tmp_path):
    data = json.loads((GOLDEN_DIR / "RT_0x3_2_4.json").read_text())
    del data["edges"]["v1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 3
    assert "DomainMismatch" in out


def test_verify_missing_file_exit1(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.json")
    assert code == 1


def test_verify_malformed_file_exit1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1


@pytest.mark.parametrize("command", ["verify", "export"])
def test_deeply_nested_file_exit1(capsys, tmp_path, command):
    # json.loads raises RecursionError on this; it is a usage error, not a crash
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, command, str(deep))
    assert (code, out) == (1, "")
    assert err.startswith("bad labeling file")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int string-conversion limit")
@pytest.mark.parametrize("command", ["verify", "export"])
def test_label_past_int_digit_limit_exit1(capsys, tmp_path, command):
    # json.loads raises a plain ValueError on a label of more than 4,300 digits
    huge = tmp_path / "huge.json"
    huge.write_text('{"spec": "RT(1,1)", "edges": {"v1": ' + "9" * 5_000
                    + ', "v2": 1, "v1.1": 2, "v2.1": 3}}')
    code, out, err = run(capsys, command, str(huge))
    assert (code, out) == (1, "")
    assert err.startswith("bad labeling file")


def test_verify_json_reports_violations(capsys, tmp_path):
    data = json.loads((GOLDEN_DIR / "RT_0x3_3_5.json").read_text())
    data["edges"]["v4.1"], data["edges"]["v5.1"] = (
        data["edges"]["v5.1"], data["edges"]["v4.1"])
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad), "--format", "json")
    assert code == 3
    report = json.loads(out)
    assert report["is_seg"] is False
    assert report["violations"]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_found_exit0(capsys):
    code, out, _ = run(capsys, "search", "RT(1,1)")
    assert code == 0
    assert "found" in out


def test_search_exhaust_writes_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "RT(0,1,3)", "--exhaust",
                       "--certificates-dir", str(tmp_path))
    assert code == 3
    assert "none" in out and "certificate written" in out
    cert_file = tmp_path / "RT_0_1_3.cert.json"
    assert cert_file.exists()
    cert = json.loads(cert_file.read_text())
    assert cert["outcome"] == "exhausted-none"
    assert cert["spec"] == "RT(0,1,3)"


def test_search_exhaust_stops_at_first_labeling(capsys, tmp_path):
    nodes = {}
    for flag in ("--exhaust", "--count"):
        code, out, _ = run(capsys, "search", "RT(1,3)", flag, "--format", "json",
                           "--certificates-dir", str(tmp_path))
        assert code == 0
        nodes[flag] = json.loads(out)["nodes_visited"]
    assert nodes["--exhaust"] < nodes["--count"] == 44
    assert not any(tmp_path.iterdir())


def test_search_count_json(capsys):
    code, out, _ = run(capsys, "search", "RT(1,1)", "--count", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["outcome"] == "found"


def test_search_budget_exit2(capsys):
    code, out, _ = run(capsys, "search", "RT(0^3,3,5)", "--count",
                       "--search-budget", "10")
    assert code == 2
    assert "budget" in out


def test_search_guard_refused_exit2(capsys):
    code, _, err = run(capsys, "search", "RT(0^9,8,8)")
    assert code == 2
    assert "refused" in err


@pytest.mark.parametrize("argv", [
    # the 1,500 pendants are one group searched before the last (a 1,600-leaf one)
    ["search", "RT(0^1500,1600^2)", "--override-guard"],
    ["label", "RT(4,1^1500)", "--search-budget", "10^6", "--override-guard"],
    # q = 10^6: refused without first building anything quadratic in q
    ["search", "RT(1^500000)", "--override-guard"],
])
def test_search_too_deep_refused_exit2(capsys, argv):
    # the DFS recurses once per branch spine vertex and once per label of
    # every group but the last, and a pendant run is one group: either way
    # 1,500 frames exceed the stack (RT(4,1^1500) is conjecture-1, so label
    # reaches the search)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("refused: ")
    assert "too deep for the search" in err


def test_search_deep_last_group_is_placed(capsys):
    # the pendant run of 1,500 is the last group, placed without recursion,
    # so the search goes no deeper than the spine
    code, out, _ = run(capsys, "search", "RT(0^1500,1,1)", "--override-guard",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert (d["outcome"], d["nodes_visited"]) == ("found", 1_504)
    assert verify(build_tree(parse_spec("RT(0^1500,1,1)")), d["labeling"]).is_seg


def test_search_one_leaf_zero_refutes_without_a_node(capsys):
    # q = 999,999 and every branch vertex has one leaf: 0 has no spine edge to
    # sit on, so the search ends before it recurses (it was refused as too deep)
    code, out, _ = run(capsys, "search", "RT(0,1^499999)", "--override-guard")
    assert code == 3
    assert "nodes=0" in out


def test_search_fault_is_raised_never_returned(capsys, monkeypatch):
    # search checks each labeling it returns; a failed check is an internal
    # fault: search raises it, and search and survey exit 3 printing nothing
    report = VerificationReport(False, (Violation("VertexLabelsNotTargetSet", (0,), (1,)),))
    gate = importlib.import_module("segtrees.labeling")
    monkeypatch.setattr(gate, "verify_slots", lambda tree, x: (report, None))
    with pytest.raises(ConstructionFault, match=r"search on RT\(2,1\^2\): VertexLabels"):
        search(parse_spec("RT(2,1,1)"))
    for argv in (["search", "RT(2,1,1)"], ["survey", "--max-size", "6"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("internal error: produced labeling failed verification: search")


# sha256 over "<spec> <exit code>\n<stdout>" of every run, in order: search on
# every spec with q <= 10, and label --search-budget on every open spec with
# q <= 11 (the "out" case hashes the --out file instead of stdout)
OPEN_SPECS_Q11 = [s.format() for s in enumerate_specs(11) if classify(s).status in (CONJECTURED, UNCOVERED)]
OUTPUT_PINS = {
    "search": ([], "a53228a54d10f86d1ca165342da08679b0c355f25b2321715fa26ea468a52dfc"),
    "search-json": (["--format", "json"],
                    "73c2d634ea9514564da79167573b44afb26c286fae5ecdc8f670fbcde92f4e8e"),
    "search-count": (["--count"],
                     "edaf3482ce07fa0ee445e074d4c0d526d91fe1f03fbb64c05ead71ba5034b69a"),
    "search-count-json": (["--count", "--format", "json"],
                          "b201f8d2cdf8d77e03f64ea614537c254f6f09190c3e9b21432ae60db2379772"),
    "label": (["--search-budget", "10^6"],
              "30ebdad687e03af42652b5cab75d2c9397fddf1db8658a2048ee84b92f29dbe7"),
    "label-json": (["--search-budget", "10^6", "--format", "json"],
                   "129d359a3b1def2df5c2fa85ca5d26fe3a340f6db595a15b320132230790bc34"),
    "label-out": (["--search-budget", "10^6", "--out", "out.json"],
                  "f7e038ea68e982d4a01ba719af571e5530445d4ae0046e0a2554fba02bfd2a20"),
}


@pytest.mark.parametrize("case", OUTPUT_PINS)
def test_search_and_label_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, case):
    options, digest = OUTPUT_PINS[case]
    command = case.split("-")[0]
    specs = [s.format() for s in enumerate_specs(10)] if command == "search" else OPEN_SPECS_Q11
    assert len(specs) == (83 if command == "search" else 17)
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for spec in specs:
        code, out, _ = run(capsys, command, spec, *options)
        if case == "label-out":
            out = (tmp_path / "out.json").read_text()
            (tmp_path / "out.json").unlink()
        h.update(f"{spec} {code}\n{out}".encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def test_survey_max_size_4(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "4")
    assert code == 0
    assert "RT(1^2)" in out
    assert "0 disagreement" in out


def test_survey_json_rows(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0
    assert len(data["rows"]) == 8
    first = data["rows"][0]
    assert first["spec"] == "RT(1^2)"
    assert first["theory"] == "SEG"
    assert first["oracle"] == "found"
    assert first["agreement"] == "yes"
    not_seg = [r for r in data["rows"] if r["theory"] == "not-SEG"]
    assert all(r["oracle"] == "none" and r["agreement"] == "yes" for r in not_seg)


def test_survey_json_rows_report_nodes(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "7", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        spec = parse_spec(row["spec"])
        cfg = SearchConfig(node_budget=cli.SURVEY_DEFAULT_BUDGET)
        assert row["nodes"] == search(spec, cfg).nodes_visited
        # one-leaf zero: an odd-q tree whose branch vertices all have one leaf
        # is refuted before the first node; every other row searches
        one_leaf = spec.q % 2 == 1 and max(spec.counts) == 1
        assert (row["nodes"] == 0) == one_leaf, row
    code, out, _ = run(capsys, "survey", "--max-size", "7", "--search-budget", "5",
                       "--format", "json")
    assert code == 0
    budget_rows = [r for r in json.loads(out)["rows"] if r["oracle"] == "budget"]
    assert budget_rows
    assert all(r["nodes"] == 5 for r in budget_rows)


def test_survey_marks_open_rows_informational(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "7", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    open_rows = [r for r in rows if r["theory"] in ("conjectured", "uncovered")]
    assert open_rows
    assert all(r["agreement"] == "info" for r in open_rows)


# sha256 of `survey --max-size 12` stdout (and its exit code 0), text and JSON
SURVEY_PINS = {
    "text": ([], "919fc9de906542ac1541fd4fad5afe65c59a9bf76fc65f06f884ef8bf28e0f2e"),
    "json": (["--format", "json"],
             "d055feb8e5fdf3ba3c691a19da54116d3ebf3f0c77c74dcc592549119687bbc1"),
}


@pytest.mark.parametrize("case", SURVEY_PINS)
def test_survey_output_bytes_are_pinned(capsys, case):
    options, digest = SURVEY_PINS[case]
    code, out, _ = run(capsys, "survey", "--max-size", "12", *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(("options", "guard", "oracles"), [
    ([], None, {"found", "none"}),
    (["--search-budget", "5"], None, {"found", "none", "budget"}),
    ([], 9, {"found", "none", "skipped"}),
], ids=["found-none", "budget", "skipped"])
def test_survey_json_is_json_dumps_indent_2(capsys, monkeypatch, options, guard, oracles):
    # the rows are formatted by hand; the bytes must be the indenting encoder's
    if guard is not None:  # rows with q > guard are skipped
        monkeypatch.setattr(importlib.import_module("segtrees.search"), "GUARD_Q", guard)
    code, out, _ = run(capsys, "survey", "--max-size", "11", "--format", "json", *options)
    assert code == 0
    data = json.loads(out)
    assert {r["oracle"] for r in data["rows"]} == oracles
    assert out == json.dumps(data, indent=2) + "\n"


def test_survey_theory_oracle_agree_to_q15(capsys):
    # criterion 4 compares q <= 11; this widens it to 12 <= q <= 15, where
    # every row must be decided within the survey's node budget
    code, out, _ = run(capsys, "survey", "--max-size", "15", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0
    assert [r["spec"] for r in data["rows"] if r["oracle"] == "budget"] == []
    assert any(r["q"] >= 12 and r["agreement"] == "yes" for r in data["rows"])


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_spec_structure(capsys):
    code, out, _ = run(capsys, "export", "RT(1,1)")
    assert code == 0
    assert out.startswith("graph segtree {")
    assert parse_dot_spec(out) == parse_spec("RT(1,1)")


def test_export_labeling_file(capsys):
    code, out, _ = run(capsys, "export", str(GOLDEN_DIR / "RT_0x4_2_6.json"))
    assert code == 0
    assert '"v0" [label="0"];' in out
    assert parse_dot_spec(out) == parse_spec("RT(0^4,2,6)")


def test_export_to_file(capsys, tmp_path):
    out_file = tmp_path / "tree.dot"
    code, out, _ = run(capsys, "export", "RT(2,1)", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("graph segtree {")


def test_export_bad_spec_exit1(capsys):
    code, _, err = run(capsys, "export", "RT(nonsense)")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "{tmp}"],
        ["label", "RT(1,1)", "--out", "{tmp}/missing/x.json"],
        ["search", "RT(0,1,3)", "--exhaust", "--certificates-dir", "{tmp}/a-file"],
        ["export", "RT(1,1)", "--out", "{tmp}/missing/x.dot"],
        ["survey", "--max-size", "4000"],
    ],
    ids=["export-directory", "label-out-missing-dir", "certificates-dir-is-file",
         "export-out-missing-dir", "survey-unlistable-size"],
)
def test_unusable_path_or_size_exit1(capsys, tmp_path, argv):
    (tmp_path / "a-file").write_text("")
    code, _, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 1
    assert "Traceback" not in err
    assert "error" in err


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["--help"], 0),
        ([], 1),
        (["frobnicate"], 1),
        (["search", "RT(1,1)", "--search-budget", "abc"], 1),
        (["search", "RT(1,1)", "--search-budget", "1e400"], 1),
        (["search", "RT(1,1)", "--search-budget=-5"], 1),
        (["search", "RT(1,1)", "--search-budget=-10^2"], 1),
        (["label", "RT(2,1,1)", "--search-budget", "10^-1"], 1),
        (["survey", "--search-budget", "0^-1"], 1),
        (["survey", "--search-budget", "nan"], 1),
        (["search", "RT(1,1)", "--count", "--no-break-negation"], 1),
        (["search", "RT(1,1)", "--count", "--no-break-leaves"], 1),
        (["label", "RT(2,1,1)", "--search-budget", "10^3", "--no-break-spine"], 1),
        (["search", "RT(0,1,3)", "--exhaust", "--count"], 1),
    ],
    ids=["help", "no-command", "unknown-command", "budget-word", "budget-overflow",
         "budget-negative", "budget-negative-base", "budget-fraction", "budget-zero-division", "budget-nan",
         "retired-negation-flag", "retired-leaf-flag", "retired-spine-flag",
         "exhaust-with-count"],
)
def test_usage_exit_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected:
        assert "error" in err


# main reuses one parser per process: no call may see an earlier call's
# options, defaults or exit

def test_parser_is_built_once_and_build_parser_is_fresh():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_resets_search_mode(capsys):
    code, out, _ = run(capsys, "search", "RT(1,1)", "--count", "--format", "json")
    assert (code, json.loads(out)["mode"]) == (0, "count-all")
    code, out, _ = run(capsys, "search", "RT(1,1)", "--format", "json")
    data = json.loads(out)
    assert (code, data["mode"], data["count"]) == (0, "find-one", None)


def test_reused_parser_resets_search_budget(capsys):
    # RT(2,1,1) is found in 10 nodes, so a budget of 5 stops the search
    code, out, _ = run(capsys, "label", "RT(2,1,1)", "--search-budget", "5")
    assert code == 2
    assert "hint" not in out
    code, out, _ = run(capsys, "label", "RT(2,1,1)")
    assert code == 2
    assert "hint: pass --search-budget N" in out


def test_reused_parser_resets_survey_defaults(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "5", "--format", "json")
    assert (code, json.loads(out)["max_size"]) == (0, 5)
    code, out, _ = run(capsys, "survey")
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{len(enumerate_specs(9))} trees surveyed")


@pytest.mark.parametrize(("argv", "expected"), [(["frobnicate"], 1), (["--help"], 0)],
                         ids=["usage-error", "help"])
def test_reused_parser_runs_after_an_early_exit(capsys, argv, expected):
    assert run(capsys, *argv)[0] == expected
    code, out, _ = run(capsys, "classify", "RT(1,1)")
    assert code == 0
    assert out.startswith("RT(1^2): ")


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "segtrees.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout
    assert "survey" in proc.stdout


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ segtrees ...`` line of a README code block that shows output,
    with the lines shown under it; indented ``#`` lines continue a comment."""
    examples: list[tuple[str, list[str]]] = []
    in_block, cmd = False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            cmd = None
        elif in_block and line.startswith("$ segtrees "):
            cmd = line[len("$ segtrees "):]
            examples.append((cmd, []))
        elif in_block and cmd is not None and not line.lstrip().startswith("#"):
            examples[-1][1].append(line)
    return [(cmd, shown) for cmd, shown in examples if shown]


def test_readme_examples_print_what_they_show(capsys, tmp_path, monkeypatch):
    examples = _readme_examples()
    assert examples, "README shows no command output"
    monkeypatch.chdir(tmp_path)
    for cmd, shown in examples:
        main(shlex.split(cmd, comments=True))
        assert capsys.readouterr().out.splitlines() == shown, cmd
