import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from segtrees import (
    CONJECTURED,
    build_tree,
    parse_dot_spec,
    parse_spec,
    read_labeling,
    verify,
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
                       "--no-break-leaves", "--format", "json",
                       "--certificates-dir", str(tmp_path))
    assert code == 3
    assert len(runs) == 1
    data = json.loads(out)
    assert data["tag"] == "by-exhaustion"
    cert = data["certificate"]
    assert cert["flags"] == {"break_negation": True, "break_leaf_permutations": False,
                             "break_equal_spine_vertices": True}
    assert cert["nodes_visited"] == runs[0].nodes_visited
    assert json.loads((tmp_path / "RT_0_1_3.cert.json").read_text()) == cert


def test_label_construction_fault_exit3(capsys, monkeypatch):
    tag = "cat-q-even-j-even/both-odd"  # RT(1,1)
    good_rule = constructions._RULES[tag]

    def bad_rule(B, r, s, t):
        good_rule(B, r, s, t)
        B.f["v1"] = -B.f["v1"]  # now v1 and v2 share a label

    monkeypatch.setitem(constructions._RULES, tag, bad_rule)
    code, out, err = run(capsys, "label", "RT(1,1)")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: produced labeling failed verification")


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
    assert nodes["--exhaust"] < nodes["--count"] == 52
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


def test_search_no_break_flags_same_answer(capsys):
    code, out, _ = run(capsys, "search", "RT(1,1)", "--count",
                       "--no-break-negation", "--no-break-leaves",
                       "--no-break-spine", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 2


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


def test_survey_marks_open_rows_informational(capsys):
    code, out, _ = run(capsys, "survey", "--max-size", "7", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    open_rows = [r for r in rows if r["theory"] in ("conjectured", "uncovered")]
    assert open_rows
    assert all(r["agreement"] == "info" for r in open_rows)


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
        (["label", "RT(2,1,1)", "--search-budget", "10^-1"], 1),
        (["survey", "--search-budget", "0^-1"], 1),
        (["survey", "--search-budget", "nan"], 1),
    ],
    ids=["help", "no-command", "unknown-command", "budget-word", "budget-overflow",
         "budget-negative", "budget-fraction", "budget-zero-division", "budget-nan"],
)
def test_usage_exit_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected:
        assert "error" in err


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "segtrees.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout
    assert "survey" in proc.stdout
