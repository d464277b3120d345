"""Independent answer checker for the benchmark, standard library only.

It re-checks the program's outputs by plain arithmetic and never imports
``segtrees``:

* a labeling file (``{"spec": ..., "edges": {...}}``) must label exactly
  the edges of the requested tree, and its edge labels and induced vertex
  labels must each form the balanced target set;
* an absence certificate must name the requested tree, its q, and the
  exhausted-none outcome;
* exit codes, outcomes and ``--count`` totals must match ``expected.json``,
  pinned from the CLI at the commit that added the benchmark.

Run ``python3 perfbench/check.py`` to run the self-test.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache
from pathlib import Path

_ITEM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_counts(text: str) -> list[int]:
    """Leaf counts of ``RT(a,b^r,...)`` in written order; ValueError if malformed."""
    m = re.fullmatch(r"\s*RT\((.*)\)\s*", text)
    if m is None:
        raise ValueError(f"not a spec: {text!r}")
    counts: list[int] = []
    for item in m.group(1).split(","):
        im = _ITEM.match(item.strip())
        if im is None:
            raise ValueError(f"bad spec item {item!r} in {text!r}")
        counts += [int(im.group(1))] * int(im.group(2) or 1)
    return counts


def balanced(m: int) -> list[int]:
    """The m integers of smallest magnitude, symmetric about 0, ascending."""
    half = m // 2
    if m % 2:
        return list(range(-half, half + 1))
    return list(range(-half, 0)) + list(range(1, half + 1))


def check_labeling(obj, counts: list[int]) -> list[str]:
    """Problems with a labeling file object for the tree with leaf counts ``counts``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("spec"), str):
        return ["labeling is not an object with a string spec"]
    try:
        file_counts = parse_counts(obj["spec"])
    except ValueError as exc:
        return [str(exc)]
    if sorted(file_counts) != sorted(counts):
        return [f"labeling is for {obj['spec']}, not the requested tree"]
    edges = obj.get("edges")
    if not isinstance(edges, dict):
        return ["labeling has no edges object"]
    q = len(file_counts) + sum(file_counts)
    if len(edges) != q:
        return [f"{len(edges)} edges labeled, tree has {q}"]
    labels = list(edges.values())
    if any(type(v) is not int for v in labels):
        return ["a label is not an integer"]
    try:
        root = 0
        induced = []
        for i, a in enumerate(file_counts, start=1):
            spine = edges[f"v{i}"]
            leaves = [edges[f"v{i}.{m}"] for m in range(1, a + 1)]
            root += spine
            induced.append(spine + sum(leaves))
            induced += leaves
    except KeyError as exc:
        return [f"edge {exc.args[0]} not labeled"]
    problems = []
    if sorted(labels) != balanced(q):
        problems.append("edge labels are not the balanced set of size q")
    if sorted(induced + [root]) != balanced(q + 1):
        problems.append("induced labels are not the balanced set of size q+1")
    return problems


def check_certificate(obj, counts: list[int]) -> list[str]:
    """Problems with an absence certificate for the tree with leaf counts ``counts``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("spec"), str):
        return ["certificate is not an object with a string spec"]
    problems = []
    try:
        if sorted(parse_counts(obj["spec"])) != sorted(counts):
            problems.append(f"certificate is for {obj['spec']}, not the requested tree")
    except ValueError as exc:
        problems.append(str(exc))
    if obj.get("q") != len(counts) + sum(counts):
        problems.append(f"certificate q {obj.get('q')!r} is wrong")
    if obj.get("outcome") != "exhausted-none" or obj.get("result") != "none":
        problems.append("certificate does not record an exhausted search")
    return problems


class _Fail(Exception):
    pass


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise _Fail(f"cannot read {path.name}: {exc}") from None


@cache
def expected() -> dict:
    """Answers pinned from the CLI: ``search_count`` spec -> [exit, count],
    ``survey`` spec -> oracle outcome."""
    return json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def check_op(op: dict, exit_code, pass_dir: Path) -> tuple[list[str], dict]:
    """Check one executed op; returns (problems, facts) where facts carry
    ``undecided`` and, when the output reports it, ``nodes``."""
    facts: dict = {"undecided": int(exit_code == 2), "nodes": None}
    try:
        problems = _check_op(op, exit_code, pass_dir, facts)
    except _Fail as exc:
        problems = [str(exc)]
    return problems, facts


def _expect_exit(exit_code, want) -> None:
    if exit_code != want:
        raise _Fail(f"exit code {exit_code}, expected {want}")


def _check_op(op: dict, exit_code, pass_dir: Path, facts: dict) -> list[str]:
    def path(key):
        return pass_dir / op[key].replace("{pass}/", "")

    cmd = op["cmd"]
    if cmd in ("label", "verify"):
        _expect_exit(exit_code, 0)
        if cmd == "verify":
            return []
        return check_labeling(_load(path("out")), op["counts"])
    if cmd == "search_exhaust":
        _expect_exit(exit_code, 3)
        certs = sorted(path("certs").glob("*.cert.json"))
        if len(certs) != 1:
            raise _Fail(f"{len(certs)} certificates written, expected 1")
        cert = _load(certs[0])
        facts["nodes"] = cert.get("nodes_visited")
        return check_certificate(cert, op["counts"])
    if cmd == "search_count":
        want_exit, want_count = expected()["search_count"][op["spec"]]
        _expect_exit(exit_code, want_exit)
        out = _load(path("stdout"))
        facts["nodes"] = out.get("nodes_visited")
        if out.get("count") != want_count:
            return [f"count {out.get('count')!r}, expected {want_count}"]
        if want_count:
            return check_labeling({"spec": op["spec"], "edges": out.get("labeling")}, op["counts"])
        return [] if out.get("outcome") == "exhausted-none" else ["no labeling but not exhausted"]
    if cmd == "survey":
        _expect_exit(exit_code, 0)
        out = _load(path("stdout"))
        want = expected()["survey"]
        rows = {row["spec"]: row for row in out.get("rows", [])}
        if sorted(rows) != sorted(want) or len(out["rows"]) != len(want):
            return [f"survey has {len(out.get('rows', []))} rows, expected {len(want)}"]
        problems = []
        for spec, oracle in want.items():
            got = rows[spec]["oracle"]
            # a row stopped by the budget may later be decided, never reversed
            if got != oracle and not (oracle == "budget" and rows[spec]["agreement"] != "no"):
                problems.append(f"{spec}: oracle {got}, expected {oracle}")
        if out.get("disagreements") != 0:
            problems.append(f"{out.get('disagreements')} theory/oracle disagreements")
        facts["undecided"] = sum(row["oracle"] == "budget" for row in out["rows"])
        return problems
    raise _Fail(f"unknown command {cmd!r}")


# --- self-test -----------------------------------------------------------------

#: a valid labeling of RT(0^3,2,5), q = 12
_FIXTURE = {
    "spec": "RT(0^3,2,5)",
    "edges": {
        "v1": 2, "v2": -2, "v3": 3, "v4": -3, "v5": 1,
        "v4.1": 4, "v4.2": -4,
        "v5.1": -1, "v5.2": 5, "v5.3": -5, "v5.4": 6, "v5.5": -6,
    },
}


def self_test() -> None:
    """Raise AssertionError unless the checker accepts the fixture and
    rejects every corrupted variant of it."""
    counts = [0, 0, 0, 2, 5]
    ok = check_labeling(_FIXTURE, counts)
    if ok:
        raise AssertionError(f"valid fixture rejected: {ok}")
    swapped = {"spec": _FIXTURE["spec"], "edges": dict(_FIXTURE["edges"])}
    e = swapped["edges"]
    e["v1"], e["v5.2"] = e["v5.2"], e["v1"]
    bad = {
        "two labels swapped": (swapped, counts),
        "duplicate label": ({"spec": "RT(0^3,2,5)", "edges": {**_FIXTURE["edges"], "v1": 3}}, counts),
        "missing edge": ({"spec": "RT(0^3,2,5)", "edges": {k: v for k, v in _FIXTURE["edges"].items() if k != "v5.5"}}, counts),
        "other tree": (_FIXTURE, [0, 0, 2, 5]),
    }
    for what, (obj, want) in bad.items():
        if not check_labeling(obj, want):
            raise AssertionError(f"checker accepted a labeling with {what}")
    cert = {"spec": "RT(0,1^2)", "q": 5, "outcome": "exhausted-none", "result": "none"}
    if check_certificate(cert, [0, 1, 1]):
        raise AssertionError("valid certificate rejected")
    for wrong in ({**cert, "q": 6}, {**cert, "outcome": "found"}, {**cert, "spec": "RT(1^2)"}):
        if not check_certificate(wrong, [0, 1, 1]):
            raise AssertionError(f"checker accepted certificate {wrong}")


if __name__ == "__main__":
    self_test()
    print("check.py self-test passed", file=sys.stderr)
