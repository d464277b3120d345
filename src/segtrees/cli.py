"""Command-line front end: classify, label, verify, search, survey, export.

Exit codes are uniform across subcommands:
  0  positive result (SEG found / verified / survey clean)
  1  usage or parse error
  2  undecided (budget exhausted, guard refused, open case)
  3  verified negative (not SEG, verification failed, survey disagreement)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from .constructions import LABELED, PROVED_NOT_SEG, ConstructionFault, label_any
from .labeling import LabelingFormatError, edge_lines, read_labeling, to_dot, verify, write_slots
# not called here any more; perfbench/spans.py still wraps these module names
from .labeling import induce, write_labeling  # noqa: F401
from .search import (
    COUNT_ALL,
    EXHAUSTED_NONE,
    FIND_ONE,
    FOUND,
    GUARD_Q,
    GuardRefused,
    SearchConfig,
    make_certificate,
    search,
)
from .trees import (
    CONJECTURED,
    CONSTRUCTIVE,
    NOT_SEG,
    UNCOVERED,
    TreeSpec,
    build_tree,
    classify,
    enumerate_specs,
    parse_spec,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_NEGATIVE = 3

# per-row search budget used by survey unless --search-budget is given
SURVEY_DEFAULT_BUDGET = 10**6

_STATUS_TEXT = {
    CONSTRUCTIVE: "SEG (constructive)",
    NOT_SEG: "not SEG (non-existence case)",
    CONJECTURED: "open (conjectured SEG)",
    UNCOVERED: "open (no case applies)",
}


def _parse_budget(text: str) -> int:
    """Accept 1000000, 10^6, or 1e6: a finite whole number of nodes, >= 0."""
    t = text.strip().lower()
    try:
        if "^" in t:
            base, exp = map(int, t.split("^", 1))
            if base < 0:  # (-10)^2 is not a budget
                raise ValueError
            v = float(base) ** exp  # overflows instead of building a huge int
        elif "e" in t:
            v = float(t)
        else:
            v = int(t)
        if not (0 <= v < math.inf and v == int(v)):
            raise ValueError
        return int(v)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad budget {text!r}") from None


def _config_from(
    args: argparse.Namespace, mode: str, default_budget: int | None = None
) -> SearchConfig:
    return SearchConfig(
        node_budget=default_budget if args.search_budget is None else args.search_budget,
        mode=mode,
        override_guard=args.override_guard,
    )


def _safe_name(spec: TreeSpec) -> str:
    # RT(0^3,2,5) -> RT_0x3_2_5; ^ -> x keeps RT(2^3) distinct from RT(2,3)
    return re.sub(r"[^0-9A-Za-z]+", "_", spec.format().replace("^", "x")).strip("_")


def _write_certificate(cert: dict, directory: str, spec: TreeSpec) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{_safe_name(spec)}.cert.json"
    path.write_text(json.dumps(cert, indent=2) + "\n")
    return path


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_labeling(tree: TreeSpec, x: list[int], induced: list[int]) -> None:
    """Edge labels x in slot order, then the induced labels in vertex order."""
    print("\n".join([f"  {e} = {v}" for e, v in zip(tree.edge_ids, x)]))
    print("  induced: " + ", ".join([f"{v}={g}" for v, g in zip(tree.vertex_ids, induced)]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    cls = classify(spec)
    if args.format == "json":
        _print_json(
            {
                "spec": spec.format(),
                "family": spec.family,
                "j": spec.j,
                "k": spec.k,
                "l": spec.l,
                "q": spec.q,
                "p": spec.p,
                "status": cls.status,
                "tag": cls.tag,
                "case": cls.case,
                "params": cls.params,
            }
        )
    else:
        parity = "even" if spec.q % 2 == 0 else "odd"
        print(f"{spec.format()}: {spec.family}, {_STATUS_TEXT[cls.status]}")
        print(f"  (j,k,l) = ({spec.j},{spec.k},{spec.l}); q = {spec.q} ({parity}), p = {spec.p}")
        case = f" [{cls.case}]" if cls.case else ""
        print(f"  dispatch: {cls.tag}{case}")
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    cfg = None if args.search_budget is None else _config_from(args, FIND_ONE)
    outcome = label_any(spec, cfg)
    if outcome.kind == LABELED:
        if args.out:
            Path(args.out).write_text(write_slots(outcome.tree, outcome.slot_labels))
        if args.format == "json":
            # json.dumps(obj, indent=2) with the "labeling" and "verified" keys
            # last, its edge lines formatted as write_slots formats them
            head = json.dumps({"spec": spec.format(), "status": "labeled",
                               "tag": outcome.tag, "case": outcome.case}, indent=2)
            edges = edge_lines(outcome.tree, outcome.slot_labels)
            print(f'{head[:-2]},\n  "labeling": {{\n{edges}\n  }},\n  "verified": true\n}}')
        else:
            via = f" via {outcome.tag}" + (f" [{outcome.case}]" if outcome.case else "")
            print(f"{spec.format()}: SEG labeling found{via}")
            _print_labeling(outcome.tree, outcome.slot_labels, outcome.induced)
            if args.out:
                print(f"  written to {args.out}")
        return EXIT_OK
    if outcome.kind == PROVED_NOT_SEG:
        cert = path = None
        if outcome.search is not None:
            cert = make_certificate(spec, cfg, outcome.search)
            if args.certificates_dir:
                path = _write_certificate(cert, args.certificates_dir, spec)
        if args.format == "json":
            _print_json(
                {
                    "spec": spec.format(),
                    "status": "not-seg",
                    "tag": outcome.tag,
                    "certificate": cert,
                }
            )
        else:
            print(f"{spec.format()}: not SEG ({outcome.tag})")
            if path:
                print(f"  certificate written: {path}")
        return EXIT_NEGATIVE
    if args.format == "json":
        _print_json({"spec": spec.format(), "status": "unknown", "tag": outcome.tag})
    else:
        print(f"{spec.format()}: undecided ({outcome.tag}); no labeling produced")
        if args.search_budget is None:
            print("  hint: pass --search-budget N to let the oracle try")
    return EXIT_UNDECIDED


def cmd_verify(args: argparse.Namespace) -> int:
    spec, f = read_labeling(Path(args.file).read_text())
    tree = build_tree(spec)
    report = verify(tree, f)
    if args.format == "json":
        _print_json(
            {
                "spec": spec.format(),
                "is_seg": report.is_seg,
                "violations": [
                    {"kind": v.kind, "missing": list(v.missing), "extra": list(v.extra)}
                    for v in report.violations
                ],
            }
        )
    elif report.is_seg:
        print(f"{spec.format()}: SEG labeling verified")
    else:
        print(f"{spec.format()}: NOT a SEG labeling")
        for v in report.violations:
            print(f"  {v.describe()}")
    return EXIT_OK if report.is_seg else EXIT_NEGATIVE


def cmd_search(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    # --exhaust certifies an exhausted find-one run: one labeling refutes absence
    mode = COUNT_ALL if args.count else FIND_ONE
    cfg = _config_from(args, mode)
    result = search(spec, cfg)
    cert = cert_path = None
    if result.outcome == EXHAUSTED_NONE and args.exhaust:
        cert = make_certificate(spec, cfg, result)
        cert_path = _write_certificate(cert, args.certificates_dir, spec)
    if args.format == "json":
        _print_json(
            {
                "spec": spec.format(),
                "mode": mode,
                "outcome": result.outcome,
                "nodes_visited": result.nodes_visited,
                "count": result.count,
                "labeling": result.labeling,
                "certificate": cert,
                "certificate_path": str(cert_path) if cert_path else None,
            }
        )
    elif result.outcome == FOUND:
        print(f"{spec.format()}: found (nodes={result.nodes_visited})")
        if result.count is not None:
            print(f"  count: {result.count} SEG labelings")
        _print_labeling(result.tree, result.slot_labels, result.induced)
    elif result.outcome == EXHAUSTED_NONE:
        msg = f"{spec.format()}: none (exhausted, nodes={result.nodes_visited})"
        if cert_path:
            msg += f", certificate written: {cert_path}"
        print(msg)
    else:
        print(f"{spec.format()}: budget exceeded after {result.nodes_visited} nodes; undecided")
    return {FOUND: EXIT_OK, EXHAUSTED_NONE: EXIT_NEGATIVE}.get(result.outcome, EXIT_UNDECIDED)


# a survey row's theory and oracle columns
_THEORY = {CONSTRUCTIVE: "SEG", NOT_SEG: "not-SEG", CONJECTURED: "conjectured",
           UNCOVERED: "uncovered"}
_ORACLE = {FOUND: "found", EXHAUSTED_NONE: "none"}

# a survey row, (spec, j, k, l, q, tag, theory, oracle, agreement, nodes), as
# json.dumps(row, indent=2) lays it out inside the rows list; its strings are
# a spec, a dispatch tag and fixed words, none of which needs escaping
_ROW_JSON = """    {{
      "spec": "{}",
      "jkl": [
        {},
        {},
        {}
      ],
      "q": {},
      "tag": "{}",
      "theory": "{}",
      "oracle": "{}",
      "agreement": "{}",
      "nodes": {}
    }}"""


def cmd_survey(args: argparse.Namespace) -> int:
    rows = []
    disagreements = 0
    cfg = _config_from(args, FIND_ONE, SURVEY_DEFAULT_BUDGET)
    for spec in enumerate_specs(args.max_size):
        cls = classify(spec)
        theory = _THEORY[cls.status]
        try:
            result = search(spec, cfg)
            oracle, nodes = _ORACLE.get(result.outcome, "budget"), result.nodes_visited
        except GuardRefused:
            oracle, nodes = "skipped", 0
        if theory in ("conjectured", "uncovered") or oracle in ("skipped", "budget"):
            agreement = "info"
        elif (theory == "SEG") == (oracle == "found"):
            agreement = "yes"
        else:
            agreement = "no"
            disagreements += 1
        rows.append((spec.format(), spec.j, spec.k, spec.l, spec.q,
                     cls.tag, theory, oracle, agreement, nodes))
    if args.format == "json":
        # the text of json.dumps(obj, indent=2), formatted here because the
        # indenting encoder runs in pure Python; enumerate_specs lists at
        # least one spec, so rows is never empty
        head = json.dumps({"max_size": args.max_size, "disagreements": disagreements}, indent=2)
        body = ",\n".join([_ROW_JSON.format(*row) for row in rows])
        print(f'{head[:-2]},\n  "rows": [\n{body}\n  ]\n}}')
    else:
        widths = [14, 10, 3, 26, 11, 7, 5]
        header = ["spec", "(j,k,l)", "q", "dispatch", "theory", "oracle", "agree"]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for spec, j, k, l, q, *words, _ in rows:
            cells = [spec, f"({j},{k},{l})", str(q), *words]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        print("\n".join(lines))
        print(
            f"{len(rows)} trees surveyed, {disagreements} disagreement(s)"
            + ("" if disagreements else "; theory and oracle agree")
        )
    return EXIT_OK if disagreements == 0 else EXIT_NEGATIVE


def cmd_export(args: argparse.Namespace) -> int:
    target = args.target
    if Path(target).exists():
        spec, f = read_labeling(Path(target).read_text())
    else:
        spec, f = parse_spec(target), None
    dot = to_dot(build_tree(spec), f)
    if args.out:
        Path(args.out).write_text(dot)
        print(f"DOT written to {args.out}")
    else:
        print(dot, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--search-budget", type=_parse_budget, default=None,
                   metavar="N", help="node budget (accepts 10^6 / 1e6 forms)")
    p.add_argument("--override-guard", action="store_true",
                   help=f"search even when q > {GUARD_Q}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="segtrees",
        description="Super edge-graceful labelings of diameter-4 trees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="family, (j,k,l), and dispatch case")
    p.add_argument("spec")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("label", help="construct (or search for) a SEG labeling")
    p.add_argument("spec")
    p.add_argument("--out", metavar="PATH", help="also write the labeling file")
    p.add_argument("--certificates-dir", metavar="PATH", default=None,
                   help="write an absence certificate here when search exhausts")
    _add_format(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling file")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="run the exhaustive oracle")
    p.add_argument("spec")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaust", action="store_true",
                      help="stop at the first labeling; certify absence if none exists")
    mode.add_argument("--count", action="store_true",
                      help="count all SEG labelings (symmetry re-expanded)")
    p.add_argument("--certificates-dir", metavar="PATH", default="certificates")
    _add_format(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("survey", help="theory vs oracle over all small trees")
    p.add_argument("--max-size", type=int, default=9, metavar="Q")
    _add_format(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("export", help="emit a DOT drawing of a spec or labeling file")
    p.add_argument("target", help="tree spec or labeling file path")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_export)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args builds a fresh Namespace and re-applies every default on each
    # call, so one parser serves any number of main() calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None); return its exit code.

    main can be called any number of times in one process.  It builds its
    parser on the first call and reuses it, so the ``cmd_*`` handlers are
    bound once: to change what a command does, patch the module-level
    helpers they call (``cli.search``, ``constructions._even_q``),
    not ``cmd_*``.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except ConstructionFault as exc:
        print(f"internal error: produced labeling failed verification: {exc}",
              file=sys.stderr)
        return EXIT_NEGATIVE
    except GuardRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except LabelingFormatError as exc:
        print(f"bad labeling file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # SpecSyntaxError, EmptyRange, unusable path, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
