"""Edge labelings of diameter-4 trees and the super edge-graceful test.

An edge labeling assigns each of the q edges a distinct value from the edge
target set: ``{+-1, ..., +-q/2}`` for even q, ``{0, +-1, ..., +-(q-1)/2}``
for odd q.  The induced vertex labeling sums the labels of the edges at each
vertex; the labeling is super edge-graceful (SEG) when the induced labels
form exactly the vertex target set of size p = q + 1.

Edges are keyed by their child endpoint (``v3`` for a spine edge, ``v3.2``
for a leaf edge), so an induced vertex labeling shares the key space plus
``v0`` for the root.  A ``tree`` argument is the ``TreeSpec`` itself.
Internally a labeling is a list of labels in slot order, the order of
``tree.edge_ids``; the ids are only looked up at the dict boundary.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .trees import TreeSpec, parse_spec

EdgeLabeling = dict[str, int]
VertexLabeling = dict[str, int]


class DomainMismatch(ValueError):
    """Labeling keys differ from the tree's edge set."""

    def __init__(self, missing: tuple[str, ...], extra: tuple[str, ...]):
        self.missing = missing
        self.extra = extra
        super().__init__(f"missing edges {list(missing)}, unknown edges {list(extra)}")


class LabelingFormatError(ValueError):
    """Labeling file text is not the expected JSON object."""


def _symmetric_target(m: int) -> list[int]:
    # the m integers of smallest magnitude, ascending, symmetric about 0:
    # even m -> +-1..+-m/2, odd m -> 0, +-1..+-(m-1)/2
    if m < 1:
        raise ValueError(f"target set size must be positive, got {m}")
    half = m // 2
    if m % 2 == 0:
        return [*range(-half, 0), *range(1, half + 1)]
    return list(range(-half, half + 1))


def edge_label_target(q: int) -> tuple[int, ...]:
    """Ascending edge label pool for a tree with q edges."""
    return tuple(_symmetric_target(q))


def vertex_label_target(p: int) -> tuple[int, ...]:
    """Ascending induced-label target for a tree with p vertices."""
    return tuple(_symmetric_target(p))


def _slots(tree: TreeSpec, f: EdgeLabeling) -> list[int]:
    """f's labels in slot order; raises DomainMismatch unless f is total.

    A dict already keyed in slot order, as a file from ``write_slots`` is
    read, gives its values as they stand; any other order is looked up."""
    if len(f) == tree.q:
        if tuple(f) == tree.edge_ids:
            return list(f.values())
        try:
            return [f[e] for e in tree.edge_ids]
        except KeyError:
            pass
    edge_set = set(tree.edge_ids)
    missing = tuple(e for e in tree.edge_ids if e not in f)
    extra = tuple(sorted(e for e in f if e not in edge_set))
    raise DomainMismatch(missing, extra)


def _induced(tree: TreeSpec, x: list[int]) -> list[int]:
    """Induced labels, in ``tree.vertex_ids`` order, of slot labels x."""
    n = tree.n
    # prefix[s] is the sum of slots 0 .. s-1: the root's label is prefix[n].
    # bounds holds each vertex's first leaf slot, then q, so a vertex's
    # leaves sum to the difference of prefix at its bound and the next
    prefix = list(accumulate(x, initial=0))
    bounds = list(accumulate(tree.counts, initial=n))
    branch = [
        xi + prefix[end] - prefix[start]
        for xi, start, end in zip(x, bounds, bounds[1:])
    ]
    return [prefix[n]] + branch + x[n:]


def induce(tree: TreeSpec, f: EdgeLabeling) -> VertexLabeling:
    """Induced vertex labeling; raises DomainMismatch unless f is total."""
    return dict(zip(tree.vertex_ids, _induced(tree, _slots(tree, f))))


def negate(f: EdgeLabeling) -> EdgeLabeling:
    """Negate every label; SEG is preserved (sums negate alongside)."""
    return {e: -v for e, v in f.items()}


@dataclass(frozen=True)
class Violation:
    """One way the labeling fails, with the offending items.

    kind DomainMismatch: missing/extra are edge identifiers; for a slot
    list of the wrong length, the unlabeled edges and the surplus slots.
    kind EdgeLabelsNotTargetSet / VertexLabelsNotTargetSet: missing holds
    target values not used, extra holds values used that are outside the
    target or duplicated.
    """

    kind: str
    missing: tuple = ()
    extra: tuple = ()

    def describe(self) -> str:
        parts = [self.kind]
        if self.missing:
            parts.append(f"missing {list(self.missing)}")
        if self.extra:
            parts.append(f"unexpected {list(self.extra)}")
        return ": ".join([parts[0], "; ".join(parts[1:])]) if len(parts) > 1 else parts[0]


@dataclass(frozen=True)
class VerificationReport:
    is_seg: bool
    violations: tuple[Violation, ...]

    def describe(self) -> str:
        return "; ".join(v.describe() for v in self.violations)


class ConstructionFault(RuntimeError):
    """A labeling the package produced, by a closed-form rule or by search,
    failed verification: a bug, never an answer."""

    def __init__(self, spec: TreeSpec, tag: str, detail: str):
        self.spec = spec
        self.tag = tag
        super().__init__(f"{tag} on {spec}: {detail}")


def _multiset_violation(kind: str, values, target: list[int],
                        strays: tuple = ()) -> Violation | None:
    """None when values equal the ascending list target as multisets; else
    what differs.

    One sort decides; ``Counter`` runs only to describe a failure.  strays
    are labels that are not ints: they are listed as unexpected after the
    sorted integer extras.
    """
    if not strays and sorted(values) == target:
        return None
    have = Counter(values)
    want = Counter(target)
    missing = tuple(sorted((want - have).elements()))
    extra = tuple(sorted((have - want).elements())) + strays
    return Violation(kind, missing, extra)


def verify_slots(tree: TreeSpec, x: list[int]) -> tuple[VerificationReport, list[int] | None]:
    """The SEG check of int labels x in slot order: edge multiset, then
    induced multiset.  Also returns the induced labels, in
    ``tree.vertex_ids`` order, for callers that print them.  Never raises:
    a list of the wrong length is a DomainMismatch, with no induced labels.
    """
    if len(x) != tree.q:
        mismatch = Violation("DomainMismatch", tree.edge_ids[len(x):], tuple(range(tree.q, len(x))))
        return VerificationReport(is_seg=False, violations=(mismatch,)), None
    induced = _induced(tree, x)
    violations = tuple(v for v in (
        _multiset_violation("EdgeLabelsNotTargetSet", x, _symmetric_target(tree.q)),
        _multiset_violation("VertexLabelsNotTargetSet", induced, _symmetric_target(tree.p)),
    ) if v)
    return VerificationReport(is_seg=not violations, violations=violations), induced


def checked(tree: TreeSpec, x: list[int], tag: str) -> list[int]:
    """The one gate for a labeling the package produced, in slot order: its
    induced labels, or ConstructionFault(tag) unless it is SEG."""
    report, induced = verify_slots(tree, x)
    if not report.is_seg:
        raise ConstructionFault(tree, tag, report.describe())
    return induced


def verify(tree: TreeSpec, f: EdgeLabeling) -> VerificationReport:
    """Full SEG check.  Never raises; every failure is listed in the report.

    A total labeling with int labels goes to ``verify_slots``.  A label
    that is not an int is listed as unexpected in
    ``EdgeLabelsNotTargetSet``; induced labels are then not checked, as for
    a domain mismatch.
    """
    violations: list[Violation] = []
    try:
        x = _slots(tree, f)
    except DomainMismatch as exc:
        violations.append(Violation("DomainMismatch", exc.missing, exc.extra))
        x = None
    labels = f.values()
    strays: tuple = ()
    if set(map(type, labels)) != {int}:
        strays = tuple(v for v in labels if type(v) is not int)
        labels = [v for v in labels if type(v) is int]
    elif x is not None:
        return verify_slots(tree, x)[0]
    edge_bad = _multiset_violation(
        "EdgeLabelsNotTargetSet", labels, _symmetric_target(tree.q), strays
    )
    if edge_bad:
        violations.append(edge_bad)
    return VerificationReport(is_seg=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# labeling files
# ---------------------------------------------------------------------------

def _require_int_labels(f: EdgeLabeling) -> None:
    """LabelingFormatError for the first label that is not an int; a bool
    is not an int here."""
    if not set(map(type, f.values())) <= {int}:
        key = next(k for k, v in f.items() if type(v) is not int)
        raise LabelingFormatError(f"label for {key!r} must be an integer")


def write_labeling(tree: TreeSpec, f: EdgeLabeling) -> str:
    """Serialize as a JSON object {spec, edges}, edges in tree order; f
    must be total (DomainMismatch) with int labels (LabelingFormatError)."""
    x = _slots(tree, f)
    _require_int_labels(f)
    return write_slots(tree, x)


def write_slots(tree: TreeSpec, x: list[int]) -> str:
    """``write_labeling`` of the labeling whose labels in slot order are x.

    For int labels the text is exactly ``json.dumps({"spec": ..., "edges":
    ...}, indent=2)`` plus a newline, formatted here because the indenting
    encoder runs in pure Python.  Edge ids need no escaping.
    """
    spec = json.dumps(tree.format())
    return f'{{\n  "spec": {spec},\n  "edges": {{\n{edge_lines(tree, x)}\n  }}\n}}\n'


def edge_lines(tree: TreeSpec, x: list[int]) -> str:
    """The int labels x in slot order keyed by edge id, one ``    "v1": 3``
    line each, joined by ``,`` and a newline: the members of an object one
    level inside the top object of ``json.dumps(..., indent=2)``."""
    return ",\n".join([f'    "{e}": {v}' for e, v in zip(tree.edge_ids, x)])


def read_labeling(text: str) -> tuple[TreeSpec, EdgeLabeling]:
    """Parse a labeling file; spec errors and shape errors raise ValueError."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise LabelingFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise LabelingFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise LabelingFormatError("labeling file must be a JSON object")
    if not isinstance(obj.get("spec"), str):
        raise LabelingFormatError("field 'spec' must be a string")
    edges = obj.get("edges")
    if not isinstance(edges, dict):
        raise LabelingFormatError("field 'edges' must be an object")
    _require_int_labels(edges)
    spec = parse_spec(obj["spec"])
    return spec, edges


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_SPEC_RE = re.compile(r"^\s*//\s*spec:\s*(.+?)\s*$", re.MULTILINE)


def to_dot(tree: TreeSpec, f: EdgeLabeling | None = None) -> str:
    """Graphviz text; node labels are induced labels when f is given.

    The spec is embedded as a comment so the drawing round-trips back to a
    parseable spec.  Ordering is deterministic: root, spine, leaves.
    """
    ids = tree.edge_ids
    x = _slots(tree, f) if f is not None else None
    node_labels = tree.vertex_ids if x is None else _induced(tree, x)

    def edge_attr(slot: int) -> str:
        return f' [label="{x[slot]}"]' if x is not None else ""

    lines = ["graph segtree {", f"  // spec: {tree.format()}"]
    for v, label in zip(tree.vertex_ids, node_labels):
        lines.append(f'  "{v}" [label="{label}"];')
    for i, (start, a) in enumerate(zip(tree.leaf_start, tree.counts)):
        lines.append(f'  "v0" -- "{ids[i]}"{edge_attr(i)};')
        for slot in range(start, start + a):
            lines.append(f'  "{ids[i]}" -- "{ids[slot]}"{edge_attr(slot)};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot_spec(text: str) -> TreeSpec:
    """Recover the spec from a DOT export's embedded comment."""
    m = _DOT_SPEC_RE.search(text)
    if m is None:
        raise LabelingFormatError("no '// spec:' comment found in DOT text")
    return parse_spec(m.group(1))
