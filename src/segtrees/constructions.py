"""Closed-form SEG labelings for every covered diameter-4 family.

Each rule below realizes one branch of the classification: given the
substitution parameters (r, s, t) it writes explicit labels onto spine and
leaf edges.  Rules are named by the dispatch tags in ``trees.classify``.
Every constructed labeling passes through the verifier before it is
returned; a formula bug therefore surfaces as ConstructionFault, never as a
silently wrong answer.

Conventions shared by the rules: spine edge i is ``v<i>``; leaf edges of
v_i are ``v<i>.<m>``, m starting at 1.  For a branch vertex, an even leaf
count 2b is consumed as b (+x, -x) pairs; an odd count 2b+1 leaves one
unpaired first leaf that the rules label explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .labeling import EdgeLabeling, VertexLabeling, verify
from .search import BUDGET_EXCEEDED, EXHAUSTED_NONE, FIND_ONE, SearchConfig, SearchResult
from .trees import (
    CONSTRUCTIVE,
    NOT_SEG,
    Classification,
    RootedTree,
    TreeSpec,
    build_tree,
    classify,
    leaf_edge_id,
    spine_edge_id,
)

LABELED = "labeled"
PROVED_NOT_SEG = "not_seg"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LabelOutcome:
    """What ``label_any`` decided, and the work behind it: the tree and induced
    labels that verified ``labeling``, and the fallback search run, if any.
    """

    kind: str
    tag: str
    labeling: EdgeLabeling | None = None
    case: str | None = None
    tree: RootedTree | None = None
    vertex_labels: VertexLabeling | None = None
    search: SearchResult | None = None

    @property
    def is_labeled(self) -> bool:
        return self.kind == LABELED


class WrongFamily(ValueError):
    """Spec routed to a labeler for a different family."""


class ConstructionFault(RuntimeError):
    """A rule produced a labeling that failed verification (formula bug)."""

    def __init__(self, spec: TreeSpec, tag: str, detail: str):
        self.spec = spec
        self.tag = tag
        super().__init__(f"{tag} on {spec}: {detail}")


class _Builder:
    """Collision-checked edge label assignment."""

    def __init__(self, spec: TreeSpec, tag: str):
        self.spec = spec
        self.tag = tag
        self.f: EdgeLabeling = {}

    def _put(self, eid: str, value: int) -> None:
        if eid in self.f:
            raise ConstructionFault(
                self.spec, self.tag, f"edge {eid} assigned twice ({self.f[eid]}, {value})"
            )
        self.f[eid] = value

    def spine(self, i: int, value: int) -> None:
        if not 1 <= i <= self.spec.n:
            raise ConstructionFault(self.spec, self.tag, f"spine index {i} out of range")
        self._put(spine_edge_id(i), value)

    def leaf(self, i: int, m: int, value: int) -> None:
        if not 1 <= m <= self.spec.a(i):
            raise ConstructionFault(self.spec, self.tag, f"leaf ({i},{m}) out of range")
        self._put(leaf_edge_id(i, m), value)

    def pair(self, i: int, m: int, value: int) -> None:
        """Leaf pair (+value, -value) at positions (2m-1, 2m) under v_i."""
        self.leaf(i, 2 * m - 1, value)
        self.leaf(i, 2 * m, -value)

    def pair_shifted(self, i: int, m: int, value: int) -> None:
        """Leaf pair (+value, -value) at positions (2m, 2m+1) under v_i."""
        self.leaf(i, 2 * m, value)
        self.leaf(i, 2 * m + 1, -value)


# ---------------------------------------------------------------------------
# caterpillars, q even
# ---------------------------------------------------------------------------

def _cat_q_even_j_even_both_even(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, counts 2s and 2t, 1 <= s <= t; q = 2(r+s+t+1)."""
    for i in range(1, r + 2):
        B.spine(2 * i - 1, i)
        B.spine(2 * i, -i)
    for i in range(1, s + 1):
        B.pair(2 * r + 1, i, r + 1 + i)
    for i in range(1, t + 1):
        B.pair(2 * r + 2, i, r + s + 1 + i)


def _cat_q_even_j_even_both_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, counts 2s-1 and 2t-1, 1 <= s <= t; q = 2(r+s+t)."""
    B.spine(2 * r + 1, 1)
    B.spine(2 * r + 2, -1)
    B.leaf(2 * r + 1, 1, -2)
    B.leaf(2 * r + 2, 1, 2)
    for i in range(1, r + 1):
        B.spine(2 * i - 1, 2 + i)
        B.spine(2 * i, -(2 + i))
    for i in range(1, s):
        B.pair_shifted(2 * r + 1, i, r + 2 + i)
    for i in range(1, t):
        B.pair_shifted(2 * r + 2, i, r + s + 1 + i)


def _cat_q_even_j_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r-1, counts 2s then 2t-1; r, s, t >= 1; q = 2(r+s+t)."""
    B.spine(2 * r + 1, 1)
    B.leaf(2 * r + 1, 1, -1)
    for i in range(1, r + 1):
        B.spine(2 * i - 1, 1 + i)
        B.spine(2 * i, -(1 + i))
    for i in range(1, s + 1):
        B.pair(2 * r, i, r + 1 + i)
    for i in range(1, t):
        B.pair_shifted(2 * r + 1, i, r + s + 1 + i)


# ---------------------------------------------------------------------------
# caterpillars, q odd
# ---------------------------------------------------------------------------

def _cat_q_odd_j_even(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, counts 2s then 2t-1; r >= 0, s, t >= 1; q = 2(r+s+t)+1."""
    big = r + s + t
    B.spine(2 * r + 1, 0)
    B.spine(2 * r + 2, 1)
    B.leaf(2 * r + 1, 1, -1)
    B.leaf(2 * r + 1, 2, -big)
    B.leaf(2 * r + 2, 1, big)
    for i in range(1, r + 1):
        B.spine(2 * i - 1, 1 + i)
        B.spine(2 * i, -(1 + i))
    for i in range(2, s + 1):
        B.pair(2 * r + 1, i, r + i)
    for i in range(1, t):
        B.pair_shifted(2 * r + 2, i, r + s + i)


def _cat_q_odd_j_odd_evens(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r-1, counts 2s and 2t, 1 <= s <= t; q = 2(r+s+t)+1."""
    big = r + s + t
    B.spine(1, 1)
    B.spine(2 * r, 0)
    B.spine(2 * r + 1, big)
    B.leaf(2 * r, 1, -1)
    B.leaf(2 * r, 2, -big)
    for i in range(1, r):
        B.spine(2 * i, 1 + i)
        B.spine(2 * i + 1, -(1 + i))
    for i in range(1, s):
        B.pair(2 * r, i + 1, r + i)
    for i in range(1, t + 1):
        B.pair(2 * r + 1, i, r + s - 1 + i)


def _cat_q_odd_single_leaf(B: _Builder, r: int, s: None, t: int) -> None:
    """j = 2r+1 >= 3, counts 1 and 2t+1 >= 3; q = 2(r+t+2)+1; no s."""
    big = r + t + 2
    B.spine(1, -1)
    B.spine(2, -2)
    B.spine(3, 3)
    B.spine(2 * r + 2, 1)
    B.spine(2 * r + 3, 0)
    B.leaf(2 * r + 2, 1, big)
    B.leaf(2 * r + 3, 1, 2)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * r + 3, 3, -big)
    for i in range(2, r + 1):
        B.spine(2 * i, i + 2)
        B.spine(2 * i + 1, -(i + 2))
    for i in range(2, t + 1):
        B.pair_shifted(2 * r + 3, i, r + 1 + i)


def _cat_q_odd_j_odd_odds(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r+1, counts 2s+1 and 2t+1, 1 <= s <= t; q = 2(r+s+t+2)+1."""
    big = r + s + t + 2
    B.spine(1, big)
    B.spine(2 * r + 2, 1)
    B.spine(2 * r + 3, 0)
    B.leaf(2 * r + 2, 1, -1)
    B.leaf(2 * r + 2, 2, -2)
    B.leaf(2 * r + 2, 3, 3)
    B.leaf(2 * r + 3, 1, 2)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * r + 3, 3, -big)
    for i in range(1, r + 1):
        B.spine(2 * i, 3 + i)
        B.spine(2 * i + 1, -(3 + i))
    for i in range(2, s + 1):
        B.pair_shifted(2 * r + 2, i, r + 2 + i)
    for i in range(2, t + 1):
        B.pair_shifted(2 * r + 3, i, r + s + 1 + i)


# ---------------------------------------------------------------------------
# lobsters, q even
# ---------------------------------------------------------------------------

def _leaf_groups(
    B: _Builder, first: int, start_vertex: int, placed: tuple[int, ...] = ()
) -> None:
    """Paired leaves for all branch vertices from start_vertex on.

    The unlabeled pairs get consecutive labels from ``first``; a vertex with
    count 2b or 2b+1 has b pairs.  Even counts pair at (2m-1, 2m); odd
    counts keep position 1 free (labeled explicitly elsewhere) and pair at
    (2m, 2m+1).  Vertices in ``placed`` already carry their first pair.
    """
    spec = B.spec
    value = first
    for i in range(start_vertex, spec.n + 1):
        a = spec.a(i)
        put = B.pair if a % 2 == 0 else B.pair_shifted
        for m in range(2 if i in placed else 1, a // 2 + 1):
            put(i, m, value)
            value += 1


def _lob_even_size_l_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """q even, l = 2t+1; j+k = 2rs with rs = r+s; branch blocks j+1..n."""
    spec = B.spec
    rs = r + s
    n = spec.n
    B.spine(2 * rs + 1, 1)
    for i in range(1, t + 1):
        B.spine(2 * (rs + i), -(2 * i - 1))
        B.spine(2 * (rs + i) + 1, 2 * i + 1)
    B.leaf(n, 1, -(2 * t + 1))
    for i in range(1, t + 1):
        B.leaf(2 * (rs + i) - 1, 1, -2 * (t + 1 - i))
        B.leaf(2 * (rs + i), 1, 2 * (t + 1 - i))
    for i in range(1, rs + 1):
        B.spine(2 * i - 1, 2 * t + 1 + i)
        B.spine(2 * i, -(2 * t + 1 + i))
    _leaf_groups(B, rs + 2 * t + 2, spec.j + 1)


def _lob_even_size_l_even(B: _Builder, r: int, s: int, t: int) -> None:
    """q even, l = 2t; j+k = 2rs with rs = r+s; branch blocks j+1..n."""
    spec = B.spec
    rs = r + s
    for i in range(1, t + 1):
        B.spine(2 * (rs + i) - 1, 2 * i - 1)
        B.spine(2 * (rs + i), -(2 * i - 1))
        B.leaf(2 * (rs + i) - 1, 1, -2 * (t + 1 - i))
        B.leaf(2 * (rs + i), 1, 2 * (t + 1 - i))
    for i in range(1, rs + 1):
        B.spine(2 * i - 1, 2 * t + i)
        B.spine(2 * i, -(2 * t + i))
    _leaf_groups(B, rs + 2 * t + 1, spec.j + 1)


# ---------------------------------------------------------------------------
# lobsters, q odd
# ---------------------------------------------------------------------------

def _lob_jkl_even_odd_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, k = 2s-1, l = 2t+1; s+t >= 2; q = 2(r+s+2t+sum b)+1.

    Branch blocks: even counts at 2r+1 .. 2(r+s)-1, odd counts at
    2(r+s) .. n = 2(r+s+t).
    """
    spec = B.spec
    n = spec.n
    sb = sum(spec.a(i) // 2 for i in range(spec.j + 1, n + 1))
    big = r + s + 2 * t + sb
    B.spine(2 * r + 1, 0)
    if t == 0:
        # single odd-count vertex at 2(r+s); here s >= 2
        B.spine(2 * (r + s), 1)
        B.leaf(2 * r + 1, 1, -1)
        B.leaf(2 * (r + s), 1, big)
        B.leaf(2 * r + 1, 2, -big)
        for i in range(1, r + 1):
            B.spine(2 * i - 1, 1 + i)
            B.spine(2 * i, -(1 + i))
        for i in range(1, s):
            B.spine(2 * (r + i), r + 1 + i)
            B.spine(2 * (r + i) + 1, -(r + 1 + i))
        first = r + s + 1
    else:
        for i in range(1, t + 1):
            B.spine(2 * (r + s + i - 1), 2 * i - 1)
            B.spine(2 * (r + s + i) - 1, -(2 * i - 1))
        B.spine(2 * (r + s + t), 2 * t + 1)
        B.leaf(2 * r + 1, 1, -(2 * t + 1))
        B.leaf(2 * (r + s + t), 1, -2)
        B.leaf(2 * r + 1, 2, 2)
        B.leaf(2 * (r + s), 1, big)
        B.leaf(2 * (r + s) + 1, 1, -big)
        for i in range(1, t):
            B.leaf(2 * (r + s + i), 1, -2 * (t - i + 1))
            B.leaf(2 * (r + s + i) + 1, 1, 2 * (t - i + 1))
        for i in range(1, r + 1):
            B.spine(2 * i - 1, 2 * t + 1 + i)
            B.spine(2 * i, -(2 * t + 1 + i))
        for i in range(1, s):
            B.spine(2 * (r + i), r + 2 * t + 1 + i)
            B.spine(2 * (r + i) + 1, -(r + 2 * t + 1 + i))
        first = r + s + 2 * t + 1
    _leaf_groups(B, first, 2 * r + 1, placed=(2 * r + 1,))


def _lob_jkl_even_odd_even(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, k = 2s+1 >= 3, l = 2t; q = 2(r+s+2t+sum b)+1.

    Branch blocks: even counts at 2r+1 .. 2(r+s)+1, odd counts at
    2(r+s)+2 .. n = 2(r+s+t)+1.
    """
    spec = B.spec
    n = spec.n
    sb = sum(spec.a(i) // 2 for i in range(spec.j + 1, n + 1))
    B.spine(2 * r + 1, 0)
    if t == 0:
        big = r + s + sb
        B.spine(2 * r + 2, 1)
        B.spine(2 * r + 3, big)
        B.leaf(2 * r + 1, 1, -1)
        B.leaf(2 * r + 1, 2, -big)
        for i in range(1, r + 1):
            B.spine(2 * i - 1, 1 + i)
            B.spine(2 * i, -(1 + i))
        for i in range(2, s + 1):
            B.spine(2 * (r + i), r + i)
            B.spine(2 * (r + i) + 1, -(r + i))
        first = r + s + 1
    else:
        big = r + s + 2 * t + sb
        B.spine(2 * r + 2, 2)
        B.spine(2 * r + 3, -(2 * t + 1))
        B.leaf(2 * r + 1, 1, -2)
        B.leaf(2 * r + 1, 2, 2 * t + 1)
        B.leaf(2 * (r + s + 1), 1, big)
        B.leaf(2 * (r + s + 1) + 1, 1, -big)
        for i in range(1, r + 1):
            B.spine(2 * i - 1, 2 * t + 1 + i)
            B.spine(2 * i, -(2 * t + 1 + i))
        for i in range(2, s + 1):
            B.spine(2 * (r + i), 2 * t + r + i)
            B.spine(2 * (r + i) + 1, -(2 * t + r + i))
        for i in range(1, t + 1):
            B.spine(2 * (r + s + i), 2 * i - 1)
            B.spine(2 * (r + s + i) + 1, -(2 * i - 1))
        for i in range(2, t + 1):
            B.leaf(2 * (r + s + i), 1, -2 * (t + 2 - i))
            B.leaf(2 * (r + s + i) + 1, 1, 2 * (t + 2 - i))
        first = 2 * t + r + s + 1
    _leaf_groups(B, first, 2 * r + 1, placed=(2 * r + 1,))


def _lob_jkl_odd_even_small_l(B: _Builder, r: int, s: int, t: None) -> None:
    """j = 2r+1, k = 2s >= 2, l in {1, 2}; q = 2(r+s+l+sum b)+1; no t.

    Branch blocks: even counts at 2r+2 .. 2(r+s)+1, odd counts at the last
    l spine positions.
    """
    spec = B.spec
    n = spec.n
    l = spec.l
    sb = sum(spec.a(i) // 2 for i in range(spec.j + 1, n + 1))
    if l == 1:
        big = r + s + 1 + sb
        B.spine(2 * r + 2, 0)
        B.spine(n, 1)
        B.leaf(2 * r + 2, 1, -1)
        B.leaf(n, 1, big)
        B.leaf(2 * r + 2, 2, -big)
        for i in range(1, r + 1):
            B.spine(2 * i - 1, 1 + i)
            B.spine(2 * i, -(1 + i))
        B.spine(2 * r + 1, r + 2)
        B.spine(2 * r + 3, -(r + 2))
        for i in range(2, s + 1):
            B.spine(2 * (r + i), r + 1 + i)
            B.spine(2 * (r + i) + 1, -(r + 1 + i))
        _leaf_groups(B, r + s + 2, 2 * r + 2, placed=(2 * r + 2,))
        return
    # l == 2
    big = r + s + 2 + sb
    B.spine(2 * r + 2, 0)
    B.spine(1, 1)
    B.leaf(2 * r + 2, 1, -1)
    B.spine(2 * (r + s + 1), 2)
    B.spine(2 * (r + s + 1) + 1, -2)
    B.leaf(2 * r + 3, 1, 3)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * (r + s + 1), 1, -4)
    B.leaf(2 * (r + s + 1) + 1, 1, 4)
    B.spine(2 * r + 3, big)
    B.leaf(2 * r + 2, 2, -big)
    for i in range(1, r + 1):
        B.spine(2 * i, 4 + i)
        B.spine(2 * i + 1, -(4 + i))
    for i in range(2, s + 1):
        B.spine(2 * (r + i), r + 3 + i)
        B.spine(2 * (r + i) + 1, -(r + 3 + i))
    _leaf_groups(B, r + s + 4, 2 * r + 2, placed=(2 * r + 2, 2 * r + 3))


#: dispatch tag -> rule(B, r, s, t); the one tag whose cases take different
#: rules is keyed "tag/case"
_RULES = {
    "cat-q-even-j-even/both-even": _cat_q_even_j_even_both_even,
    "cat-q-even-j-even/both-odd": _cat_q_even_j_even_both_odd,
    "cat-q-even-j-odd": _cat_q_even_j_odd,
    "cat-q-odd-j-even": _cat_q_odd_j_even,
    "cat-q-odd-j-odd-evens": _cat_q_odd_j_odd_evens,
    "cat-q-odd-single-leaf": _cat_q_odd_single_leaf,
    "cat-q-odd-j-odd-odds": _cat_q_odd_j_odd_odds,
    "lob-jkl-odd-odd-odd": _lob_even_size_l_odd,
    "lob-jkl-even-even-odd": _lob_even_size_l_odd,
    "lob-jkl-odd-odd-even": _lob_even_size_l_even,
    "lob-jkl-even-even-even": _lob_even_size_l_even,
    "lob-jkl-even-odd-odd": _lob_jkl_even_odd_odd,
    "lob-jkl-even-odd-even": _lob_jkl_even_odd_even,
    "lob-jkl-odd-even-small-l": _lob_jkl_odd_even_small_l,
}


def _build_for(cls: Classification) -> EdgeLabeling:
    rule = _RULES.get(f"{cls.tag}/{cls.case}") or _RULES.get(cls.tag)
    if rule is None:
        raise ConstructionFault(cls.spec, cls.tag, "no rule implemented for this tag")
    B = _Builder(cls.spec, cls.tag)
    p = cls.params
    rule(B, p.get("r"), p.get("s"), p.get("t"))
    return B.f


def _verified(
    spec: TreeSpec, f: EdgeLabeling, tag: str, case: str | None = None,
    search: SearchResult | None = None,
) -> LabelOutcome:
    """The one verification gate every produced labeling passes."""
    tree = build_tree(spec)
    report = verify(tree, f)
    if not report.is_seg:
        detail = "; ".join(v.describe() for v in report.violations)
        raise ConstructionFault(spec, tag, detail)
    return LabelOutcome(LABELED, tag, f, case, tree, report.vertex_labels, search)


def _run(cls: Classification) -> LabelOutcome:
    if cls.status == NOT_SEG:
        return LabelOutcome(PROVED_NOT_SEG, cls.tag)
    if cls.status != CONSTRUCTIVE:
        return LabelOutcome(UNKNOWN, cls.tag)
    return _verified(cls.spec, _build_for(cls), cls.tag, cls.case)


def _family_labeler(spec: TreeSpec, family: str) -> LabelOutcome:
    if spec.family != family:
        raise WrongFamily(f"{spec} is a {spec.family}, not a {family}")
    return _run(classify(spec))


def label_even_caterpillar(spec: TreeSpec) -> LabelOutcome:
    return _family_labeler(spec, "EvenCaterpillar")


def label_odd_caterpillar(spec: TreeSpec) -> LabelOutcome:
    return _family_labeler(spec, "OddCaterpillar")


def label_even_lobster(spec: TreeSpec) -> LabelOutcome:
    return _family_labeler(spec, "EvenLobster")


def label_odd_lobster(spec: TreeSpec) -> LabelOutcome:
    return _family_labeler(spec, "OddLobster")


def label_any(spec: TreeSpec, config: SearchConfig | None = None) -> LabelOutcome:
    """Dispatch to the right family labeler; with a config, fall back to search.

    Given a search config, an UNKNOWN outcome (conjectured or uncovered
    family) is retried by one FIND_ONE search under that config: a found
    labeling, verified, upgrades to LABELED with tag "by-search", full
    exhaustion to PROVED_NOT_SEG with tag "by-exhaustion", and a spent
    budget stays UNKNOWN.
    """
    outcome = _run(classify(spec))
    if outcome.kind != UNKNOWN or config is None:
        return outcome
    # looked up per call, so a patched or wrapped segtrees.search.search runs
    from .search import search

    result = search(spec, replace(config, mode=FIND_ONE))
    if result.outcome == BUDGET_EXCEEDED:
        return replace(outcome, search=result)
    if result.outcome == EXHAUSTED_NONE:
        return LabelOutcome(PROVED_NOT_SEG, "by-exhaustion", search=result)
    return _verified(spec, result.labeling, "by-search", search=result)
