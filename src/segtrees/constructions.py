"""Closed-form SEG labelings for every covered diameter-4 family.

Each rule below writes explicit labels onto spine and leaf edges from a
few substitution parameters.  Each odd-q rule realizes one dispatch tag of
``trees.classify`` and reads its (r, s, t).  Even q needs only two rules:
q is the sum of 1 + a_i over the spine vertices, a term that is odd for a
zero or positive even count and even for an odd one, so q = j + k (mod 2).
Every even-q tree, caterpillar (k + l = 2) or lobster, thus has j + k = 2rs,
and ``_even_q_l_odd`` / ``_even_q_l_even``, picked by the parity of l, read
just rs and t = l // 2.

Every constructed labeling passes through the verifier before it is
returned; a formula bug therefore surfaces as ConstructionFault, never as a
silently wrong answer.

Conventions shared by the rules: spine edge i is slot i - 1 of the tree;
leaf m of v_i, m starting at 1, is slot ``leaf_start[i - 1] + m - 1``.  The
rules differ only in their formulas; three placers write the (+x, -x)
pairs they share.  ``_Builder.spine_pairs(i, count, value, step)`` labels
spine edges i, i+1, ... with pairs, x = value, value + step, ....
``_Builder.first_leaf_pairs(i, count, value)`` labels the first leaves of
v_i, v_i+1, ... with pairs, x rising by 2 from value.  ``_paired_leaves``
labels the leaves of every vertex from a start vertex on with consecutive
(+x, -x) pairs through ``_Builder.pair``: an even leaf count 2b is consumed
as b pairs at positions (2m-1, 2m); an odd count 2b+1 leaves its first leaf
unpaired, for the rule to label explicitly, and pairs at (2m, 2m+1).
``B.top`` is the largest edge label, q // 2: each odd-q rule's docstring
gives q = 2 * top + 1, and the rule puts +top and -top on two edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .labeling import EdgeLabeling, verify
from .search import BUDGET_EXCEEDED, EXHAUSTED_NONE, FIND_ONE, SearchConfig, SearchResult
from .trees import (
    CONSTRUCTIVE,
    NOT_SEG,
    Classification,
    RootedTree,
    TreeSpec,
    build_tree,
    classify,
)

LABELED = "labeled"
PROVED_NOT_SEG = "not_seg"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LabelOutcome:
    """What ``label_any`` decided, and the work behind it: the tree that
    verified ``labeling``, and the fallback search run, if any.
    """

    kind: str
    tag: str
    labeling: EdgeLabeling | None = None
    case: str | None = None
    tree: RootedTree | None = None
    search: SearchResult | None = None

    @property
    def is_labeled(self) -> bool:
        return self.kind == LABELED


class ConstructionFault(RuntimeError):
    """A rule produced a labeling that failed verification (formula bug)."""

    def __init__(self, spec: TreeSpec, tag: str, detail: str):
        self.spec = spec
        self.tag = tag
        super().__init__(f"{tag} on {spec}: {detail}")


class _Builder:
    """Collision-checked label assignment to the slots of ``tree``."""

    def __init__(self, tree: RootedTree, tag: str):
        self.tree = tree
        self.spec = tree.spec
        self.tag = tag
        self.top = tree.q // 2  # the largest edge label
        self.f: dict[int, int] = {}  # slot -> label, in assignment order

    def _put(self, slot: int, value: int) -> None:
        if slot in self.f:
            eid = self.tree.edge_ids[slot]
            raise ConstructionFault(
                self.spec, self.tag, f"edge {eid} assigned twice ({self.f[slot]}, {value})"
            )
        self.f[slot] = value

    def spine(self, i: int, value: int) -> None:
        if not 1 <= i <= self.spec.n:
            raise ConstructionFault(self.spec, self.tag, f"spine index {i} out of range")
        self._put(i - 1, value)

    def leaf(self, i: int, m: int, value: int) -> None:
        if not (1 <= i <= self.spec.n and 1 <= m <= self.spec.a(i)):
            raise ConstructionFault(self.spec, self.tag, f"leaf ({i},{m}) out of range")
        self._put(self.tree.leaf_start[i - 1] + m - 1, value)

    def spine_pairs(self, i: int, count: int, value: int, step: int = 1) -> None:
        """``count`` pairs (+x, -x) on spine edges i, i+1, ..., x = value, value + step, ..."""
        for x in range(value, value + step * count, step):
            self.spine(i, x)
            self.spine(i + 1, -x)
            i += 2

    def first_leaf_pairs(self, i: int, count: int, value: int) -> None:
        """``count`` pairs (+x, -x) on the first leaves of v_i, v_i+1, ...,
        x from ``value`` up by 2."""
        for x in range(value, value + 2 * count, 2):
            self.leaf(i, 1, x)
            self.leaf(i + 1, 1, -x)
            i += 2

    def pair(self, i: int, m: int, value: int) -> None:
        """Leaf pair m (+value, -value) under v_i: at positions (2m-1, 2m) for
        an even leaf count, (2m, 2m+1) for an odd one."""
        pos = 2 * m - 1 + self.spec.a(i) % 2
        self.leaf(i, pos, value)
        self.leaf(i, pos + 1, -value)


def _paired_leaves(
    B: _Builder, first: int, start_vertex: int, placed: tuple[int, ...] = ()
) -> None:
    """Paired leaves for all vertices from start_vertex on.

    The unlabeled pairs get consecutive labels from ``first``; a vertex with
    count 2b or 2b+1 has b pairs.  Vertices in ``placed`` already carry their
    first pair.
    """
    value = first
    for i in range(start_vertex, B.spec.n + 1):
        for m in range(2 if i in placed else 1, B.spec.a(i) // 2 + 1):
            B.pair(i, m, value)
            value += 1


# ---------------------------------------------------------------------------
# q even: every caterpillar and lobster
# ---------------------------------------------------------------------------

def _even_q_l_odd(B: _Builder, rs: int, t: int) -> None:
    """q even, l = 2t+1, j+k = 2rs; branch blocks j+1..n."""
    B.spine_pairs(2 * rs + 1, t, 1, step=2)
    B.spine(2 * rs + 2 * t + 1, 2 * t + 1)
    B.leaf(B.spec.n, 1, -(2 * t + 1))
    B.first_leaf_pairs(2 * rs + 1, t, -2 * t)
    B.spine_pairs(1, rs, 2 * t + 2)
    _paired_leaves(B, rs + 2 * t + 2, B.spec.j + 1)


def _even_q_l_even(B: _Builder, rs: int, t: int) -> None:
    """q even, l = 2t, j+k = 2rs; branch blocks j+1..n."""
    for i in range(1, t + 1):
        B.spine_pairs(2 * (rs + i) - 1, 1, 2 * i - 1)
        B.first_leaf_pairs(2 * (rs + i) - 1, 1, -2 * (t + 1 - i))
    B.spine_pairs(1, rs, 2 * t + 1)
    _paired_leaves(B, rs + 2 * t + 1, B.spec.j + 1)


# ---------------------------------------------------------------------------
# caterpillars, q odd
# ---------------------------------------------------------------------------

def _cat_q_odd_j_even(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, counts 2s then 2t-1; r >= 0, s, t >= 1; q = 2(r+s+t)+1."""
    B.spine(2 * r + 1, 0)
    B.spine(2 * r + 2, 1)
    B.leaf(2 * r + 1, 1, -1)
    B.leaf(2 * r + 1, 2, -B.top)
    B.leaf(2 * r + 2, 1, B.top)
    B.spine_pairs(1, r, 2)
    _paired_leaves(B, r + 2, 2 * r + 1, placed=(2 * r + 1,))


def _cat_q_odd_j_odd_evens(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r-1, counts 2s and 2t, 1 <= s <= t; q = 2(r+s+t)+1."""
    B.spine(1, 1)
    B.spine(2 * r, 0)
    B.spine(2 * r + 1, B.top)
    B.leaf(2 * r, 1, -1)
    B.leaf(2 * r, 2, -B.top)
    B.spine_pairs(2, r - 1, 2)
    _paired_leaves(B, r + 1, 2 * r, placed=(2 * r,))


def _cat_q_odd_single_leaf(B: _Builder, r: int, s: None, t: int) -> None:
    """j = 2r+1 >= 3, counts 1 and 2t+1 >= 3; q = 2(r+t+2)+1; no s."""
    B.spine(1, -1)
    B.spine(2, -2)
    B.spine(3, 3)
    B.spine(2 * r + 2, 1)
    B.spine(2 * r + 3, 0)
    B.leaf(2 * r + 2, 1, B.top)
    B.leaf(2 * r + 3, 1, 2)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * r + 3, 3, -B.top)
    B.spine_pairs(4, r - 1, 4)
    _paired_leaves(B, r + 3, 2 * r + 3, placed=(2 * r + 3,))


def _cat_q_odd_j_odd_odds(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r+1, counts 2s+1 and 2t+1, 1 <= s <= t; q = 2(r+s+t+2)+1."""
    B.spine(1, B.top)
    B.spine(2 * r + 2, 1)
    B.spine(2 * r + 3, 0)
    B.leaf(2 * r + 2, 1, -1)
    B.leaf(2 * r + 2, 2, -2)
    B.leaf(2 * r + 2, 3, 3)
    B.leaf(2 * r + 3, 1, 2)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * r + 3, 3, -B.top)
    B.spine_pairs(2, r, 4)
    _paired_leaves(B, r + 4, 2 * r + 2, placed=(2 * r + 2, 2 * r + 3))


# ---------------------------------------------------------------------------
# lobsters, q odd
# ---------------------------------------------------------------------------

def _lob_jkl_even_odd_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, k = 2s-1, l = 2t+1; s+t >= 2; q = 2(r+s+2t+sum b)+1.

    Branch blocks: even counts at 2r+1 .. 2(r+s)-1, odd counts at
    2(r+s) .. n = 2(r+s+t).
    """
    B.spine(2 * r + 1, 0)
    if t == 0:
        # single odd-count vertex at 2(r+s); here s >= 2
        B.spine(2 * (r + s), 1)
        B.leaf(2 * r + 1, 1, -1)
        B.leaf(2 * (r + s), 1, B.top)
        B.leaf(2 * r + 1, 2, -B.top)
        B.spine_pairs(1, r, 2)
        B.spine_pairs(2 * r + 2, s - 1, r + 2)
        first = r + s + 1
    else:
        B.spine_pairs(2 * (r + s), t, 1, step=2)
        B.spine(2 * (r + s + t), 2 * t + 1)
        B.leaf(2 * r + 1, 1, -(2 * t + 1))
        B.leaf(2 * (r + s + t), 1, -2)
        B.leaf(2 * r + 1, 2, 2)
        B.leaf(2 * (r + s), 1, B.top)
        B.leaf(2 * (r + s) + 1, 1, -B.top)
        B.first_leaf_pairs(2 * (r + s + 1), t - 1, -2 * t)
        B.spine_pairs(1, r, 2 * t + 2)
        B.spine_pairs(2 * r + 2, s - 1, r + 2 * t + 2)
        first = r + s + 2 * t + 1
    _paired_leaves(B, first, 2 * r + 1, placed=(2 * r + 1,))


def _lob_jkl_even_odd_even(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, k = 2s+1 >= 3, l = 2t; q = 2(r+s+2t+sum b)+1.

    Branch blocks: even counts at 2r+1 .. 2(r+s)+1, odd counts at
    2(r+s)+2 .. n = 2(r+s+t)+1.
    """
    B.spine(2 * r + 1, 0)
    if t == 0:
        B.spine(2 * r + 2, 1)
        B.spine(2 * r + 3, B.top)
        B.leaf(2 * r + 1, 1, -1)
        B.leaf(2 * r + 1, 2, -B.top)
        B.spine_pairs(1, r, 2)
        B.spine_pairs(2 * r + 4, s - 1, r + 2)
        first = r + s + 1
    else:
        B.spine(2 * r + 2, 2)
        B.spine(2 * r + 3, -(2 * t + 1))
        B.leaf(2 * r + 1, 1, -2)
        B.leaf(2 * r + 1, 2, 2 * t + 1)
        B.leaf(2 * (r + s + 1), 1, B.top)
        B.leaf(2 * (r + s + 1) + 1, 1, -B.top)
        B.spine_pairs(1, r, 2 * t + 2)
        B.spine_pairs(2 * r + 4, s - 1, 2 * t + r + 2)
        B.spine_pairs(2 * (r + s + 1), t, 1, step=2)
        B.first_leaf_pairs(2 * (r + s + 2), t - 1, -2 * t)
        first = 2 * t + r + s + 1
    _paired_leaves(B, first, 2 * r + 1, placed=(2 * r + 1,))


def _lob_jkl_odd_even_small_l(B: _Builder, r: int, s: int, t: None) -> None:
    """j = 2r+1, k = 2s >= 2, l in {1, 2}; q = 2(r+s+l+sum b)+1; no t.

    Branch blocks: even counts at 2r+2 .. 2(r+s)+1, odd counts at the last
    l spine positions.
    """
    n = B.spec.n
    if B.spec.l == 1:
        B.spine(2 * r + 2, 0)
        B.spine(n, 1)
        B.leaf(2 * r + 2, 1, -1)
        B.leaf(n, 1, B.top)
        B.leaf(2 * r + 2, 2, -B.top)
        B.spine_pairs(1, r, 2)
        B.spine(2 * r + 1, r + 2)
        B.spine(2 * r + 3, -(r + 2))
        B.spine_pairs(2 * r + 4, s - 1, r + 3)
        _paired_leaves(B, r + s + 2, 2 * r + 2, placed=(2 * r + 2,))
        return
    # l == 2
    B.spine(2 * r + 2, 0)
    B.spine(1, 1)
    B.leaf(2 * r + 2, 1, -1)
    B.spine(2 * (r + s + 1), 2)
    B.spine(2 * (r + s + 1) + 1, -2)
    B.leaf(2 * r + 3, 1, 3)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * (r + s + 1), 1, -4)
    B.leaf(2 * (r + s + 1) + 1, 1, 4)
    B.spine(2 * r + 3, B.top)
    B.leaf(2 * r + 2, 2, -B.top)
    B.spine_pairs(2, r, 5)
    B.spine_pairs(2 * r + 4, s - 1, r + 5)
    _paired_leaves(B, r + s + 4, 2 * r + 2, placed=(2 * r + 2, 2 * r + 3))


#: odd-q dispatch tag -> rule(B, r, s, t)
_RULES = {
    "cat-q-odd-j-even": _cat_q_odd_j_even,
    "cat-q-odd-j-odd-evens": _cat_q_odd_j_odd_evens,
    "cat-q-odd-single-leaf": _cat_q_odd_single_leaf,
    "cat-q-odd-j-odd-odds": _cat_q_odd_j_odd_odds,
    "lob-jkl-even-odd-odd": _lob_jkl_even_odd_odd,
    "lob-jkl-even-odd-even": _lob_jkl_even_odd_even,
    "lob-jkl-odd-even-small-l": _lob_jkl_odd_even_small_l,
}


def _build_for(cls: Classification, tree: RootedTree) -> EdgeLabeling:
    spec, p = cls.spec, cls.params
    B = _Builder(tree, cls.tag)
    if spec.q % 2 == 0:
        rule = _even_q_l_odd if spec.l % 2 else _even_q_l_even
        rule(B, (spec.j + spec.k) // 2, spec.l // 2)
    elif cls.tag in _RULES:
        _RULES[cls.tag](B, p.get("r"), p.get("s"), p.get("t"))
    else:
        raise ConstructionFault(spec, cls.tag, "no rule implemented for this tag")
    return {tree.edge_ids[slot]: v for slot, v in B.f.items()}


def _verified(
    tree: RootedTree, f: EdgeLabeling, tag: str, case: str | None = None,
    search: SearchResult | None = None,
) -> LabelOutcome:
    """The one verification gate every produced labeling passes."""
    report = verify(tree, f)
    if not report.is_seg:
        detail = "; ".join(v.describe() for v in report.violations)
        raise ConstructionFault(tree.spec, tag, detail)
    return LabelOutcome(LABELED, tag, f, case, tree, search)


def label_any(spec: TreeSpec, config: SearchConfig | None = None) -> LabelOutcome:
    """Run the closed-form rule for the spec's case; with a config, fall back to search.

    Given a search config, an UNKNOWN outcome (conjectured or uncovered
    family) is retried by one FIND_ONE search under that config: a found
    labeling, verified, upgrades to LABELED with tag "by-search", full
    exhaustion to PROVED_NOT_SEG with tag "by-exhaustion", and a spent
    budget stays UNKNOWN.
    """
    cls = classify(spec)
    if cls.status == NOT_SEG:
        return LabelOutcome(PROVED_NOT_SEG, cls.tag)
    if cls.status == CONSTRUCTIVE:
        tree = build_tree(spec)
        return _verified(tree, _build_for(cls, tree), cls.tag, cls.case)
    if config is None:
        return LabelOutcome(UNKNOWN, cls.tag)
    # looked up per call, so a patched or wrapped segtrees.search.search runs
    from .search import search

    result = search(spec, replace(config, mode=FIND_ONE))
    if result.outcome == BUDGET_EXCEEDED:
        return LabelOutcome(UNKNOWN, cls.tag, search=result)
    if result.outcome == EXHAUSTED_NONE:
        return LabelOutcome(PROVED_NOT_SEG, "by-exhaustion", search=result)
    return _verified(build_tree(spec), result.labeling, "by-search", search=result)
