"""Closed-form SEG labelings for every covered diameter-4 family.

Each rule below writes explicit labels onto spine and leaf edges from a
few substitution parameters.  Each odd-q rule realizes one dispatch tag of
``trees.classify`` and reads its (r, s, t).  Even q needs only two rules:
q is the sum of 1 + a_i over the spine vertices, a term that is odd for a
zero or positive even count and even for an odd one, so q = j + k (mod 2).
Every even-q tree, caterpillar (k + l = 2) or lobster, thus has j + k = 2rs,
and ``_even_q_l_odd`` / ``_even_q_l_even``, picked by the parity of l, read
just rs and t = l // 2.

Every constructed labeling is checked before it is returned: every edge
labeled, then ``labeling.verify_slots`` on the slot list (edge labels, then
induced labels).  A formula bug therefore surfaces as ConstructionFault,
never as a silently wrong answer.

Conventions shared by the rules: spine edge i is slot i - 1 of the tree;
leaf m of v_i, m starting at 1, is slot ``leaf_start[i - 1] + m - 1``.  The
rules differ only in their formulas: a ``_Builder``'s placers and
``_paired_leaves`` write the (+x, -x) pairs they share, each documented
where it is defined.  ``B.top`` is the largest edge label, q // 2: each
odd-q rule's docstring gives q = 2 * top + 1, and the rule puts +top and
-top on two edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .labeling import ConstructionFault, EdgeLabeling, verify_slots
# not called here any more; perfbench/spans.py still wraps this module's name
from .labeling import verify  # noqa: F401
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
    verified the labeling, and the fallback search run, if any.

    A labeled outcome carries ``slot_labels``, the labeling in
    ``tree.edge_ids`` order, and ``induced``, its induced labels in
    ``tree.vertex_ids`` order.  ``labeling``, keyed by edge id, is built on
    first read: a constructed labeling in ``order``, the order its rule
    assigned the slots, and one found by search in slot order.
    """

    kind: str
    tag: str
    case: str | None = None
    tree: RootedTree | None = None
    search: SearchResult | None = None
    slot_labels: list[int] | None = field(default=None, repr=False)
    induced: list[int] | None = field(default=None, repr=False)
    order: list[int] | None = field(default=None, repr=False)

    @property
    def is_labeled(self) -> bool:
        return self.kind == LABELED

    @cached_property
    def labeling(self) -> EdgeLabeling | None:
        if self.slot_labels is None:
            return None
        ids, x = self.tree.edge_ids, self.slot_labels
        return {ids[s]: x[s] for s in (range(len(x)) if self.order is None else self.order)}


class _Builder:
    """Collision-checked label assignment to the slots of ``tree``.

    ``x`` holds each slot's label, None until assigned, and ``order`` the
    slots in the order they were assigned.  Every placer range-checks its
    vertices and leaf positions before it reads a count, then writes one
    block through ``_put``.
    """

    def __init__(self, tree: RootedTree, tag: str):
        self.tree = tree
        self.spec = tree.spec
        self.tag = tag
        self.top = tree.q // 2  # the largest edge label
        self.x: list[int | None] = [None] * tree.q
        self.order: list[int] = []

    def _fault(self, detail: str) -> ConstructionFault:
        return ConstructionFault(self.spec, self.tag, detail)

    def _put(self, blocks: list[range], values: list[int]) -> None:
        """Write values to the slots of blocks, taken in order, unless one of
        those slots already has a label; each block is one slice."""
        x, k = self.x, 0
        for r in blocks:
            old = x[r.start:r.stop:r.step]
            if old.count(None) != len(old):
                d = next(d for d, v in enumerate(old) if v is not None)
                eid = self.tree.edge_ids[r[d]]
                raise self._fault(f"edge {eid} assigned twice ({old[d]}, {values[k + d]})")
            k += len(r)
        k = 0
        for r in blocks:
            x[r.start:r.stop:r.step] = values[k:k + len(r)]
            k += len(r)
            self.order += r

    def spine(self, i: int, value: int) -> None:
        if not 1 <= i <= self.spec.n:
            raise self._fault(f"spine index {i} out of range")
        self._put([range(i - 1, i)], [value])

    def _leaves(self, i: int) -> int:
        """a_i, or 0 when v_i is not a spine vertex."""
        return self.spec.a(i) if 1 <= i <= self.spec.n else 0

    def leaf(self, i: int, m: int, value: int) -> None:
        if not 1 <= m <= self._leaves(i):
            raise self._fault(f"leaf ({i},{m}) out of range")
        slot = self.tree.leaf_start[i - 1] + m - 1
        self._put([range(slot, slot + 1)], [value])

    def pair(self, i: int, m: int, value: int) -> None:
        """Leaf pair m (+value, -value) under v_i: at positions (2m-1, 2m) for
        an even leaf count, (2m, 2m+1) for an odd one."""
        a = self._leaves(i)
        if not 1 <= m <= a // 2:
            raise self._fault(f"leaf pair ({i},{m}) out of range")
        slot = self.tree.leaf_start[i - 1] + 2 * m - 2 + a % 2
        self._put([range(slot, slot + 2)], [value, -value])

    def _run(self, i: int, count: int, what: str, leaves: bool = False) -> range:
        """Slots of the spine edges of v_i, ..., v_{i + 2 count - 1}: empty for
        count <= 0, a fault unless those are spine vertices, with leaves if
        ``leaves``."""
        run = range(i - 1, i - 1 + 2 * max(count, 0))
        if (run and not (1 <= i and run.stop <= self.spec.n)) or (
            leaves and 0 in self.spec.counts[run.start:run.stop]
        ):
            raise self._fault(f"{what} from {i} ({count}) out of range")
        return run

    def _first_leaves(self, run: range) -> list[range]:
        return [range(s, s + 1) for s in self.tree.leaf_start[run.start:run.stop]]

    def spine_pairs(self, i: int, count: int, value: int, step: int = 1) -> None:
        """``count`` pairs (+x, -x) on spine edges i, i+1, ..., x = value, value + step, ..."""
        run = self._run(i, count, "spine pairs")
        self._put([run], _pairs(range(value, value + step * count, step)))

    def first_leaf_pairs(self, i: int, count: int, value: int) -> None:
        """``count`` pairs (+x, -x) on the first leaves of v_i, v_i+1, ...,
        x from ``value`` up by 2."""
        run = self._run(i, count, "first-leaf pairs", leaves=True)
        self._put(self._first_leaves(run), _pairs(range(value, value + 2 * count, 2)))

    def spine_leaf_pairs(self, i: int, count: int, value: int, leaf_value: int) -> None:
        """``count`` times, on the next two spine vertices from v_i: a spine
        pair (+x, -x), then a first-leaf pair (+y, -y); x from ``value`` and
        y from ``leaf_value``, each up by 2."""
        run = self._run(i, count, "spine and first-leaf pairs", leaves=True)
        leaves = self._first_leaves(run)
        blocks = [b for d in range(0, len(run), 2) for b in (run[d:d + 2], *leaves[d:d + 2])]
        xs = range(value, value + 2 * count, 2)
        ys = range(leaf_value, leaf_value + 2 * count, 2)
        self._put(blocks, [v for x, y in zip(xs, ys) for v in (x, -x, y, -y)])

    def result(self) -> tuple[list[int], list[int]]:
        """The labels in slot order, and the slots in assignment order; an
        edge left unassigned is a fault."""
        x = self.x
        if None in x:
            missing = [e for e, v in zip(self.tree.edge_ids, x) if v is None]
            raise self._fault(f"unassigned edges {missing}")
        return x, self.order


def _pairs(xs: range) -> list[int]:
    """+x, -x for each x of xs, in order."""
    out = [0] * (2 * len(xs))
    out[::2] = xs
    out[1::2] = range(-xs.start, -xs.stop, -xs.step)
    return out


def _paired_leaves(
    B: _Builder, first: int, start_vertex: int, placed: tuple[int, ...] = ()
) -> None:
    """Paired leaves for all vertices from start_vertex on.

    The unlabeled pairs get consecutive labels from ``first``, in slot
    order; a vertex with count 2b or 2b+1 has b pairs, at the positions
    ``_Builder.pair`` writes, and an odd count leaves its first leaf for
    the rule to label.  Vertices in ``placed`` already carry their first
    pair.  Each run of pair slots unbroken by an unpaired or placed leaf is
    written as one block.
    """
    counts, starts = B.spec.counts, B.tree.leaf_start
    if not 1 <= start_vertex <= B.spec.n + 1:
        raise B._fault(f"paired leaves from {start_vertex} out of range")
    blocks: list[range] = []
    for i in range(start_vertex, B.spec.n + 1):
        start, a = starts[i - 1], counts[i - 1]
        lo = start + a % 2 + (2 if i in placed else 0)
        if lo >= start + a:
            continue
        if blocks and blocks[-1].stop == lo:
            lo = blocks.pop().start
        blocks.append(range(lo, start + a))
    B._put(blocks, _pairs(range(first, first + sum(map(len, blocks)) // 2)))


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
    B.spine_leaf_pairs(2 * rs + 1, t, 1, -2 * t)
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
    B.pair(2 * r + 3, 1, 3)
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


def _build_for(cls: Classification, tree: RootedTree) -> tuple[list[int], list[int]]:
    spec, p = cls.spec, cls.params
    B = _Builder(tree, cls.tag)
    if spec.q % 2 == 0:
        rule = _even_q_l_odd if spec.l % 2 else _even_q_l_even
        rule(B, (spec.j + spec.k) // 2, spec.l // 2)
    elif cls.tag in _RULES:
        _RULES[cls.tag](B, p.get("r"), p.get("s"), p.get("t"))
    else:
        raise ConstructionFault(spec, cls.tag, "no rule implemented for this tag")
    return B.result()


def _verified(
    tree: RootedTree, x: list[int], order: list[int] | None, tag: str,
    case: str | None = None, search: SearchResult | None = None,
) -> LabelOutcome:
    """The one verification gate every labeling ``label_any`` returns
    passes: labels x in slot order, assigned in ``order`` (None: slot order)."""
    report, induced = verify_slots(tree, x)
    if not report.is_seg:
        raise ConstructionFault(tree.spec, tag, report.describe())
    return LabelOutcome(LABELED, tag, case, tree, search, x, induced, order)


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
        return _verified(tree, *_build_for(cls, tree), cls.tag, cls.case)
    if config is None:
        return LabelOutcome(UNKNOWN, cls.tag)
    # looked up per call, so a patched or wrapped segtrees.search.search runs
    from .search import search

    result = search(spec, replace(config, mode=FIND_ONE))
    if result.outcome == BUDGET_EXCEEDED:
        return LabelOutcome(UNKNOWN, cls.tag, search=result)
    if result.outcome == EXHAUSTED_NONE:
        return LabelOutcome(PROVED_NOT_SEG, "by-exhaustion", search=result)
    return _verified(result.tree, result.slot_labels, None, "by-search", search=result)
