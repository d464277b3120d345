"""Closed-form SEG labelings for every covered diameter-4 family.

Each rule below writes explicit labels onto spine and leaf edges from a
few substitution parameters.  Each odd-q rule realizes a dispatch tag of
``trees.classify`` and reads its (r, s, t); two tags reuse a rule: the odd
caterpillar with j even is the k = l = 1 case of ``_lob_jkl_even_odd_odd``,
and the single-leaf caterpillar is ``_cat_q_odd_j_odd_odds`` with no s.
Even q needs one rule: q is the sum of 1 + a_i over the spine vertices, a
term that is odd for a zero or positive even count and even for an odd
one, so q = j + k (mod 2).  Every even-q tree, caterpillar (k + l = 2) or
lobster, thus has j + k = 2rs, and ``_even_q`` reads just rs, t = l // 2
and u = l % 2.

Every rule writes one slot list, the labels in ``tree.edge_ids`` order,
and every constructed labeling is checked before it is returned: every
edge labeled, then ``labeling.checked`` on the slot list (edge labels,
then induced labels).  A formula bug therefore surfaces as
ConstructionFault, never as a silently wrong answer.

Conventions shared by the rules: spine edge i is slot i - 1 of the tree;
leaf m of v_i, m starting at 1, is slot ``leaf_start[i - 1] + m - 1``.  The
rules differ only in their formulas: a ``_Builder``'s placers and
``_paired_leaves`` write the (+x, -x) pairs they share, each documented
where it is defined, and every such pair goes through one writer,
``_pair_blocks``: a block of +x slots and a block of -x slots.  Those pairs
sit on consecutive vertices, which in canonical order form runs of equal
leaf counts, and the placers write run by run: one leaf position over a
run of m vertices with a leaves each is the strided slice
``range(s, s + m * a, a)``, its labels one arithmetic progression, so the
cost is per run, not per vertex.  ``B.top`` is the largest edge label,
q // 2: each odd-q rule's docstring gives q = 2 * top + 1, and the rule
puts +top and -top on two edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby

from .labeling import ConstructionFault, EdgeLabeling, checked
# not called here any more; perfbench/spans.py still wraps this module's name
from .labeling import verify  # noqa: F401
from .search import BUDGET_EXCEEDED, EXHAUSTED_NONE, FIND_ONE, SearchConfig, SearchResult
from .trees import (
    CONSTRUCTIVE,
    NOT_SEG,
    Classification,
    TreeSpec,
    build_tree,
    classify,
)

LABELED = "labeled"
PROVED_NOT_SEG = "not_seg"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LabelOutcome:
    """What ``label_any`` decided, and the work behind it: ``tree``, the
    spec the labeling was verified on, and the fallback search run, if any.

    A labeled outcome carries ``slot_labels``, the labeling in
    ``tree.edge_ids`` order, and ``induced``, its induced labels in
    ``tree.vertex_ids`` order.  ``labeling``, keyed by edge id in that
    order, is built on first read.
    """

    kind: str
    tag: str
    case: str | None = None
    tree: TreeSpec | None = None
    search: SearchResult | None = None
    slot_labels: list[int] | None = field(default=None, repr=False)
    induced: list[int] | None = field(default=None, repr=False)

    @property
    def is_labeled(self) -> bool:
        return self.kind == LABELED

    @cached_property
    def labeling(self) -> EdgeLabeling | None:
        if self.slot_labels is None:
            return None
        return dict(zip(self.tree.edge_ids, self.slot_labels))


class _Builder:
    """Collision-checked label assignment to the slots of ``spec``.

    ``x`` holds each slot's label, None until assigned.  Every placer
    range-checks its vertices and leaf positions before it reads a count,
    then writes its blocks through ``_put``.
    """

    def __init__(self, spec: TreeSpec, tag: str):
        self.spec = spec
        self.tag = tag
        self.top = spec.q // 2  # the largest edge label
        self.starts = spec.leaf_start  # each read of the property rebuilds it
        self.x: list[int | None] = [None] * spec.q

    def _fault(self, detail: str) -> ConstructionFault:
        return ConstructionFault(self.spec, self.tag, detail)

    def _put(self, blocks: list[tuple[range, range]]) -> None:
        """Write each (slots, values) block, one slice each, unless one of
        those slots already has a label: then nothing is written, and the
        fault names the lowest such slot and the value meant for it."""
        x, clashes = self.x, []
        for r, values in blocks:
            old = x[r.start:r.stop:r.step]
            if old.count(None) != len(old):
                d = next(d for d, v in enumerate(old) if v is not None)
                clashes.append((r[d], old[d], values[d]))
        if clashes:
            slot, old_value, value = min(clashes)
            eid = self.spec.edge_ids[slot]
            raise self._fault(f"edge {eid} assigned twice ({old_value}, {value})")
        for r, values in blocks:
            x[r.start:r.stop:r.step] = values

    def spine(self, i: int, value: int) -> None:
        if not 1 <= i <= self.spec.n:
            raise self._fault(f"spine index {i} out of range")
        self._put([(range(i - 1, i), range(value, value + 1))])

    def leaf(self, i: int, m: int, value: int) -> None:
        if not (1 <= i <= self.spec.n and 1 <= m <= self.spec.a(i)):
            raise self._fault(f"leaf ({i},{m}) out of range")
        slot = self.starts[i - 1] + m - 1
        self._put([(range(slot, slot + 1), range(value, value + 1))])

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

    def spine_pairs(self, i: int, count: int, value: int, step: int = 1) -> None:
        """``count`` pairs (+x, -x) on spine edges i, i+1, ..., x = value, value + step, ..."""
        run = self._run(i, count, "spine pairs")
        self._put(_pair_blocks(run[::2], run[1::2], range(value, value + step * count, step)))

    def first_leaf_pairs(self, i: int, count: int, value: int) -> None:
        """``count`` pairs (+x, -x) on the first leaves of v_i, v_i+1, ...,
        x from ``value`` up by 2.

        Over each run of equal count pairs (a_{i+2k}, a_{i+2k+1}) the +x and
        the -x leaves are one strided slice each: two blocks per run,
        whatever its length.
        """
        run = self._run(i, count, "first-leaf pairs", leaves=True)
        c, starts, blocks = self.spec.counts, self.starts, []
        pairs = zip(c[run.start:run.stop:2], c[run.start + 1:run.stop:2])
        for k, m, (a, a2) in _equal_runs(pairs):
            s, step = starts[run.start + 2 * k], a + a2  # s: v_{i+2k}'s first leaf
            plus, minus = range(s, s + m * step, step), range(s + a, s + a + m * step, step)
            blocks += _pair_blocks(plus, minus, range(value + 2 * k, value + 2 * (k + m), 2))
        self._put(blocks)

    def result(self) -> list[int]:
        """The labels in slot order; an edge left unassigned is a fault."""
        x = self.x
        if None in x:
            missing = [e for e, v in zip(self.spec.edge_ids, x) if v is None]
            raise self._fault(f"unassigned edges {missing}")
        return x


def _pair_blocks(plus: range, minus: range, xs: range) -> list[tuple[range, range]]:
    """The two blocks that put +x on slot plus[k] and -x on slot minus[k]
    for each x = xs[k]: every (+x, -x) pair a rule writes goes through here."""
    return [(plus, xs), (minus, range(-xs.start, -xs.stop, -xs.step))]


def _equal_runs(items):
    """(first index, length m, item) of each run of equal items."""
    k = 0
    for a, run in groupby(items):
        m = len(list(run))
        yield k, m, a
        k += m


def _paired_leaves(B: _Builder, first: int, start_vertex: int, placed: int = 0) -> None:
    """Paired leaves for all vertices from start_vertex on.

    The unlabeled pairs get consecutive labels from ``first``, in slot
    order; a vertex with count 2b or 2b+1 has b pairs, on leaves (2m-1, 2m)
    or (2m, 2m+1) for m = 1..b, and an odd count leaves its first leaf for
    the rule to label.  The first ``placed`` vertices, from start_vertex
    on, already carry their first pair; one with a single leaf has none.

    The pairs are written run by run: each placed vertex alone, then each
    run of equal counts.  The pairs of a run of m vertices with b pairs
    each form an m x b grid, written as one block pair per vertex or one
    per leaf position, whichever is fewer.  An even run's pairs tile its
    slots, so it is written as one vertex of m * a leaves.
    """
    counts, starts, n = B.spec.counts, B.starts, B.spec.n
    if not 1 <= start_vertex <= n + 1:
        raise B._fault(f"paired leaves from {start_vertex} out of range")
    # (first vertex, length m, count a, leaf offset o of a vertex's pairs)
    lo = min(start_vertex - 1 + placed, n)
    runs = [(v, 1, counts[v], counts[v] % 2 + 2) for v in range(start_vertex - 1, lo)]
    runs += [(lo + k, 1, m * a, 0) if a % 2 == 0 else (lo + k, m, a, 1)
             for k, m, a in _equal_runs(counts[lo:n])]
    blocks: list[tuple[range, range]] = []
    f = first
    for v, m, a, o in runs:
        b = (a - o) // 2  # pairs per vertex
        if b <= 0:
            continue
        # the pairs form a grid with two axes, each (length, slot step, label
        # step): the run's vertices, and one vertex's pairs.  One block pair
        # is one line along an axis; the lines step across the shorter axis
        vertices, pairs = (m, a, b), (b, 2, 1)
        across, along = (vertices, pairs) if m <= b else (pairs, vertices)
        (n1, ds1, dx1), (n2, ds2, dx2) = across, along
        s0 = starts[v] + o
        for s, x in zip(range(s0, s0 + n1 * ds1, ds1), range(f, f + n1 * dx1, dx1)):
            blocks += _pair_blocks(range(s, s + n2 * ds2, ds2), range(s + 1, s + 1 + n2 * ds2, ds2),
                                   range(x, x + n2 * dx2, dx2))
        f += m * b
    B._put(blocks)


# ---------------------------------------------------------------------------
# q even: every caterpillar and lobster
# ---------------------------------------------------------------------------

def _even_q(B: _Builder, rs: int, t: int, u: int) -> None:
    """q even, l = 2t+u with u in {0, 1}, j+k = 2rs; branch blocks j+1..n."""
    B.spine_pairs(2 * rs + 1, t, 1, step=2)
    B.first_leaf_pairs(2 * rs + 1, t, -2 * t)
    if u:
        B.spine(2 * rs + 2 * t + 1, 2 * t + 1)
        B.leaf(B.spec.n, 1, -(2 * t + 1))
    B.spine_pairs(1, rs, 2 * t + 1 + u)
    _paired_leaves(B, rs + 2 * t + 1 + u, B.spec.j + 1)


# ---------------------------------------------------------------------------
# caterpillars, q odd
# ---------------------------------------------------------------------------

def _cat_q_odd_j_odd_evens(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r-1, counts 2s and 2t, 1 <= s <= t; q = 2(r+s+t)+1."""
    B.spine(1, 1)
    B.spine(2 * r, 0)
    B.spine(2 * r + 1, B.top)
    B.leaf(2 * r, 1, -1)
    B.leaf(2 * r, 2, -B.top)
    B.spine_pairs(2, r - 1, 2)
    _paired_leaves(B, r + 1, 2 * r, placed=1)


def _cat_q_odd_j_odd_odds(B: _Builder, r: int, s: int | None, t: int) -> None:
    """j = 2r+1, counts 2s+1 and 2t+1, 1 <= s <= t; q = 2(r+s+t+2)+1.

    With no s, the single-leaf case: j = 2r+1 >= 3, counts 1 and 2t+1 >= 3,
    q = 2(r+t+2)+1.  Then -1, -2, 3 go on spine edges 1..3 instead of the
    leaves of v_{2r+2}, and top on its one leaf instead of spine edge 1.
    """
    B.spine(2 * r + 2, 1)
    B.spine(2 * r + 3, 0)
    B.leaf(2 * r + 3, 1, 2)
    B.leaf(2 * r + 3, 2, -3)
    B.leaf(2 * r + 3, 3, -B.top)
    if s:
        B.spine(1, B.top)
        B.leaf(2 * r + 2, 1, -1)
        B.leaf(2 * r + 2, 2, -2)
        B.leaf(2 * r + 2, 3, 3)
        B.spine_pairs(2, r, 4)
    else:
        B.spine(1, -1)
        B.spine(2, -2)
        B.spine(3, 3)
        B.leaf(2 * r + 2, 1, B.top)
        B.spine_pairs(4, r - 1, 4)
    _paired_leaves(B, r + 3 + bool(s), 2 * r + 2, placed=2)


# ---------------------------------------------------------------------------
# lobsters, q odd
# ---------------------------------------------------------------------------

def _lob_jkl_even_odd_odd(B: _Builder, r: int, s: int, t: int) -> None:
    """j = 2r, k = 2s-1, l = 2t+1; s+t >= 1; q = 2(r+s+2t+sum b)+1.

    Branch blocks: even counts at 2r+1 .. 2(r+s)-1, odd counts at
    2(r+s) .. n = 2(r+s+t).
    """
    B.spine(2 * r + 1, 0)
    if t == 0:
        # single odd-count vertex at 2(r+s); here s >= 1
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
    _paired_leaves(B, first, 2 * r + 1, placed=1)


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
    _paired_leaves(B, first, 2 * r + 1, placed=1)


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
        _paired_leaves(B, r + s + 2, 2 * r + 2, placed=1)
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
    _paired_leaves(B, r + s + 4, 2 * r + 2, placed=2)


#: odd-q dispatch tag -> rule(B, r, s, t)
_RULES = {
    # the k = l = 1 case of the lobster rule below
    "cat-q-odd-j-even": lambda B, r, s, t: _lob_jkl_even_odd_odd(B, r, 1, 0),
    "cat-q-odd-j-odd-evens": _cat_q_odd_j_odd_evens,
    # the single-leaf case is the odd-odds rule with no s
    "cat-q-odd-single-leaf": _cat_q_odd_j_odd_odds,
    "cat-q-odd-j-odd-odds": _cat_q_odd_j_odd_odds,
    "lob-jkl-even-odd-odd": _lob_jkl_even_odd_odd,
    "lob-jkl-even-odd-even": _lob_jkl_even_odd_even,
    "lob-jkl-odd-even-small-l": _lob_jkl_odd_even_small_l,
}


def _build_for(cls: Classification) -> list[int]:
    spec, p = cls.spec, cls.params
    B = _Builder(spec, cls.tag)
    if spec.q % 2 == 0:
        _even_q(B, (spec.j + spec.k) // 2, spec.l // 2, spec.l % 2)
    elif cls.tag in _RULES:
        _RULES[cls.tag](B, p.get("r"), p.get("s"), p.get("t"))
    else:
        raise ConstructionFault(spec, cls.tag, "no rule implemented for this tag")
    return B.result()


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
        x = _build_for(cls)
        return LabelOutcome(LABELED, cls.tag, cls.case, tree, None, x, checked(tree, x, cls.tag))
    if config is None:
        return LabelOutcome(UNKNOWN, cls.tag)
    # looked up per call, so a patched or wrapped segtrees.search.search runs
    from .search import search

    result = search(spec, replace(config, mode=FIND_ONE))
    if result.outcome == BUDGET_EXCEEDED:
        return LabelOutcome(UNKNOWN, cls.tag, search=result)
    if result.outcome == EXHAUSTED_NONE:
        return LabelOutcome(PROVED_NOT_SEG, "by-exhaustion", search=result)
    # checked again, since segtrees.search.search may be patched or wrapped
    tree, x = result.tree, result.slot_labels
    return LabelOutcome(LABELED, "by-search", None, tree, result, x, checked(tree, x, "by-search"))
