"""Exhaustive SEG search: find, count, or certify absence, deterministically.

The engine has two phases.  The spine phase labels the branch spine edges
(spine vertices with leaves), in index order.  The group phase then fills
the single-label groups as one exact-cover step, then the larger leaf
groups one at a time, and places the last.  Two symmetries cut the space:
each leaf group takes its labels in ascending order, and so does each run
of spine vertices with equal leaf counts.  Reordering a group or a run
keeps a labeling SEG, so a raw count is re-expanded exactly by the product
of their sizes' factorials.

Each statement below is a theorem: a cut skips only subtrees that hold no
solution, so outcomes and counts are those of the uncut search.

- Pendants are the root's group.  A leaf or a pendant spine vertex induces
  its own edge's label, and a pendant's label also adds to the root's sum.
  So the pendant edges form one more leaf group: the root's, whose base is
  the sum of the branch spine labels.  Its labels land on the pendant
  spine edges, so the slot order is unchanged.
- Forced targets.  Once the branch spine is labeled, the induced labels
  still to be realized, one per group sum (branch vertices and the root),
  are exactly ``R = {branch spine labels} + {0}`` for even q, or
  ``R = {nonzero branch spine labels} + {+-(q+1)/2}`` for odd q.  The
  labels then missing from the pool are exactly the branch spine labels,
  so R is read off the pool.  With no pendants the root sum is fixed by
  the spine and checked against R there.
- Zero placement (odd q).  The vertex target of an even p = q+1 has no 0,
  and every group label induces itself, so 0 sits on a branch spine edge:
  the spine phase completes only when it has placed 0.
- One-leaf zero (odd q).  A vertex with one leaf and spine label 0 induces
  0 + l = l, and its leaf, labeled l, induces l too.  So 0 sits on the spine
  edge of a vertex with two or more leaves; one with a single leaf skips 0.
- Zero window (odd q).  ``zero_last[d]`` holds when no vertex with two or
  more leaves comes after branch vertex d, or after d's equal-count run,
  whose later members take larger labels.  While 0 is in the pool at such
  a d, a single-leaf d returns before any node: 0 has no home left.  Any
  other d takes no positive label, so its scan stops after 0.
- Single-label groups as exact cover.  A group of one label with base s
  takes one target t in R and the label t - s from the pool, and every
  group, target and label is used exactly once.  So the single-label groups
  are filled first, as one exact-cover step: a group's live options are the
  t in R with t - s in the pool, the group with the fewest goes next, ties
  in plan order, and a node fails as soon as some group has none.  Each
  group and target is still covered exactly once, so the order moves only
  node counts, never outcomes or counts.
- Groups smallest first.  The larger groups follow in ascending size, so
  the largest group comes last; it is placed, not searched (below).
- Sum interval.  Every group takes its labels in ascending order (the
  pendants are one equal-count run, so theirs ascend too).  A group lists
  its free labels and their prefix sums once, at its start, and scans the
  list past its last label (all still free).  With k labels left, partial
  sum ``base`` and next label ``v_j`` (the j-th listed), the group sum lies
  between ``base`` plus the k listed labels from j and ``base`` plus
  ``v_j`` plus the top k-1 listed labels.  It must be some t in R, so an
  interval missing ``[min R, max R]`` is skipped; its lower end rises with
  j, so the scan stops once that end passes ``max R``.
- Last label.  The completed group sum must be some t in R, so a group's
  last label is ``t - base``: the candidates are read off R, in ascending
  order, instead of scanned.  The exact-cover step reads its options the
  same way.
- Last group.  When every other group has closed, the pool holds exactly
  the last group's labels, and they close it.  The induced labels add up
  to 2 * (sum of the edge labels) = 0, and the vertex target is symmetric,
  so it also sums to 0; every other vertex already holds a distinct target
  value, so the last group's owner gets the one value left.  Its labels are
  placed in ascending order, one node each, with no sum check.

Negation.  f is SEG exactly when -f is, and f != -f (its q distinct labels
are not all 0), so SEG labelings pair up and every count is even.

- Sign of the spine sum (count mode).  Let S be the sum of the branch spine
  labels, the root's base.  Sorting a group or an equal-count run only
  permutes labels, so S is the same on every labeling a canonical one
  stands for, and negation maps S to -S.  So a count run returns at spine
  completion when S < 0 and weighs each solution 2 when S > 0.  A solution
  with S = 0 weighs 1: the engine enumerates both f and -f only then.
  Find-one runs keep every sign, so their first labelings do not move.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, groupby
from math import factorial, prod

from ._version import __version__
from .labeling import ConstructionFault, EdgeLabeling, verify_slots
from .labeling import edge_label_target, vertex_label_target
from .trees import RootedTree, TreeSpec, build_tree

FIND_ONE = "find-one"
COUNT_ALL = "count-all"

FOUND = "found"
EXHAUSTED_NONE = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"

GUARD_Q = 24


class GuardRefused(RuntimeError):
    """Tree too large for exhaustive search without an explicit override."""


class NotCertifiable(RuntimeError):
    """certify_not_seg found a labeling; there is nothing to certify."""


class BudgetExceeded(RuntimeError):
    """certify_not_seg ran out of nodes before exhausting the space."""


@dataclass(frozen=True)
class SearchConfig:
    """How one search runs.

    node_budget: stop with BUDGET_EXCEEDED after this many nodes (None: no limit).
    mode: FIND_ONE stops at the first labeling; COUNT_ALL enumerates them all.
    override_guard: search even when q > GUARD_Q.
    """

    node_budget: int | None = None
    mode: str = FIND_ONE
    override_guard: bool = False


@dataclass(frozen=True)
class SearchResult:
    """What one search decided, after how many nodes.  ``count``: the
    re-expanded count of a COUNT_ALL run, 0 if exhausted, else None.

    A FOUND result carries its first labeling, verified by ``search``:
    ``slot_labels`` in ``tree.edge_ids`` order, ``induced`` in
    ``tree.vertex_ids`` order, and ``labeling``, keyed by edge id in slot
    order, built on first read.
    """

    outcome: str
    nodes_visited: int
    count: int | None = None
    tree: RootedTree | None = None
    slot_labels: list[int] | None = field(default=None, repr=False)
    induced: list[int] | None = field(default=None, repr=False)

    @cached_property
    def labeling(self) -> EdgeLabeling | None:
        return None if self.slot_labels is None else dict(zip(self.tree.edge_ids, self.slot_labels))


class _Stop(Exception):
    pass


class _BudgetHit(Exception):
    pass


def _run(spec: TreeSpec, config: SearchConfig):
    n = spec.n
    counts = spec.counts
    q = spec.q
    # the free labels are the set bits of one int, ``pool``: label v is bit
    # v + h, so bit h (label 0) exists only for odd q
    h = q // 2
    n_bits = 2 * h + 1
    n_pend = counts.count(0)  # pendants lead: the branch vertices are positions n_pend .. n-1

    runs = tuple(len(list(g)) for _, g in groupby(counts))  # equal counts are contiguous
    # odd q: only a vertex with two or more leaves can take 0.  zero_last[d]:
    # no such vertex comes after d, or after d's equal-count run (its later
    # members take larger labels)
    last0 = max((d for d, a in enumerate(counts) if a >= 2), default=-1)
    zero_last = [d >= last0 or a == counts[last0] for d, a in enumerate(counts)]

    budget = config.node_budget
    nodes = 0
    # the labeling in the tree's slot order: spine edges, then each leaf group
    x = [0] * q
    leaf_at = accumulate(counts, initial=n)  # each vertex's first leaf slot
    # the groups smallest first, ties in spine order: (size, owner, first
    # slot); owner n is the root, whose pendant group is slots 0 .. n_pend-1
    plan = [(a, i, at) for i, (a, at) in enumerate(zip(counts, leaf_at)) if a]
    if n_pend:
        plan.append((n_pend, n, 0))
    plan.sort()
    n_single = sum(1 for g in plan if g[0] == 1)  # the single-label groups lead
    bases: list[int] = []  # each group's base, in plan order, once the spine is labeled
    r_bits = 0  # the targets R still to realize: t is bit t + h + 1
    full = (1 << n_bits) - 1  # every label; even q has no 0
    # odd q: R swaps the target 0 (bit h + 1) for +-(q+1)/2 (bits 0, 2h + 2)
    r_fix = 1 | (1 << (h + 1)) | (1 << (2 * h + 2)) if q % 2 else 0
    raw_count = 0
    weight = 1  # count mode: the solutions each one found stands for, by sign of S
    first: list[int] | None = None  # the first labeling, in slot order

    def solution() -> None:
        nonlocal raw_count, first
        if first is None:
            first = x.copy()
        if config.mode == FIND_ONE:
            raise _Stop
        raw_count += weight

    def tick() -> None:
        nonlocal nodes
        if budget is not None and nodes >= budget:
            raise _BudgetHit
        nodes += 1

    def options(base: int, lo: int, pool: int) -> int:
        # the labels from bit lo that close a group, as bits: label v (bit
        # v + h) closes it when t = v + base is in R (bit t + h + 1)
        shift = base + 1
        return (pool >> lo << lo) & (r_bits >> shift if shift >= 0 else r_bits << -shift)

    def close(hits: int, base: int, slot: int, then, arg, pool: int) -> None:
        # each closing label in ascending order; its target leaves R meanwhile
        nonlocal r_bits
        while hits:
            bit = hits & -hits
            hits ^= bit
            v = bit.bit_length() - 1 - h
            tick()
            x[slot] = v
            target = 1 << (v + base + h + 1)
            r_bits ^= target
            then(arg, pool ^ bit)
            r_bits ^= target

    def cover(open_groups: list[int], pool: int) -> None:
        # exact cover of the single-label groups: fewest options first
        if not open_groups:
            next_group(n_single, pool)
            return
        best = None
        for gi in open_groups:
            hits = options(bases[gi], 0, pool)
            if not hits:
                return
            c = hits.bit_count()
            if best is None or c < best[0]:
                best = c, gi, hits
        _, gi, hits = best
        rest = [g for g in open_groups if g != gi]
        close(hits, bases[gi], plan[gi][2], cover, rest, pool)

    def next_group(gi: int, pool: int) -> None:
        if gi == len(plan) - 1:
            # last group: the pool is its labels and they close it, so they are
            # placed in ascending order, one node each, the nodes a search
            # of it visits
            a, _, slot = plan[gi]
            for _ in range(a):
                tick()
            if first is None:
                x[slot:slot + a] = [b - h for b in range(n_bits) if (pool >> b) & 1]
            gi += 1
        if gi == len(plan):
            solution()
            return
        # one label list per group, as bits, with their prefix sums
        avail = [b for b in range(n_bits) if (pool >> b) & 1]
        dfs_group(gi, 0, 0, bases[gi], pool, avail, list(accumulate(avail, initial=0)))

    def dfs_group(gi: int, pos: int, j0: int, base: int, pool: int,
                  avail: list[int], sums: list[int]) -> None:
        # the group's labels ascend, so it scans avail from j0, past its last label
        a, _, slot = plan[gi]
        slot += pos
        end = len(avail)
        if pos == a - 1:
            # the last label is read off R: it is t - base for some t in R
            lo = avail[j0] if j0 < end else n_bits
            close(options(base, lo, pool), base, slot, next_group, gi + 1, pool)
            return
        # sum interval: base + the k labels from j .. base + avail[j] + the top
        # k-1 must meet [min R, max R].  In bits: k labels of bit sum S add
        # S - k*h, and target t has bit length t + h + 2
        k = a - pos
        end = max(end - k + 1, j0)  # later leaves need k-1 labels above j
        off = (k - 1) * h - base - 2
        least_max = r_bits.bit_length() + off
        b_min = (r_bits & -r_bits).bit_length() + off - (sums[-1] - sums[end])
        for j in range(j0, end):
            if sums[j + k] - sums[j] > least_max:
                break  # the least sum only rises with j
            b = avail[j]
            if b < b_min:
                continue
            tick()
            x[slot] = b - h
            dfs_group(gi, pos + 1, j + 1, base + b - h, pool ^ (1 << b), avail, sums)

    def dfs_spine(d: int, pool: int) -> None:
        nonlocal r_bits, weight
        if d == n:
            if (pool >> h) & 1:
                return  # odd q: 0 goes on a branch spine edge
            root = sum(x[n_pend:n])  # S, the branch spine sum
            if config.mode == COUNT_ALL:
                if root < 0:
                    return  # negation: the S > 0 solutions stand for these
                weight = 2 if root else 1
            # the labels missing from the pool are the branch spine labels (and
            # 0 for even q): one bit up they are R, up to r_fix for odd q
            r_bits = (full ^ pool) << 1 ^ r_fix
            if not n_pend:  # the spine fixes the root sum: it must be in R
                if root < -h - 1 or not (r_bits >> (root + h + 1)) & 1:
                    return
                r_bits ^= 1 << (root + h + 1)
            bases[:] = [root if g[1] == n else x[g[1]] for g in plan]
            cover(list(range(n_single)), pool)
            return
        # an equal-count predecessor is a branch vertex, already labeled
        same = d > 0 and counts[d] == counts[d - 1]
        lo = x[d - 1] + h + 1 if same else 0
        free, hi = pool, n_bits
        if (pool >> h) & 1:  # odd q, 0 still free
            if counts[d] == 1:  # one-leaf zero: 0 cannot go here
                if zero_last[d]:
                    return  # nor on any later vertex
                free ^= 1 << h
            elif zero_last[d]:
                hi = h + 1  # zero window: no positive label here
        for b in range(lo, hi):
            if not (free >> b) & 1:
                continue
            tick()
            x[d] = b - h
            dfs_spine(d + 1, pool ^ (1 << b))

    try:
        dfs_spine(n_pend, full if q % 2 else full ^ (1 << h))
    except _Stop:
        return FOUND, nodes, first, None
    except _BudgetHit:
        return BUDGET_EXCEEDED, nodes, None, None
    if raw_count > 0:  # only COUNT_ALL gets here with solutions
        # re-expand once: a leaf group or equal-count run of m stands for m! orderings
        raw_count *= prod(map(factorial, counts + runs))
        return FOUND, nodes, first, raw_count
    return EXHAUSTED_NONE, nodes, None, 0


def search(spec: TreeSpec, config: SearchConfig | None = None) -> SearchResult:
    """Run the engine in the configured mode.  Deterministic for fixed input.

    A labeling that fails ``verify_slots`` raises ConstructionFault; it is
    never returned.
    """
    if config is None:
        config = SearchConfig()
    if config.mode not in (FIND_ONE, COUNT_ALL):
        raise ValueError(f"unknown search mode {config.mode!r}; use {FIND_ONE!r} or {COUNT_ALL!r}")
    if spec.q > GUARD_Q and not config.override_guard:
        raise GuardRefused(
            f"{spec} has q={spec.q} > {GUARD_Q}; exhaustive search refused "
            "(pass override_guard to insist)"
        )
    try:
        outcome, nodes, x, count = _run(spec, config)
    except RecursionError:
        # the DFS recurses once per branch spine vertex and once per label of
        # every group but the last, and a pendant run is one group: a long
        # run before the last group, or many branches, is deep
        raise GuardRefused(
            f"{spec} has q={spec.q}; the tree is too deep for the search"
        ) from None
    if x is None:
        return SearchResult(outcome, nodes, count)
    tree = build_tree(spec)
    report, induced = verify_slots(tree, x)
    if not report.is_seg:
        raise ConstructionFault(spec, "search", report.describe())
    return SearchResult(outcome, nodes, count, tree, x, induced)


def count_all(spec: TreeSpec, config: SearchConfig | None = None) -> SearchResult:
    """Exhaustive raw count of SEG labelings (symmetry re-expanded)."""
    config = replace(config or SearchConfig(), mode=COUNT_ALL)
    return search(spec, config)


def make_certificate(spec: TreeSpec, config: SearchConfig, result: SearchResult) -> dict:
    """Turn a completed exhaustive SearchResult into an absence certificate.

    Raises NotCertifiable when the result found a labeling, BudgetExceeded
    when the result is a budget stop (no certificate in either case).
    """
    if result.outcome == FOUND:
        raise NotCertifiable(f"{spec} admits a SEG labeling; cannot certify absence")
    if result.outcome == BUDGET_EXCEEDED:
        raise BudgetExceeded(
            f"budget of {config.node_budget} nodes exhausted after "
            f"{result.nodes_visited} nodes without completing the search"
        )
    return {
        "spec": spec.format(),
        "q": spec.q,
        "edge_target": list(edge_label_target(spec.q)),
        "vertex_target": list(vertex_label_target(spec.p)),
        "nodes_visited": result.nodes_visited,
        "outcome": EXHAUSTED_NONE,
        "result": "none",
        "version": __version__,
    }


def certify_not_seg(spec: TreeSpec, config: SearchConfig | None = None) -> dict:
    """Exhaust the space and emit a machine-readable absence certificate.

    Runs FIND_ONE: a single labeling already refutes absence, and on a
    non-SEG tree the run ends exhausted after the same nodes as a count.
    """
    config = replace(config or SearchConfig(), mode=FIND_ONE)
    result = search(spec, config)
    return make_certificate(spec, config, result)
