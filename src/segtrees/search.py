"""Exhaustive SEG search: find, count, or certify absence, deterministically.

The engine has two phases.  The spine phase labels the branch spine edges
(spine vertices with leaves), in index order, each trying its labels in
magnitude order, by the key (|v|, v): 0, -1, 1, -2, 2, ...  The group phase
repeats one group step: it closes an open single-label group (one exact
cover), else the next larger leaf group, and places the last.  Two
symmetries cut the space: each leaf group takes its labels in ascending
order, and each run of branch vertices with equal leaf counts takes its
spine labels ascending by the same key (|v|, v).  Reordering a group or a
run keeps a labeling SEG, so a raw count is re-expanded exactly by the
product of their sizes' factorials.

``search(spec, config)`` runs the engine, in either mode; ``make_certificate``
turns an exhausted result into an absence certificate.  ``_plan`` orders the
groups once, and ``search`` refuses a tree on the DFS depth read off that plan.

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
- One-leaf zero (odd q).  A vertex with one leaf and spine label 0 induces
  0 + l = l, and its leaf, labeled l, induces l too.  So 0 sits on the spine
  edge of a vertex with two or more leaves; one with a single leaf skips 0.
- Take 0 (odd q).  The vertex target of an even p = q+1 has no 0, and
  every group label induces itself, so 0 sits on a branch spine edge, of a
  vertex with two or more leaves (one-leaf zero).  ``zero_last[d]`` holds
  when no such vertex comes after branch vertex d, or after d's
  equal-count run, whose later members take larger keys than d, so never
  0, the least key.  While 0 is in the pool at such a d, d must take 0.
  A single-leaf d cannot, and returns before any node.  So does a d that
  is not the first of its run: its predecessor took a nonzero label, and
  d must take a larger key.  Otherwise 0 is d's only candidate.  So 0 is
  placed by the first member of the last run of vertices with two or
  more leaves, at the latest, and with no such vertex the first branch
  vertex returns: every completed branch spine holds 0.
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
  pendants too, as the root's group).  A group lists its free labels and
  their prefix sums once, at its start, and scans the list past its last
  label (all still free).  The list is read off the pool a byte at a time,
  from one table per byte offset, up to ``TABLE_BITS`` labels.  With k
  labels left, partial sum ``base`` and next label ``v_j`` (the j-th
  listed), the group sum lies between ``base`` plus the k listed labels
  from j and ``base`` plus ``v_j`` plus the top k-1 listed labels.  It
  must be some t in R, so an interval missing ``[min R, max R]`` is
  skipped; its lower end rises with j, so the scan stops once that end
  passes ``max R``.
- Last label.  The completed group sum must be some t in R, so a group's
  last label is ``t - base``: the candidates are read off R, in ascending
  order, as one int of bits, instead of scanned.  A label with none costs
  its node and closes nothing.  An exact-cover group's options are read
  off R by the same shift.
- Last group.  When every other group has closed, the pool holds exactly
  the last group's labels, and they close it.  The induced labels add up
  to 2 * (sum of the edge labels) = 0, and the vertex target is symmetric,
  so it also sums to 0; every other vertex already holds a distinct target
  value, so the last group's owner gets the one value left.  Its labels are
  placed in ascending order, one node each, with no sum check.  So a count
  run that has stored its first labeling counts each closing label of the
  second-to-last group as one solution of ``1 + a_last`` nodes (a_last:
  the last group's size), without visiting them.

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

import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, groupby
from math import factorial, inf, prod

from ._version import __version__
from .labeling import EdgeLabeling, checked
from .labeling import edge_label_target, vertex_label_target
from .trees import TreeSpec, build_tree

FIND_ONE = "find-one"
COUNT_ALL = "count-all"

FOUND = "found"
EXHAUSTED_NONE = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"

GUARD_Q = 24

# frames kept free for search's callers: a tree whose DFS nests deeper than
# the recursion limit less this is refused before the run
DEPTH_MARGIN = 100


class GuardRefused(RuntimeError):
    """Tree too large for exhaustive search without an explicit override."""


class NotCertifiable(RuntimeError):
    """The searched tree has a labeling: there is no absence to certify."""


class BudgetExceeded(RuntimeError):
    """The search stopped at its budget before exhausting the space."""


@dataclass(frozen=True)
class SearchConfig:
    """How one search runs.

    node_budget: an int >= 0; stop with BUDGET_EXCEEDED after this many nodes (None: no limit).
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

    A FOUND result carries ``tree``, the searched spec, and its first
    labeling, verified by ``search``: ``slot_labels`` in ``tree.edge_ids``
    order, ``induced`` in ``tree.vertex_ids`` order, and ``labeling``,
    keyed by edge id in slot order, built on first read.
    """

    outcome: str
    nodes_visited: int
    count: int | None = None
    tree: TreeSpec | None = None
    slot_labels: list[int] | None = field(default=None, repr=False)
    induced: list[int] | None = field(default=None, repr=False)

    @cached_property
    def labeling(self) -> EdgeLabeling | None:
        return None if self.slot_labels is None else dict(zip(self.tree.edge_ids, self.slot_labels))


class _Stop(Exception):
    pass


class _BudgetHit(Exception):
    pass


# a pool of up to this many labels is read a byte at a time.  A table holds
# 20-28 KB, about 3 KB a label, and stays cached: a wider pool is read bit by bit
TABLE_BITS = 64


@cache
def _byte_bits(off: int) -> tuple[tuple[int, ...], ...]:
    """The set bits of each byte value 0 .. 255, as bit positions of an int
    that holds the byte at byte ``off`` (0 the lowest); built on first use."""
    return tuple(tuple(8 * off + b for b in range(8) if byte >> b & 1) for byte in range(256))


def _bits_of(pool: int, tables: list[tuple[tuple[int, ...], ...]] | None) -> list[int]:
    """The set bits of ``pool``, ascending.  ``tables``: the ``_byte_bits``
    table of each byte of ``pool``, lowest first, or None to read it bit by bit."""
    if tables is None:
        return [b for b in range(pool.bit_length()) if pool >> b & 1]
    bits: list[int] = []
    for table, byte in zip(tables, pool.to_bytes(len(tables), "little")):
        bits += table[byte]
    return bits


def _plan(spec: TreeSpec) -> tuple[list[tuple[int, int, int]], int, int]:
    """The groups smallest first, ties in spine order, as (size, owner, first
    slot), owner n the root (the pendants, slots 0 .. n_pend-1); the number of
    single-label groups, which lead; and the most frames the DFS nests: one per
    branch spine vertex, two per single-label group, a + 1 per other group of a
    labels but the last, and two for the spine's completion and the last group.
    An odd-q tree with no vertex of two or more leaves stops at its first branch
    vertex, whose spine edge cannot take 0 (one-leaf zero)."""
    counts, n = spec.counts, spec.n
    n_pend = counts.count(0)
    # summed here, not read off spec.leaf_start, so a surveyed spec keeps no cache
    starts = accumulate(counts[:-1], initial=n)
    plan = [(a, i, at) for i, (a, at) in enumerate(zip(counts, starts)) if a]
    if n_pend:
        plan.append((n_pend, n, 0))
    plan.sort()
    n_single = counts.count(1) + (n_pend == 1)
    if spec.q % 2 and max(counts) < 2:
        return plan, n_single, 1
    depth = n - n_pend + 2 * n_single + sum(a + 1 for a, _, _ in plan[n_single:-1]) + 2
    return plan, n_single, depth


def _run(spec: TreeSpec, config: SearchConfig, plan: list[tuple[int, int, int]], n_single: int):
    n = spec.n
    counts = spec.counts
    q = spec.q
    # the free labels are the set bits of one int, ``pool``: label v is bit
    # v + h, so bit h (label 0) exists only for odd q
    h = q // 2
    n_bits = 2 * h + 1
    tables = [_byte_bits(i) for i in range(n_bits + 7 >> 3)] if n_bits <= TABLE_BITS else None
    n_pend = counts.count(0)  # pendants lead: the branch vertices are positions n_pend .. n-1

    zero_last: list[bool] = []  # read only while 0 is in the pool: odd q
    if q % 2:
        # only a vertex with two or more leaves can take 0.  zero_last[d]: no
        # such vertex comes after d, or after d's equal-count run (its later
        # members take larger keys, so never 0)
        last0 = max((d for d, a in enumerate(counts) if a >= 2), default=-1)
        zero_last = [d >= last0 or a == counts[last0] for d, a in enumerate(counts)]

    limit = inf if config.node_budget is None else config.node_budget
    nodes = 0  # every node site raises _BudgetHit at limit, then counts itself
    # the labeling in the tree's slot order: spine edges, then each leaf group
    x = [0] * q
    last = len(plan) - 1
    a_last = plan[-1][0]
    bases: list[int] = []  # each group's base, in plan order, once the spine is labeled
    r_bits = 0  # the targets R still to realize: t is bit t + h + 1
    full = (1 << n_bits) - 1  # every label; even q has no 0
    # odd q: R swaps the target 0 (bit h + 1) for +-(q+1)/2 (bits 0, 2h + 2)
    r_fix = 1 | (1 << (h + 1)) | (1 << (2 * h + 2)) if q % 2 else 0
    raw_count = 0
    weight = 1  # count mode: the solutions each one found stands for, by sign of S
    first: list[int] | None = None  # the first labeling, in slot order

    def close(hits: int, base: int, slot: int, gi: int, singles, pool: int) -> None:
        # hits: the labels that close a group of base ``base``, as bits: label v
        # (bit v + h) closes it when t = v + base is in R (bit t + h + 1).  Each
        # in ascending order; its target leaves R meanwhile
        nonlocal r_bits, nodes, raw_count
        if first is not None and gi == last and not singles:
            # count mode, the last group next: each label closes, then the last
            # group is placed, so each is one solution of 1 + a_last nodes
            c = hits.bit_count()
            cost = c * (1 + a_last)
            if nodes + cost <= limit:
                nodes += cost
                raw_count += c * weight
                return
        while hits:
            bit = hits & -hits
            hits ^= bit
            v = bit.bit_length() - 1 - h
            if nodes >= limit:
                raise _BudgetHit
            nodes += 1
            x[slot] = v
            target = 1 << (v + base + h + 1)
            r_bits ^= target
            next_group(gi, singles, pool ^ bit)
            r_bits ^= target

    def next_group(gi: int, singles, pool: int) -> None:
        # the one group step: while single-label groups are open (singles),
        # close the one with the fewest options, ties in plan order (exact
        # cover); then group gi, the next in plan order
        nonlocal nodes, raw_count, first
        if singles:
            best = None
            for g in singles:
                shift = bases[g] + 1
                hits = pool & (r_bits >> shift if shift >= 0 else r_bits << -shift)
                if not hits:
                    return
                c = hits.bit_count()
                if best is None or c < best[0]:
                    best = c, g, hits
            _, g, hits = best
            close(hits, bases[g], plan[g][2], gi, [o for o in singles if o != g], pool)
            return
        if gi == last:
            # last group: the pool is its labels and they close it, so they are
            # placed in ascending order, one node each, the nodes a search
            # of it visits
            a, _, slot = plan[gi]
            if nodes + a > limit:
                nodes = limit
                raise _BudgetHit
            nodes += a
            if first is None:
                x[slot:slot + a] = [b - h for b in _bits_of(pool, tables)]
            gi += 1
        if gi == len(plan):
            if first is None:
                first = x.copy()
            if config.mode == FIND_ONE:
                raise _Stop
            raw_count += weight
            return
        # one label list per group, as bits, with their prefix sums
        avail = _bits_of(pool, tables)
        dfs_group(gi, 0, 0, bases[gi], pool, avail, list(accumulate(avail, initial=0)))

    def dfs_group(gi: int, pos: int, j0: int, base: int, pool: int,
                  avail: list[int], sums: list[int]) -> None:
        # the group's labels ascend, so it scans avail from j0, past its last
        # label; it has k >= 2 labels left (single-label groups are the cover's)
        nonlocal nodes
        a, _, slot = plan[gi]
        slot += pos
        # sum interval: base + the k labels from j .. base + avail[j] + the top
        # k-1 must meet [min R, max R].  In bits: k labels of bit sum S add
        # S - k*h, and target t has bit length t + h + 2
        k = a - pos
        end = max(len(avail) - k + 1, j0)  # later leaves need k-1 labels above j
        off = (k - 1) * h - base - 2
        least_max = r_bits.bit_length() + off
        b_min = (r_bits & -r_bits).bit_length() + off - (sums[-1] - sums[end])
        for j in range(j0, end):
            if sums[j + k] - sums[j] > least_max:
                break  # the least sum only rises with j
            b = avail[j]
            if b < b_min:
                continue
            if nodes >= limit:
                raise _BudgetHit
            nodes += 1
            x[slot] = b - h
            sub, rest = base + b - h, pool ^ (1 << b)
            if k == 2:  # the last label is read off R: it is t - base for some t in R
                shift, above = sub + 1, rest >> b + 1 << b + 1  # the labels past b
                hits = above & (r_bits >> shift if shift >= 0 else r_bits << -shift)
                if hits:  # none: the node closes nothing
                    close(hits, sub, slot + 1, gi + 1, (), rest)
            else:
                dfs_group(gi, pos + 1, j + 1, sub, rest, avail, sums)

    def dfs_spine(d: int, pool: int) -> None:
        nonlocal r_bits, weight, nodes
        if d == n:
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
            next_group(n_single, range(n_single), pool)
            return
        # labels in magnitude order: position i holds 0, -1, 1, -2, 2, ..., so
        # label (i >> 1) ^ -(i & 1).  An equal-count predecessor is a branch
        # vertex, already labeled v: the run ascends, so start past v's position
        start = 0
        if d > 0 and counts[d] == counts[d - 1]:
            v = x[d - 1]
            start = 2 * v + 1 if v >= 0 else -2 * v
        free, stop = pool, n_bits
        if (pool >> h) & 1:  # odd q, 0 still free
            if counts[d] == 1:  # one-leaf zero: 0 cannot go here
                if zero_last[d]:
                    return  # nor on any later vertex
                free ^= 1 << h
            elif zero_last[d]:
                # take 0, at position 0: a later member of a run starts past it
                stop = 1
        for i in range(start, stop):
            v = (i >> 1) ^ -(i & 1)
            b = v + h
            if not (free >> b) & 1:
                continue
            if nodes >= limit:
                raise _BudgetHit
            nodes += 1
            x[d] = v
            dfs_spine(d + 1, pool ^ (1 << b))

    try:
        dfs_spine(n_pend, full if q % 2 else full ^ (1 << h))
    except _Stop:
        return FOUND, nodes, first, None
    except _BudgetHit:
        return BUDGET_EXCEEDED, nodes, None, None
    if raw_count > 0:  # only COUNT_ALL gets here with solutions
        # re-expand once: a leaf group or equal-count run of m stands for m!
        # orderings (equal counts are contiguous)
        runs = [len(list(g)) for _, g in groupby(counts)]
        raw_count *= prod(map(factorial, [*counts, *runs]))
        return FOUND, nodes, first, raw_count
    return EXHAUSTED_NONE, nodes, None, 0


def search(spec: TreeSpec, config: SearchConfig | None = None) -> SearchResult:
    """Run the engine in the configured mode.  Deterministic for fixed input.

    A labeling that fails ``labeling.checked`` raises ConstructionFault; it
    is never returned.
    """
    if config is None:
        config = SearchConfig()
    if config.mode not in (FIND_ONE, COUNT_ALL):
        raise ValueError(f"unknown search mode {config.mode!r}; use {FIND_ONE!r} or {COUNT_ALL!r}")
    budget = config.node_budget
    if budget is not None and (type(budget) is not int or budget < 0):  # a bool is not an int here
        raise ValueError(f"node_budget must be None or an int >= 0, got {budget!r}")
    if spec.q > GUARD_Q and not config.override_guard:
        raise GuardRefused(
            f"{spec} has q={spec.q} > {GUARD_Q}; exhaustive search refused "
            "(pass override_guard to insist)"
        )
    plan, n_single, depth = _plan(spec)
    try:
        # many branches, or a long group before the last, is deep: refused
        # on the plan's depth before the run, or by the stack for a deep caller
        if depth > sys.getrecursionlimit() - DEPTH_MARGIN:
            raise RecursionError
        outcome, nodes, x, count = _run(spec, config, plan, n_single)
    except RecursionError:
        raise GuardRefused(
            f"{spec} has q={spec.q}; the tree is too deep for the search"
        ) from None
    if x is None:
        return SearchResult(outcome, nodes, count)
    tree = build_tree(spec)
    return SearchResult(outcome, nodes, count, tree, x, checked(tree, x, "search"))


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
