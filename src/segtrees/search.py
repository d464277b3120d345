"""Exhaustive SEG search: find, count, or certify absence, deterministically.

The engine assigns spine edges first (index order), then each branch
vertex's leaf edges.  Three independent and individually sound symmetry
flags cut the space; raw counts are re-expanded exactly, so every flag
combination reports the same existence answer and the same raw labeling
count.

Exact pruning after the spine is labeled: pendant vertices repeat their
edge labels, so the induced labels still to be realized, by the root and
the branch vertices, are forced to be exactly
``R = {branch spine labels} + {0}`` for even q, or
``R = {nonzero branch spine labels} + {+-(q+1)/2}`` for odd q.
The root sum is checked against R when the spine completes and each branch
sum against the remainder when its leaf group completes; this is a
consequence of the two bijection requirements, not a heuristic.

Symmetry soundness notes.  Negation pairs solutions f/-f; with the
equal-spine flag off, the representative is fixed in-search by requiring
the first nonzero assigned label (always a spine edge) to be positive,
worth an exact factor 2.  With both the negation and equal-spine flags on,
an in-search sign prune would be unsound: re-sorting equal spine vertices
can map -f back to f, and such self-paired solutions exist (RT(1,1)).
Instead every enumerated solution f is compared against canon(-f)
(negate, re-sort leaf groups if that flag is on, re-sort equal-count spine
runs): f < canon(-f) counts double, f == canon(-f) counts once,
f > canon(-f) is the partner and counts zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial

from ._version import __version__
from .labeling import EdgeLabeling, edge_label_target, vertex_label_target
# build_tree is unused here (labelings are keyed by the edge-id helpers) but
# stays importable: perfbench/spans.py wraps segtrees.search.build_tree.
from .trees import TreeSpec, build_tree, leaf_edge_id, spine_edge_id  # noqa: F401

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
    node_budget: int | None = None
    break_negation: bool = True
    break_leaf_permutations: bool = True
    break_equal_spine_vertices: bool = True
    mode: str = FIND_ONE
    override_guard: bool = False


@dataclass(frozen=True)
class SearchResult:
    outcome: str
    nodes_visited: int
    labeling: EdgeLabeling | None = None
    count: int | None = None


class _Stop(Exception):
    pass


class _BudgetHit(Exception):
    pass


def _run(spec: TreeSpec, config: SearchConfig):
    n = spec.n
    counts = spec.counts
    q = spec.q
    values = list(edge_label_target(q))  # ascending
    zero_idx = values.index(0) if q % 2 == 1 else -1
    branch = [i for i in range(n) if counts[i] > 0]  # 0-based spine positions
    l_on = config.break_leaf_permutations
    s_on = config.break_equal_spine_vertices
    n_on = config.break_negation
    sign_prune = n_on and not s_on

    # contiguous runs of equal counts; canonical order makes classes contiguous
    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(1, n):
        if counts[i] != counts[i - 1]:
            runs.append((start, i))
            start = i
    runs.append((start, n))
    same_as_prev = [i > 0 and counts[i] == counts[i - 1] for i in range(n)]

    base_factor = 1
    if l_on:
        for a in counts:
            base_factor *= factorial(a)
    if s_on:
        for st, en in runs:
            base_factor *= factorial(en - st)

    budget = config.node_budget
    nodes = 0
    spine_vals = [0] * n
    spine_idxs = [-1] * n
    groups: list[list[int]] = [[] for _ in range(n)]
    r_rem: set[int] = set()
    raw_count = 0
    first: EdgeLabeling | None = None

    def snapshot() -> EdgeLabeling:
        f: EdgeLabeling = {}
        for i in range(n):
            f[spine_edge_id(i + 1)] = spine_vals[i]
        for i in range(n):
            for m, v in enumerate(groups[i], start=1):
                f[leaf_edge_id(i + 1, m)] = v
        return f

    def canon_negated() -> tuple[int, ...]:
        # canonical form of -f under the enabled breaking constraints
        sp = [-v for v in spine_vals]
        gs = [sorted(-v for v in g) if l_on else [-v for v in g] for g in groups]
        for st, en in runs:
            if en - st > 1:
                order = sorted(range(st, en), key=sp.__getitem__)
                sp[st:en] = [sp[i] for i in order]
                gs[st:en] = [gs[i] for i in order]
        flat = tuple(sp) + tuple(v for g in gs for v in g)
        return flat

    def solution() -> None:
        nonlocal raw_count, first
        if first is None:
            first = snapshot()
        if config.mode == FIND_ONE:
            raise _Stop
        if n_on and s_on:
            fvec = tuple(spine_vals) + tuple(v for g in groups for v in g)
            gvec = canon_negated()
            if fvec < gvec:
                raw_count += 2 * base_factor
            elif fvec == gvec:
                raw_count += base_factor
        elif n_on:
            raw_count += 2 * base_factor
        else:
            raw_count += base_factor

    def tick() -> None:
        nonlocal nodes
        if budget is not None and nodes >= budget:
            raise _BudgetHit
        nodes += 1

    def dfs_group(bi: int, a: int, pos: int, last_idx: int, psum: int, pool: int, gi: int) -> None:
        lo = last_idx + 1 if l_on else 0
        grp = groups[bi]
        for idx in range(lo, q):
            if not (pool >> idx) & 1:
                continue
            v = values[idx]
            if pos == a - 1:
                total = spine_vals[bi] + psum + v
                if total not in r_rem:
                    continue
                tick()
                grp.append(v)
                r_rem.remove(total)
                dfs_branches(gi + 1, pool & ~(1 << idx))
                r_rem.add(total)
                grp.pop()
            else:
                tick()
                grp.append(v)
                dfs_group(bi, a, pos + 1, idx, psum + v, pool & ~(1 << idx), gi)
                grp.pop()

    def dfs_branches(gi: int, pool: int) -> None:
        if gi == len(branch):
            solution()
            return
        bi = branch[gi]
        dfs_group(bi, counts[bi], 0, -1, 0, pool, gi)

    def dfs_spine(d: int, pool: int, sign_fixed: bool) -> None:
        if d == n:
            if zero_idx >= 0 and (pool >> zero_idx) & 1:
                return  # 0 sits in the pool but only pendant edges remain
            root = 0
            for v in spine_vals:
                root += v
            if q % 2 == 0:
                required = {spine_vals[i] for i in branch}
                required.add(0)
            else:
                required = {spine_vals[i] for i in branch}
                required.discard(0)
                half = (q + 1) // 2
                required.add(half)
                required.add(-half)
            if root not in required:
                return
            required.remove(root)
            saved = r_rem.copy()
            r_rem.clear()
            r_rem.update(required)
            dfs_branches(0, pool)
            r_rem.clear()
            r_rem.update(saved)
            return
        pendant = counts[d] == 0
        lo = spine_idxs[d - 1] + 1 if (s_on and same_as_prev[d]) else 0
        for idx in range(lo, q):
            if not (pool >> idx) & 1:
                continue
            v = values[idx]
            if v == 0 and pendant:
                continue
            if sign_prune and not sign_fixed and v < 0:
                continue
            tick()
            spine_vals[d] = v
            spine_idxs[d] = idx
            dfs_spine(d + 1, pool & ~(1 << idx), sign_fixed or v != 0)
        spine_idxs[d] = -1

    try:
        dfs_spine(0, (1 << q) - 1, False)
    except _Stop:
        return SearchResult(FOUND, nodes, first, None)
    except _BudgetHit:
        return SearchResult(BUDGET_EXCEEDED, nodes, None, None)
    if raw_count > 0:  # only COUNT_ALL gets here with solutions
        return SearchResult(FOUND, nodes, first, raw_count)
    return SearchResult(EXHAUSTED_NONE, nodes, None, 0)


def search(spec: TreeSpec, config: SearchConfig | None = None) -> SearchResult:
    """Run the engine in the configured mode.  Deterministic for fixed input."""
    if config is None:
        config = SearchConfig()
    if spec.q > GUARD_Q and not config.override_guard:
        raise GuardRefused(
            f"{spec} has q={spec.q} > {GUARD_Q}; exhaustive search refused "
            "(pass override_guard to insist)"
        )
    return _run(spec, config)


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
        "flags": {
            "break_negation": config.break_negation,
            "break_leaf_permutations": config.break_leaf_permutations,
            "break_equal_spine_vertices": config.break_equal_spine_vertices,
        },
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
