"""Reference counters, independent of the package under test.

``naive_count`` enumerates every bijection from the edge set to the
symmetric label set by raw permutation and checks the induced vertex
multiset directly.  Only usable for tiny trees (q <= 7 or so), which is
exactly what makes it a trustworthy cross-check for the real search engine.

``naive_induced`` sums the induced labels vertex by vertex from the edge
names, with no slot arithmetic.

``cover_count`` poses the same question as an exact cover (Knuth, *Dancing
Links*) and reaches q = 12 in seconds per tree.  It shares no cut with the
search engine: no forced targets, no zero rules, no sign of the spine sum.
"""

from itertools import combinations, groupby, permutations
from math import factorial


def sym_target(m: int) -> list[int]:
    h = m // 2
    vals = list(range(-h, 0)) + list(range(1, h + 1))
    if m % 2 == 1:
        vals.append(0)
    return sorted(vals)


def naive_solutions(counts):
    """Yield each SEG labeling of RT(counts) as a flat tuple.

    Slot order: spine edges v1..vn, then the leaves of each vertex in
    order.  counts is the canonical leaf-count sequence.
    """
    n = len(counts)
    q = n + sum(counts)
    p = q + 1
    edge_vals = sym_target(q)
    vertex_vals = sorted(sym_target(p))
    # slot layout: [0, n) spine; then per-vertex leaf runs
    leaf_start = []
    pos = n
    for a in counts:
        leaf_start.append(pos)
        pos += a
    for perm in permutations(edge_vals):
        sums = [perm[i] for i in range(n)]
        for i, a in enumerate(counts):
            s = leaf_start[i]
            for t in range(a):
                sums[i] += perm[s + t]
        root = sum(perm[i] for i in range(n))
        induced = [root] + sums
        for i, a in enumerate(counts):
            s = leaf_start[i]
            induced.extend(perm[s + t] for t in range(a))
        if sorted(induced) == vertex_vals:
            yield perm


def naive_count(counts) -> int:
    return sum(1 for _ in naive_solutions(counts))


def naive_exists(counts) -> bool:
    for _ in naive_solutions(counts):
        return True
    return False


def naive_is_seg_assignment(counts, flat) -> bool:
    """Check a single flat assignment (same slot order) without search."""
    n = len(counts)
    q = n + sum(counts)
    if sorted(flat) != sym_target(q):
        return False
    sums = list(flat[:n])
    pos = n
    induced = [sum(flat[:n])]
    leaves = []
    for i, a in enumerate(counts):
        for t in range(a):
            sums[i] += flat[pos]
            leaves.append(flat[pos])
            pos += 1
    induced += sums + leaves
    return sorted(induced) == sorted(sym_target(q + 1))


def naive_induced(counts, f: dict) -> dict:
    """The induced labels of the edge-id labeling f of RT(counts), summed
    vertex by vertex from the counts and the edge names."""
    n = len(counts)
    g = {"v0": sum(f[f"v{i}"] for i in range(1, n + 1))}
    for i, a in enumerate(counts, start=1):
        leaves = [f"v{i}.{m}" for m in range(1, a + 1)]
        g[f"v{i}"] = f[f"v{i}"] + sum(f[e] for e in leaves)
        g.update((e, f[e]) for e in leaves)
    return g


def cover_count(counts) -> int:
    """Count the SEG labelings of RT(counts) as an exact cover.

    Spine vertex i takes one option: a spine label s and a set X of a_i
    leaf labels.  It covers the labels s and X, and the vertex values X
    (each leaf induces its own label) and s + sum(X).  Every label is
    covered once and every value at most once; the root's sum, the sum of
    the spine labels, must be the one value left.  Leaves are taken as sets
    and spine labels ascend within a run of equal leaf counts, so the count
    is re-expanded by a_i! per vertex and m! per run of m.  Each node
    branches on the run whose next vertex has the fewest options.
    """
    q = len(counts) + sum(counts)
    runs = [(a, len(list(g))) for a, g in groupby(counts)]
    weight = 1
    for a, m in runs:
        weight *= factorial(m) * factorial(a) ** m

    def options(a, lo, labels, values):
        leaves = [x for x in labels if x in values]
        for s in labels:
            if s > lo:
                for X in combinations([x for x in leaves if x != s], a):
                    v = s + sum(X)
                    if v in values and v not in X:
                        yield s, X, v

    def count(state, labels, values, root):
        # state: per run, the vertices left and the last spine label taken
        best = None
        for r, (left, lo) in enumerate(state):
            if left:
                opts = list(options(runs[r][0], lo, labels, values))
                if not opts:
                    return 0
                if best is None or len(opts) < len(best[1]):
                    best = r, opts
        if best is None:
            return int(values == {root})
        r, opts = best
        left = state[r][0]
        return sum(count(state[:r] + ((left - 1, s),) + state[r + 1:],
                         labels - {s, *X}, values - {v, *X}, root + s)
                   for s, X, v in opts)

    start = tuple((m, -q) for _, m in runs)
    return weight * count(start, frozenset(sym_target(q)), frozenset(sym_target(q + 1)), 0)
