"""Property-based checks of the structural invariants."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrees import (
    CONJECTURED,
    CONSTRUCTIVE,
    NOT_SEG,
    ConstructionFault,
    UNCOVERED,
    VerificationReport,
    Violation,
    build_tree,
    canonicalize,
    classify,
    edge_label_target,
    enumerate_specs,
    induce,
    label_any,
    parse_spec,
    verify,
    vertex_label_target,
)
from segtrees.labeling import _induced, checked, verify_slots
from segtrees.search import _bits_of, _byte_bits
from oracle import naive_induced, naive_is_seg_assignment

# raw count lists that always form a valid diameter-4 spec: at least two
# positive entries
raw_counts = st.lists(st.integers(0, 9), min_size=0, max_size=6).flatmap(
    lambda zs: st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda ab: zs + [ab[0], ab[1]]
    )
)

CONSTRUCTIVE_SPECS = [
    s for s in enumerate_specs(13) if classify(s).status == CONSTRUCTIVE
]
SMALL_SPECS = enumerate_specs(6)


@given(raw_counts)
def test_canonicalize_idempotent(counts):
    c = canonicalize(counts)
    assert canonicalize(c.counts) == c


@given(raw_counts, st.randoms(use_true_random=False))
def test_canonicalize_permutation_invariant(counts, rng):
    shuffled = list(counts)
    rng.shuffle(shuffled)
    assert canonicalize(shuffled) == canonicalize(counts)


@given(raw_counts)
def test_format_parse_identity(counts):
    spec = canonicalize(counts)
    assert parse_spec(spec.format()) == spec


@given(raw_counts)
def test_classification_is_total_and_parity_consistent(counts):
    spec = canonicalize(counts)
    cls = classify(spec)
    assert cls.status in (CONSTRUCTIVE, NOT_SEG, CONJECTURED, UNCOVERED)
    even = spec.q % 2 == 0
    assert spec.family.startswith("Even" if even else "Odd")
    is_cat = spec.k + spec.l == 2
    assert spec.family.endswith("Caterpillar" if is_cat else "Lobster")
    assert spec.j + spec.k + spec.l == spec.n
    if even:
        # q sums 1 + a_i, odd for a zero or positive even count and even
        # for an odd one, so q = j + k (mod 2); the even-q constructions
        # read only (j + k) / 2 and l
        assert (spec.j + spec.k) % 2 == 0
        assert cls.status == CONSTRUCTIVE


@given(st.sampled_from(CONSTRUCTIVE_SPECS))
@settings(deadline=None)
def test_negation_preserves_seg(spec):
    f = label_any(spec).edges()
    tree = build_tree(spec)
    assert verify(tree, {e: -v for e, v in f.items()}).is_seg


@given(st.sampled_from(CONSTRUCTIVE_SPECS))
@settings(deadline=None)
def test_induced_sum_is_twice_edge_sum(spec):
    # every edge meets exactly two vertices, so the identity holds for any
    # total labeling, SEG or not
    tree = build_tree(spec)
    f = label_any(spec).edges()
    assert sum(induce(tree, f).values()) == 2 * sum(f.values())


@given(raw_counts, st.data())
def test_induced_matches_per_vertex_sums(counts, data):
    # any int slot list, SEG or not, on trees with and without childless
    # spine vertices: the prefix-sum rewrite, the dict form and the
    # vertex-by-vertex reference give the same labels
    spec = canonicalize(counts)
    tree = build_tree(spec)
    x = data.draw(st.lists(st.integers(), min_size=spec.q, max_size=spec.q))
    f = dict(zip(tree.edge_ids, x))
    g = naive_induced(spec.counts, f)
    assert _induced(tree, x) == [g[v] for v in tree.vertex_ids]
    assert induce(tree, f) == g


@given(st.sampled_from(SMALL_SPECS), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_verify_agrees_with_naive_predicate(spec, seed):
    # random total assignments, valid labels but rarely SEG; the package
    # verifier and the independent checker must agree either way
    rng = random.Random(seed)
    labels = list(edge_label_target(spec.q))
    rng.shuffle(labels)
    tree = build_tree(spec)
    f = dict(zip(tree.edge_ids, labels))
    flat = tuple(f[e] for e in tree.edge_ids)
    assert verify(tree, f).is_seg == naive_is_seg_assignment(spec.counts, flat)


@given(st.sampled_from(SMALL_SPECS), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_verify_negation_equivariant(spec, seed):
    rng = random.Random(seed)
    labels = list(edge_label_target(spec.q))
    rng.shuffle(labels)
    tree = build_tree(spec)
    f = dict(zip(tree.edge_ids, labels))
    assert verify(tree, f).is_seg == verify(tree, {e: -v for e, v in f.items()}).is_seg


def counter_report(spec, f):
    """verify's report for a total, all-int labeling, by Counter diffs only,
    and the induced labels it was judged on.

    Induced labels are summed from the spec's counts and the edge names,
    not through the package.
    """
    def diff(kind, values, target):
        have, want = Counter(values), Counter(target)
        missing = tuple(sorted((want - have).elements()))
        extra = tuple(sorted((have - want).elements()))
        return [Violation(kind, missing, extra)] if missing or extra else []

    g = naive_induced(spec.counts, f)
    violations = diff("EdgeLabelsNotTargetSet", f.values(), edge_label_target(spec.q))
    violations += diff("VertexLabelsNotTargetSet", g.values(), vertex_label_target(spec.p))
    return VerificationReport(not violations, tuple(violations)), g


@given(
    st.sampled_from(CONSTRUCTIVE_SPECS),
    st.sampled_from(("duplicate", "out-of-range", "swap-leaves")),
    st.randoms(use_true_random=False),
)
@settings(deadline=None)
def test_verify_matches_counter_reference_on_broken_labelings(spec, change, rng):
    # one change to a valid labeling: the sorted-equality gate must reject
    # exactly what the Counter diffs reject, with the same report
    f = label_any(spec).edges()
    tree = build_tree(spec)
    if change == "duplicate":
        a, b = rng.sample(tree.edge_ids, 2)
        f[a] = f[b]
    elif change == "out-of-range":
        a = rng.choice(tree.edge_ids)
        f[a] = rng.choice((1, -1)) * (spec.q // 2 + rng.randint(1, 3))
    else:
        i, k = rng.sample([i for i, a in enumerate(spec.counts, start=1) if a], 2)
        a = f"v{i}.{rng.randint(1, spec.counts[i - 1])}"
        b = f"v{k}.{rng.randint(1, spec.counts[k - 1])}"
        f[a], f[b] = f[b], f[a]
    report, g = counter_report(spec, f)
    assert verify(tree, f) == report
    assert induce(tree, f) == g


@given(
    st.sampled_from(CONSTRUCTIVE_SPECS),
    st.sampled_from(("none", "duplicate", "out-of-range", "swap", "short", "long")),
    st.randoms(use_true_random=False),
)
@settings(deadline=None)
def test_checked_passes_exactly_what_verify_slots_passes(spec, change, rng):
    # the gate decides by its own two sorts and builds a report only to
    # describe a failure: the same verdict, induced labels and fault text.
    # Swapping two leaves of one vertex keeps a labeling SEG
    tree = build_tree(spec)
    x = list(label_any(spec).slots)
    q = spec.q
    if change == "duplicate":
        i, k = rng.sample(range(q), 2)
        x[i] = x[k]
    elif change == "out-of-range":
        x[rng.randrange(q)] = rng.choice((1, -1)) * (q // 2 + rng.randint(1, 3))
    elif change == "swap":
        i, k = rng.sample(range(q), 2)
        x[i], x[k] = x[k], x[i]
    elif change == "short":
        x.pop()
    elif change == "long":
        x.append(q)
    report = verify_slots(tree, x)
    if report.is_seg:
        assert checked(tree, x, "rule").induced == _induced(tree, x)
    else:
        with pytest.raises(ConstructionFault) as fault:
            checked(tree, x, "rule")
        assert str(fault.value) == f"rule on {spec}: {report.describe()}"


@given(st.sampled_from(enumerate_specs(9)))
@settings(deadline=None)
def test_enumerated_specs_build_consistently(spec):
    tree = build_tree(spec)
    assert len(tree.edge_ids) == spec.q
    assert len(tree.vertex_ids) == spec.p
    assert len(set(tree.edge_ids)) == spec.q


# the search reads a pool's free labels a byte at a time; every width from
# 1 to 64 bits, full pools at the widths that cross a byte boundary
@given(st.integers(1, 64).flatmap(lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))))
@example((8, 0xFF))
@example((9, 0x1FF))
@example((16, 0xFFFF))
@example((17, 0x1FFFF))
@example((24, (1 << 24) - 1))
@example((25, (1 << 25) - 1))
@example((32, (1 << 32) - 1))
@example((33, (1 << 33) - 1))
@example((33, 1 << 32))
def test_byte_tables_list_a_pools_set_bits(width_pool):
    n_bits, pool = width_pool
    tables = [_byte_bits(i) for i in range(n_bits + 7 >> 3)]
    assert _bits_of(pool, tables) == [b for b in range(n_bits) if pool >> b & 1]
