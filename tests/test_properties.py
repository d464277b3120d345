"""Property-based checks of the structural invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from segtrees import (
    CONJECTURED,
    CONSTRUCTIVE,
    NOT_SEG,
    UNCOVERED,
    build_tree,
    canonicalize,
    classify,
    edge_label_target,
    enumerate_specs,
    induce,
    label_any,
    negate,
    parse_spec,
    verify,
)
from oracle import naive_is_seg_assignment

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


@given(st.sampled_from(CONSTRUCTIVE_SPECS))
@settings(deadline=None)
def test_negation_preserves_seg(spec):
    f = label_any(spec).labeling
    tree = build_tree(spec)
    assert verify(tree, negate(f)).is_seg


@given(st.sampled_from(CONSTRUCTIVE_SPECS))
@settings(deadline=None)
def test_induced_sum_is_twice_edge_sum(spec):
    # every edge meets exactly two vertices, so the identity holds for any
    # total labeling, SEG or not
    tree = build_tree(spec)
    f = label_any(spec).labeling
    assert sum(induce(tree, f).values()) == 2 * sum(f.values())


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
    assert verify(tree, f).is_seg == verify(tree, negate(f)).is_seg


@given(st.sampled_from(enumerate_specs(9)))
@settings(deadline=None)
def test_enumerated_specs_build_consistently(spec):
    tree = build_tree(spec)
    assert len(tree.edge_ids) == spec.q
    assert len(tree.vertex_ids) == spec.p
    assert len(set(tree.edge_ids)) == spec.q
