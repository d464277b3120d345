"""Diameter-4 trees given by leaf-count specs; the spec is the tree.

A tree ``RT(a_1, ..., a_n)`` has a root ``v0``, spine vertices ``v1 .. vn``
adjacent to the root, and ``a_i`` pendant leaves under ``v_i``.  Specs are
kept in canonical order: zero counts first, then positive even counts
nondecreasing, then positive odd counts nondecreasing.  With
``(j, k, l) = (#zeros, #positive evens, #positive odds)``, diameter 4 is
exactly ``k + l >= 2``; ``k + l == 2`` is the caterpillar shape and
``k + l >= 3`` the lobster shape.  Edge count ``q = n + sum(a_i)``, vertex
count ``p = q + 1``.

``classify`` is total: every valid spec is routed to exactly one outcome,
either a constructive labeling rule, a proved-empty family, a conjectured
family, or the one explicitly uncovered region (j odd, k >= 4 even, l = 0).
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, groupby, repeat
from operator import floordiv, mod
from typing import NamedTuple

Q_LIMIT = 10**6  # labels must stay comfortably inside machine ints
ENUM_Q_LIMIT = 40  # enumerate_specs(40) lists 214,487 specs; +5 on q is ~2.5x


class SpecSyntaxError(ValueError):
    """Malformed spec text (bad token, unbalanced parens, bad exponent)."""


class NotDiameterFour(ValueError):
    """Counts describe a tree of diameter < 4 (fewer than two branch vertices)."""


class EmptyRange(ValueError):
    """enumerate_specs called with max_q below the smallest valid tree (q=4)."""


class TreeSpec:
    """Canonical leaf-count sequence of a diameter-4 tree, and the tree.

    ``n``, ``j``, ``k``, ``l`` and ``q`` are computed once, at construction;
    equality, hash and repr go by ``counts`` alone.  Frozen: assignment and
    deletion raise AttributeError (``cached_property`` writes the instance
    dict directly).  A labeling is laid out in slots, the positions of
    ``edge_ids``.
    """

    counts: tuple[int, ...]
    n: int
    j: int
    k: int
    l: int
    q: int

    def __init__(self, counts: tuple[int, ...]) -> None:
        n, j, l = len(counts), counts.count(0), sum(map(mod, counts, repeat(2)))
        self.__dict__.update(counts=counts, n=n, j=j, k=n - j - l, l=l, q=n + sum(counts))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen TreeSpec")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen TreeSpec")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self) -> int:
        return hash((self.counts,))

    def __repr__(self) -> str:
        return f"TreeSpec(counts={self.counts!r})"

    @property
    def p(self) -> int:
        return self.q + 1

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        """The one place edges are named, on first read, in slot order (spine
        edges v1..vn, then each vertex's leaf edges): spine edge i is ``v<i>``
        and the m-th leaf edge (1-based) of v_i is ``v<i>.<m>``, so an edge id
        is its child endpoint's id.  A tree that is only verified never names them."""
        counts = self.counts
        spine = [f"v{i}" for i in range(1, len(counts) + 1)]
        ordinals = [str(m) for m in range(1, max(counts, default=0) + 1)]
        leaves = [f"{v}.{m}" for v, a in zip(spine, counts) for m in ordinals[:a]]
        return tuple(spine + leaves)

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return ("v0",) + self.edge_ids

    @cached_property
    def leaf_start(self) -> tuple[int, ...]:
        """Slot of each spine vertex's first leaf edge, built on first read."""
        return tuple(accumulate(self.counts[:-1], initial=self.n))

    @property
    def family(self) -> str:
        shape = "Caterpillar" if self.k + self.l == 2 else "Lobster"
        size = "Even" if self.q % 2 == 0 else "Odd"
        return size + shape

    def format(self) -> str:
        """Compressed spec string, runs of equal counts in exponent notation."""
        runs = [(a, len(list(run))) for a, run in groupby(self.counts)]
        return "RT(" + ",".join(f"{a}^{m}" if m > 1 else str(a) for a, m in runs) + ")"

    def __str__(self) -> str:
        return self.format()


def canonicalize(counts) -> TreeSpec:
    """Sort raw counts into canonical order and validate the shape.

    Stable within each block (zeros / positive evens / positive odds), so
    equal counts keep their relative order.  Raises SpecSyntaxError on no counts,
    NotDiameterFour when fewer than two counts are positive.
    """
    counts = list(counts)
    if not counts:
        raise SpecSyntaxError("spec has no counts")
    # plain nonnegative ints pass without a Python loop; anything else is
    # named, the first bad count in the order given (a bool is refused)
    if not set(map(type, counts)) <= {int} or min(counts) < 0:
        for a in counts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise SpecSyntaxError(f"counts must be nonnegative integers, got {a!r}")
    if len(counts) - counts.count(0) < 2:
        raise NotDiameterFour(
            "diameter 4 needs at least two spine vertices with leaves"
        )
    # one sort; its runs of equal counts split by parity, zeros leading the evens
    evens: list[int] = []
    odds: list[int] = []
    for a, run in groupby(sorted(counts)):
        (odds if a % 2 else evens).extend(run)
    spec = TreeSpec(tuple(evens + odds))
    if spec.q > Q_LIMIT:
        raise ValueError(f"q={spec.q} exceeds supported limit {Q_LIMIT}")
    return spec


_ITEM_RE = re.compile(r"^([0-9]+)(?:\^([0-9]+))?$")  # \d would match any script's digits


def parse_spec(text: str) -> TreeSpec:
    """Parse spec text such as ``RT(0^4,2,6)`` or ``0,0,0,0,2,6``.

    The ``RT(...)`` wrapper is optional and case-insensitive; whitespace is
    ignored everywhere; ``m^r`` repeats count m exactly r times (r >= 1).
    The result is canonicalized.
    """
    if not isinstance(text, str):
        raise SpecSyntaxError(f"spec must be a string, got {type(text).__name__}")
    # whitespace is allowed around tokens but never inside one: "1 1" is bad
    compact = text.strip()
    wrapped = re.match(r"^[rR][tT]\s*\((.*)\)$", compact, re.DOTALL)
    if wrapped is not None:
        compact = wrapped.group(1).strip()
    elif compact.lower().startswith("rt"):
        raise SpecSyntaxError(f"unbalanced RT(...) wrapper in {text!r}")
    if compact == "":
        raise SpecSyntaxError(f"no counts in spec {text!r}")
    items: list[tuple[int, int]] = []  # (count, repeat)
    for item in compact.split(","):
        m = _ITEM_RE.match(item.strip())
        if m is None:
            raise SpecSyntaxError(f"bad item {item!r} in spec {text!r}")
        try:  # past the int string-conversion limit int() raises ValueError
            value, repeat = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:
            raise SpecSyntaxError(f"item {item.strip()[:20]!r}... is too long") from None
        if repeat < 1:
            raise SpecSyntaxError(f"exponent must be >= 1 in item {item!r}")
        items.append((value, repeat))
    # q by arithmetic, so a huge exponent is refused before anything is expanded
    q = sum(repeat * (value + 1) for value, repeat in items)
    if q > Q_LIMIT:
        raise ValueError(f"q={q} exceeds supported limit {Q_LIMIT}")
    counts: list[int] = []
    for value, repeat in items:
        counts += [value] * repeat
    return canonicalize(counts)


def build_tree(spec: TreeSpec) -> TreeSpec:
    """The tree of spec: spec itself, whose edges ``edge_ids`` names."""
    return spec


# ---------------------------------------------------------------------------
# classification / dispatch
# ---------------------------------------------------------------------------

#: dispatch status values
CONSTRUCTIVE = "constructive"
NOT_SEG = "not_seg"
CONJECTURED = "conjectured"
UNCOVERED = "uncovered"


class Classification(NamedTuple):
    """Total routing of a spec to its labeling rule or knowledge status.

    ``tag`` names the applicable rule (or conjecture/uncovered region);
    ``case`` splits multi-case rules; ``params`` carries the substitution
    parameters r, s and t, which the rules read, and the per-branch-vertex
    half-counts b (a_i = 2b_i or 2b_i + 1), which ``classify`` reports.
    Family, (j, k, l), q and p are read from ``spec``.

    A caterpillar with counts a1 <= a2 (in canonical order) has
    r, s, t = j // 2, a1 // 2, a2 // 2 when q, j and a1 are all odd, and
    (j+1) // 2, (a1+1) // 2, (a2+1) // 2 otherwise.  An even-q lobster has
    r, s, t = (j+1) // 2, k // 2, l // 2.
    """

    spec: TreeSpec
    status: str
    tag: str
    case: str | None
    params: dict


def _classify_caterpillar(spec: TreeSpec) -> tuple[str, str, str | None, dict]:
    j = spec.j
    a1, a2 = spec.counts[j], spec.counts[j + 1]
    if spec.q % 2 and j % 2 and a1 % 2:
        # q, j and a1 odd, so a2 is odd too
        if a1 == 1 and (j == 1 or a2 == 1):
            return (NOT_SEG, "cat-not-seg-ones", None, {})
        if a1 == 1:
            # here j >= 3 and a2 >= 3
            return (CONSTRUCTIVE, "cat-q-odd-single-leaf", None, {"r": j // 2, "t": a2 // 2})
        return (CONSTRUCTIVE, "cat-q-odd-j-odd-odds", None,
                {"r": j // 2, "s": a1 // 2, "t": a2 // 2})
    # a1 and a2 have equal parity iff q and j do; if not, the even one is a1
    params = {"r": (j + 1) // 2, "s": (a1 + 1) // 2, "t": (a2 + 1) // 2}
    if spec.q % 2:
        tag = "cat-q-odd-j-odd-evens" if j % 2 else "cat-q-odd-j-even"
        return (CONSTRUCTIVE, tag, None, params)
    if j % 2:
        return (CONSTRUCTIVE, "cat-q-even-j-odd", None, params)
    return (CONSTRUCTIVE, "cat-q-even-j-even", "both-odd" if a1 % 2 else "both-even", params)


#: even-q lobster tag by (j % 2, l % 2); q even means j and k share parity
_EVEN_Q_LOBSTER_TAGS = {(1, 1): "lob-jkl-odd-odd-odd", (1, 0): "lob-jkl-odd-odd-even",
                        (0, 1): "lob-jkl-even-even-odd", (0, 0): "lob-jkl-even-even-even"}


def _classify_lobster(spec: TreeSpec) -> tuple[str, str, str | None, dict]:
    j, k, l = spec.j, spec.k, spec.l
    b = tuple(map(floordiv, spec.counts[j:], repeat(2)))
    if spec.q % 2 == 0:
        return (CONSTRUCTIVE, _EVEN_Q_LOBSTER_TAGS[j % 2, l % 2], None,
                {"r": (j + 1) // 2, "s": k // 2, "t": l // 2, "b": b})
    # q odd: j and k of opposite parity
    if j % 2 == 0:
        # k odd >= 1
        if l % 2 == 1:
            case = "l-1" if l == 1 else "l-ge-3"
            return (CONSTRUCTIVE, "lob-jkl-even-odd-odd", case,
                    {"r": j // 2, "s": (k + 1) // 2, "t": l // 2, "b": b})
        if k >= 3:
            case = "l-0" if l == 0 else "l-ge-2"
            return (CONSTRUCTIVE, "lob-jkl-even-odd-even", case,
                    {"r": j // 2, "s": k // 2, "t": l // 2, "b": b})
        return (CONJECTURED, "conjecture-1", None, {})
    # j odd, k even
    if k == 0 and all(a in (0, 1) for a in spec.counts):
        return (NOT_SEG, "lob-not-seg-all-ones", None, {})
    if k and l == 0:
        # k even >= 4 here (k + l >= 3 and k even)
        return (UNCOVERED, "uncovered", None, {})
    if k and l <= 2:
        return (CONSTRUCTIVE, "lob-jkl-odd-even-small-l", f"l-{l}",
                {"r": j // 2, "s": k // 2, "b": b})
    return (CONJECTURED, "conjecture-3" if l % 2 else "conjecture-2", None, {})


def classify(spec: TreeSpec) -> Classification:
    if spec.k + spec.l == 2:
        status, tag, case, params = _classify_caterpillar(spec)
    else:
        status, tag, case, params = _classify_lobster(spec)
    return Classification(spec=spec, status=status, tag=tag, case=case, params=params)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _nondecreasing(start: int, budget: int):
    """Nondecreasing tuples of counts >= start with the same parity as start.

    Each count a costs a + 1 edges (its leaves plus its spine edge); total
    cost is capped by budget.
    """
    yield ()
    v = start
    while v + 1 <= budget:
        for rest in _nondecreasing(v, budget - (v + 1)):
            yield (v,) + rest
        v += 2


def enumerate_specs(max_q: int) -> list[TreeSpec]:
    """All canonical specs with q <= max_q, sorted by (q, length, counts).

    The whole list is built, so max_q above ``ENUM_Q_LIMIT`` is refused with
    a ValueError before anything is enumerated.
    """
    if max_q < 4:
        raise EmptyRange(f"no diameter-4 tree has q <= {max_q}")
    if max_q > ENUM_Q_LIMIT:
        raise ValueError(f"max_q={max_q} exceeds supported limit {ENUM_Q_LIMIT}")
    found: list[TreeSpec] = []
    for j in range(0, max_q - 3):
        budget = max_q - j
        for evens in _nondecreasing(2, budget):
            left = budget - sum(a + 1 for a in evens)
            for odds in _nondecreasing(1, left):
                if len(evens) + len(odds) < 2:
                    continue
                found.append(TreeSpec((0,) * j + evens + odds))
    found.sort(key=lambda s: (s.q, s.n, s.counts))
    return found
