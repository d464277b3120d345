"""Seeded operation lists for the four benchmark workloads.

Each op is one ``segtrees`` command line run in-process through
``segtrees.cli.main``.  Paths inside an op's argv start with ``{pass}``,
which the executor replaces with a fresh directory per pass, so ``verify``
reads the file that the same pass's ``label`` wrote.

Seed 0 gives the canonical lists: the six ``label_large`` trees below and
the natural order everywhere else.  Any other seed keeps every tree's rule
group and its q, and only redraws the leaf counts (``label_large``) or
shuffles the op order (the search workloads), so all seeds do the same
amount of work.

This module does not import ``segtrees``: inputs come from the benchmark,
not from the program under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("label_large", "search_refute", "search_count", "survey")


def q_of(counts: list[int]) -> int:
    return len(counts) + sum(counts)


def format_spec(counts: list[int]) -> str:
    """Spec text with runs of equal counts in exponent form, e.g. RT(0^2,2,5)."""
    parts = []
    i = 0
    while i < len(counts):
        run = 1
        while i + run < len(counts) and counts[i + run] == counts[i]:
            run += 1
        parts.append(f"{counts[i]}^{run}" if run > 1 else str(counts[i]))
        i += run
    return "RT(" + ",".join(parts) + ")"


# --- label_large -------------------------------------------------------------
#
# One constructive tree per closed-form rule group, q between 1.5e4 and 3e4,
# so every linear-in-q layer (build_tree, the rule, verify, induce, the
# labeling file) is busy while search idles.  Each drawer takes the group's
# q and returns leaf counts of that q inside the same group: the parity of
# the zero / even / odd block sizes fixes the group.  Block sizes stay
# within a fifth of seed 0's, so that seeds differ little in cost.

def canonical(counts: list[int]) -> list[int]:
    """Zeros, then positive evens ascending, then odds ascending."""
    return sorted(counts, key=lambda a: (a > 0, a % 2, a))


def _blocks(j: int, evens: list[tuple[int, int]], odds: list[tuple[int, int]]) -> list[int]:
    counts = [0] * j
    for value, times in evens + odds:
        counts += [value] * times
    return canonical(counts)


def _draw(rng: random.Random, q: int, propose) -> list[int]:
    # rejection sampling: propose() returns counts or None
    while True:
        counts = propose(rng)
        if counts is not None and q_of(counts) == q:
            return canonical(counts)


def _even(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randint(lo // 2, hi // 2)


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randint(lo // 2, (hi - 1) // 2) + 1


def _cat_even_j_even(rng, q):
    # RT(0^j, a, b): q even, j even, a and b even
    def propose(rng):
        j = _even(rng, 2, 8)
        a = _even(rng, 8000, 12000)
        return [0] * j + [a, q - j - 2 - a]
    return _draw(rng, q, propose)


def _cat_odd_j_odd_evens(rng, q):
    # RT(0^j, a, b): q odd, j odd, a and b even
    def propose(rng):
        j = _odd(rng, 8000, 12000)
        a = _even(rng, 2, 1000)
        return [0] * j + [a, q - j - 2 - a]
    return _draw(rng, q, propose)


def _lob_even_even_even(rng, q):
    # RT(0^j, 2^k, 1^l): j, k, l even
    def propose(rng):
        j = _even(rng, 2, 8)
        k = _even(rng, 2400, 3600)
        l, rem = divmod(q - j - 3 * k, 2)
        return None if rem or l < 2 or l % 2 else _blocks(j, [(2, k)], [(1, l)])
    return _draw(rng, q, propose)


def _lob_even_odd_odd(rng, q):
    # RT(0^j, 2^k, 3^l): j even, k odd, l odd >= 3
    def propose(rng):
        j = _even(rng, 2, 8)
        k = _odd(rng, 1600, 2400)
        l, rem = divmod(q - j - 3 * k, 4)
        return None if rem or l < 3 or l % 2 == 0 else _blocks(j, [(2, k)], [(3, l)])
    return _draw(rng, q, propose)


def _lob_even_odd_even(rng, q):
    # RT(0^j, 2^k, 3^m, 1): j even, k odd, l = m + 1 even
    def propose(rng):
        j = _even(rng, 2, 8)
        k = _odd(rng, 2667, 4000)
        m, rem = divmod(q - j - 3 * k - 2, 4)
        return None if rem or m < 1 or m % 2 == 0 else _blocks(j, [(2, k)], [(3, m), (1, 1)])
    return _draw(rng, q, propose)


def _lob_odd_even_small_l(rng, q):
    # RT(0^j, 2^k, x, y): j odd, k even, exactly two odd counts x < y
    def propose(rng):
        j = _odd(rng, 1, 15)
        x, y = sorted(rng.sample((1, 3, 5, 7, 9), 2))
        k, rem = divmod(q - j - (x + 1) - (y + 1), 3)
        return None if rem or k < 2 or k % 2 else _blocks(j, [(2, k)], [(x, 1), (y, 1)])
    return _draw(rng, q, propose)


#: (canonical counts at seed 0, drawer for other seeds)
LABEL_LARGE = (
    (_blocks(2, [(10000, 1), (20000, 1)], []), _cat_even_j_even),
    (_blocks(9999, [(2, 1), (20000, 1)], []), _cat_odd_j_odd_evens),
    (_blocks(2, [(2, 3000)], [(1, 6000)]), _lob_even_even_even),
    (_blocks(2, [(2, 2001)], [(3, 4001)]), _lob_even_odd_odd),
    (_blocks(2, [(2, 3333)], [(3, 3333), (1, 1)]), _lob_even_odd_even),
    (_blocks(3, [(2, 5000)], [(3, 1), (5, 1)]), _lob_odd_even_small_l),
)


# --- search workloads ----------------------------------------------------------

#: search --exhaust: refutations where the spine phase (RT(0^7,1^4)) or the
#: all-ones leaf groups dominate
REFUTE_EXHAUST = (_blocks(7, [], [(1, 4)]), _blocks(5, [], [(1, 5)]), _blocks(1, [], [(1, 8)]))
#: label with a search fallback: open cases, RT(8,1^4) and RT(0^2,4,1^4),
#: whose leaf phase dominates
REFUTE_LABEL = (_blocks(0, [(8, 1)], [(1, 4)]), _blocks(2, [(4, 1)], [(1, 4)]))
REFUTE_BUDGET = "10^7"

#: survey size: 563 trees, two of which stop at the default node budget
SURVEY_MAX_SIZE = 15


def count_specs() -> list[list[int]]:
    """All canonical leaf-count sequences with q in {10, 11}, sorted.

    Canonical order is zeros, then positive evens ascending, then odds
    ascending, at least two positive counts.
    """
    out = []

    def parts(start: int, budget: int):
        # nondecreasing counts >= start with start's parity, each costing a + 1
        yield []
        v = start
        while v + 1 <= budget:
            for rest in parts(v, budget - v - 1):
                yield [v] + rest
            v += 2

    for q in (10, 11):
        for j in range(q):
            for evens in parts(2, q - j):
                for odds in parts(1, q - j - sum(a + 1 for a in evens)):
                    counts = [0] * j + evens + odds
                    if len(evens) + len(odds) >= 2 and q_of(counts) == q:
                        out.append(counts)
    out.sort(key=lambda c: (q_of(c), len(c), c))
    return out


def _op(cmd: str, counts: list[int] | None, argv: list[str], stdout: str = "devnull", **extra) -> dict:
    spec = format_spec(counts) if counts is not None else None
    return {
        "cmd": cmd,
        "spec": spec,
        "counts": counts,
        "q": q_of(counts) if counts is not None else None,
        "argv": argv,
        "stdout": stdout,
        **extra,
    }


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(seed)
    ops: list[dict] = []
    if workload == "label_large":
        trees = [
            counts if seed == 0 else draw(rng, q_of(counts))
            for counts, draw in LABEL_LARGE
        ]
        if seed:
            rng.shuffle(trees)
        for i, counts in enumerate(trees):
            path = f"{{pass}}/label{i}.json"
            ops.append(_op("label", counts, ["label", format_spec(counts), "--out", path], out=path))
            ops.append(_op("verify", counts, ["verify", path]))
    elif workload == "search_refute":
        for i, counts in enumerate(REFUTE_EXHAUST):
            certs = f"{{pass}}/certs{i}"
            ops.append(_op("search_exhaust", counts,
                           ["search", format_spec(counts), "--exhaust", "--certificates-dir", certs],
                           certs=certs))
        for i, counts in enumerate(REFUTE_LABEL):
            path = f"{{pass}}/found{i}.json"
            ops.append(_op("label", counts,
                           ["label", format_spec(counts), "--search-budget", REFUTE_BUDGET,
                            "--out", path],
                           out=path))
        if seed:
            rng.shuffle(ops)
    elif workload == "search_count":
        for i, counts in enumerate(count_specs()):
            ops.append(_op("search_count", counts,
                           ["search", format_spec(counts), "--count", "--format", "json"],
                           stdout=f"{{pass}}/count{i}.json"))
        if seed:
            rng.shuffle(ops)
    elif workload == "survey":
        ops.append(_op("survey", None,
                       ["survey", "--max-size", str(SURVEY_MAX_SIZE), "--format", "json"],
                       stdout="{pass}/survey.json", q=SURVEY_MAX_SIZE))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops
