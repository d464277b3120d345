"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces each layer function with a timing wrapper at
the places where callers look its name up, and ``Tracer.remove`` puts the
originals back, so untraced passes run the unmodified program.  Modules
come from ``sys.modules``: the attribute ``segtrees.search`` is the
re-exported function, not the module.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the index
of the enclosing span or None, ``op`` the id of the op that caused it.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

#: (module whose global the caller reads, function name)
SITES = (
    *(("segtrees.cli", name) for name in (
        "parse_spec", "classify", "build_tree", "enumerate_specs", "label_any",
        "verify", "induce", "write_labeling", "read_labeling", "search",
        "make_certificate",
    )),
    ("segtrees.constructions", "classify"),
    ("segtrees.constructions", "build_tree"),
    ("segtrees.constructions", "verify"),
    ("segtrees.labeling", "induce"),
    ("segtrees.search", "search"),
    ("segtrees.search", "build_tree"),
)


def _search_attrs(args, result) -> dict:
    return {"spec": args[0].format(), "q": args[0].q,
            "nodes": result.nodes_visited, "outcome": result.outcome}


_ATTRS = {"search.search": _search_attrs}


def layer_name(fn) -> str:
    """``trees.build_tree`` for ``segtrees.trees.build_tree``."""
    return f"{fn.__module__.removeprefix('segtrees.')}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn):
        name = layer_name(fn)
        attrs = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr in SITES:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original))

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
