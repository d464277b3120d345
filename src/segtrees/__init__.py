"""Super edge-graceful labelings of diameter-4 trees.

Construct labelings from the closed-form case analysis, verify candidate
labelings against the defining bijections, search exhaustively with sound
symmetry breaking, and certify absence for small trees.
"""

from ._version import __version__
from .constructions import ConstructionFault, label_any
from .labeling import (
    DomainMismatch,
    Labeling,
    LabelingFormatError,
    VerificationReport,
    Violation,
    edge_label_target,
    induce,
    read_labeling,
    to_dot,
    verify,
    vertex_label_target,
    write_labeling,
)
from .search import (
    BUDGET_EXCEEDED,
    COUNT_ALL,
    EXHAUSTED_NONE,
    FIND_ONE,
    FOUND,
    GUARD_Q,
    GuardRefused,
    SearchResult,
    make_certificate,
    search,
)
from .trees import (
    CONJECTURED,
    CONSTRUCTIVE,
    NOT_SEG,
    UNCOVERED,
    Classification,
    EmptyRange,
    NotDiameterFour,
    SpecSyntaxError,
    TreeSpec,
    build_tree,
    canonicalize,
    classify,
    enumerate_specs,
    parse_spec,
)

__all__ = [
    "__version__",
    # tree model
    "TreeSpec",
    "Classification",
    "parse_spec",
    "canonicalize",
    "build_tree",
    "classify",
    "enumerate_specs",
    "SpecSyntaxError",
    "NotDiameterFour",
    "EmptyRange",
    "CONSTRUCTIVE",
    "NOT_SEG",
    "CONJECTURED",
    "UNCOVERED",
    # labelings
    "edge_label_target",
    "vertex_label_target",
    "induce",
    "verify",
    "Labeling",
    "VerificationReport",
    "Violation",
    "DomainMismatch",
    "LabelingFormatError",
    "read_labeling",
    "write_labeling",
    "to_dot",
    # constructions
    "label_any",
    "ConstructionFault",
    # search
    "search",
    "make_certificate",
    "SearchResult",
    "FIND_ONE",
    "COUNT_ALL",
    "FOUND",
    "EXHAUSTED_NONE",
    "BUDGET_EXCEEDED",
    "GUARD_Q",
    "GuardRefused",
]
