import os
import subprocess
import sys
from pathlib import Path

import segtrees


def test_all_names_resolve_once():
    names = segtrees.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(segtrees, name)]
    assert not missing


def test_result_records_keep_their_fields_in_order():
    # the records are NamedTuples: positions and defaults are part of the API
    records = {
        segtrees.Violation: (("kind", "missing", "extra"), {"missing": (), "extra": ()}),
        segtrees.VerificationReport: (("is_seg", "violations"), {}),
        segtrees.Labeling: (("tree", "slots", "induced"), {}),
        segtrees.Classification: (("spec", "status", "tag", "case", "params"), {}),
        segtrees.SearchResult: (("outcome", "nodes_visited", "count", "labeling"),
                                {"count": None, "labeling": None}),
    }
    for record, (fields, defaults) in records.items():
        assert (record._fields, record._field_defaults) == (fields, defaults), record
    # no default dict is shared: each classification has its own params
    spec = segtrees.parse_spec("RT(0,1,1)")
    assert segtrees.classify(spec).params is not segtrees.classify(spec).params
    # a count run's count field shadows tuple.count
    result = segtrees.search(segtrees.parse_spec("RT(1,1)"), segtrees.COUNT_ALL)
    assert result.count == 2 and result[2] == 2


def test_labeling_repr_shows_only_its_tree():
    lab = segtrees.label_any(segtrees.parse_spec("RT(0,2,4,6)"))
    assert repr(lab) == "Labeling(tree=TreeSpec(counts=(0, 2, 4, 6)))"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site (-S), so only what the package imports
    # shows; dataclasses pulls in inspect, ast, dis and tokenize at every start
    src = str(Path(segtrees.__file__).resolve().parent.parent)
    code = ("import sys, segtrees.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
