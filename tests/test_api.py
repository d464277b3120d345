import segtrees


def test_all_names_resolve_once():
    names = segtrees.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(segtrees, name)]
    assert not missing
