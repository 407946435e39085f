import privsynth


def test_all_is_unique_sorted_and_resolves():
    names = privsynth.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(privsynth, name)] == []
