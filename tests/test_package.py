import plumecpd


def test_all_is_sorted_unique_and_resolves():
    names = plumecpd.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(plumecpd, name)]
    assert missing == []
