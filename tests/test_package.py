import sharpshift


def test_exports_are_sorted_unique_and_resolve():
    names = sharpshift.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(sharpshift, name)] == []
