import leolab


def test_all_names_are_bound_and_unique():
    assert len(set(leolab.__all__)) == len(leolab.__all__)
    assert [n for n in leolab.__all__ if not hasattr(leolab, n)] == []
