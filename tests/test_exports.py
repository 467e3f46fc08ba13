import schurweyl


def test_all_names_resolve():
    missing = [name for name in schurweyl.__all__ if not hasattr(schurweyl, name)]
    assert missing == []
    assert len(set(schurweyl.__all__)) == len(schurweyl.__all__)
