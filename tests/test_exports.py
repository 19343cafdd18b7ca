import pbsgame


def test_every_export_resolves():
    # a name deleted from its module but left in __all__ fails here
    missing = [name for name in pbsgame.__all__ if not hasattr(pbsgame, name)]
    assert missing == []
    assert len(set(pbsgame.__all__)) == len(pbsgame.__all__)
