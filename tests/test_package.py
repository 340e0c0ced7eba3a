import posturemap


def test_every_public_name_resolves():
    missing = [name for name in posturemap.__all__ if not hasattr(posturemap, name)]
    assert missing == []
    assert len(set(posturemap.__all__)) == len(posturemap.__all__)
