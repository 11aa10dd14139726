import centering

REMOVED = ("CandidateSet", "CorpusNp", "EntityKind", "build_candidates", "collect_pronouns")


def test_every_exported_name_resolves():
    assert len(set(centering.__all__)) == len(centering.__all__)
    for name in centering.__all__:
        assert getattr(centering, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in centering.__all__
        assert not hasattr(centering, name), name
