"""The public API: the top-level names the README lists, and only those."""

import qrefine

# the 21 names, as the README's "Library" section groups them
README_NAMES = [
    "QrefineError", "ParseError", "DimensionMismatch", "IndexOutOfRange",
    "SingularMatrix", "TooLarge", "TooManyQubits",
    "LinearSystem", "RefinementConfig", "RefinementTrace", "IterationRecord", "refine",
    "AnnealConfig", "QuboMatrix", "SampleEntry", "SampleSet", "sample_anneal", "sample_exhaustive",
    "DyadicVector", "parse_problem", "condition_number",
]


def test_all_is_the_readme_list():
    assert sorted(qrefine.__all__) == sorted(README_NAMES)


def test_every_public_name_resolves():
    for name in qrefine.__all__:
        assert getattr(qrefine, name) is not None, name
