"""The public API: the top-level names the README lists, and only those."""

import ast
from pathlib import Path

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


def test_no_unused_imports():
    # every name a src/qrefine module imports is read somewhere in it, in
    # code or an annotation, or re-exported through __all__
    unused = []
    for path in sorted(Path(qrefine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused
