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


def _reads(node: ast.AST, modules: set[str]) -> set[str]:
    """Names node reads: bare names, and attributes of a qrefine module
    (qubo.energy)."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
            reads.add(sub.attr)
    return reads


def test_every_public_definition_has_a_caller():
    # a public top-level function or class of src/qrefine is exported, or
    # read by name somewhere in src/qrefine or scripts/ outside its own
    # definition; qubo.parse, the README's interchange reader, is the one
    # exception. Code only the tests call belongs in tests/helpers.py.
    package = Path(qrefine.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} | {"qrefine"}
    sources = sorted(package.glob("*.py")) + sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))
    defined, reads = [], set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.parent == package and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
                # a definition's reads of itself (recursion) do not count
                reads |= _reads(node, modules) - {node.name}
            else:
                reads |= _reads(node, modules)
    uncalled = [f"{module}.{name}" for module, name in defined
                if name not in qrefine.__all__ and name not in reads and (module, name) != ("qubo", "parse")]
    assert not uncalled


def test_every_lru_cache_has_an_integer_maxsize():
    # every lru_cache in src/qrefine is called with an explicit integer
    # maxsize, as a decorator or in call form (_power_of_five); a bare
    # @lru_cache or maxsize=None would grow without bound
    unbounded = []
    for path in sorted(Path(qrefine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bounded = {
            id(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg == "maxsize" and isinstance(kw.value, ast.Constant) and type(kw.value.value) is int
        }
        unbounded += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (getattr(node, "id", None) == "lru_cache" or getattr(node, "attr", None) == "lru_cache")
            and id(node) not in bounded
        ]
    assert not unbounded
