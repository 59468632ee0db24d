"""Problem document parsing: strictness and diagnostics."""

import json

import numpy as np
import pytest

from qrefine.errors import ParseError
from qrefine.problems import load_problem, parse_problem


GOOD = '{"a": [[2.0, 1.0], [1.0, 3.0]], "b": [3.0, -4.75], "x_true": [2.75, -2.5]}'


def test_parse_round_values():
    doc = parse_problem(GOOD)
    assert doc.a == ((2.0, 1.0), (1.0, 3.0))
    assert doc.b == (3.0, -4.75)
    assert doc.x_true == (2.75, -2.5)
    system = doc.system()
    assert system.a.shape == (2, 2)
    assert np.array_equal(system.b, np.array([3.0, -4.75]))


def test_truth_is_optional():
    doc = parse_problem('{"a": [[1.0]], "b": [5.0]}')
    assert doc.x_true is None


def test_explicit_null_truth():
    doc = parse_problem('{"a": [[1.0]], "b": [5.0], "x_true": null}')
    assert doc.x_true is None


def test_integer_entries_coerce_to_float():
    doc = parse_problem('{"a": [[2]], "b": [7]}')
    assert doc.a == ((2.0,),)
    assert isinstance(doc.a[0][0], float)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"b": [1.0]}', "'a'"),
        ('{"a": [[1.0]]}', "'b'"),
        ('{"a": [[1.0]], "b": [1.0], "bogus": 3}', "'bogus'"),
        ('{"a": [[1.0, 2.0]], "b": [1.0]}', "square"),
        ('{"a": [[1.0, 2.0], [3.0, 4.0]], "b": [1.0]}', "length 2"),
        ('{"a": [[1.0]], "b": [1.0], "x_true": [1.0, 2.0]}', "length 1"),
        ('{"a": [[true]], "b": [1.0]}', "'a'"),
        ('{"a": [[1.0]], "b": [NaN]}', "non-finite"),
        ('{"a": [[Infinity]], "b": [1.0]}', "non-finite"),
        ('{"a": [[1e400]], "b": [1.0]}', "non-finite"),
        ('{"a": [[1' + "0" * 400 + ']], "b": [1.0]}', "non-finite"),
        ('{"a": [["1.0"]], "b": [1.0]}', "numbers"),
        ('{"a": [], "b": []}', "non-empty"),
        ('{"a": [[1.0]], "b": "x"}', "'b'"),
        ('{"a": 3, "b": [1.0]}', "'a'"),
        ('{"a": [[1.0]], "b": [1.0], "b": [2.0]}', "duplicate"),
        ('[1, 2]', "object"),
        ('{"a": [[1.0]], "b": [1.0]', "JSON"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_problem(text)
    assert fragment in str(excinfo.value)


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(GOOD, encoding="utf-8")
    doc = load_problem(str(path))
    assert doc == parse_problem(GOOD)


def test_parse_accepts_json_dumps_roundtrip():
    original = {"a": [[1.5, 0.0], [0.0, -2.25]], "b": [0.75, 4.5]}
    doc = parse_problem(json.dumps(original))
    assert doc.a == ((1.5, 0.0), (0.0, -2.25))
    assert doc.b == (0.75, 4.5)
