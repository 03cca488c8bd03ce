import json
import math
import re

import numpy as np
import pytest

import ktangle as kt
from ktangle.statefile import parse_state_file

from ktangle.cli import main

from conftest import amplitudes_json


def test_parse_pure_state_roundtrip():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    doc = {"dims": [2, 2, 2], "amplitudes": amplitudes_json(v)}
    obj = parse_state_file(json.dumps(doc))
    assert isinstance(obj, kt.PureState)
    assert obj.layout.dims == (2, 2, 2)
    assert np.abs(obj.amplitudes - v).max() < 1e-15


def test_parse_matrix_and_ensemble():
    m = np.diag([0.5, 0.5, 0.0, 0.0])
    doc = {
        "dims": [2, 2],
        "matrix": [[{"re": float(x.real), "im": 0.0} for x in row] for row in m],
    }
    rho = parse_state_file(json.dumps(doc))
    assert isinstance(rho, kt.DensityOperator)

    v = np.zeros(4)
    v[0] = 1.0
    doc = {"dims": [2, 2], "ensemble": [{"p": 1.0, "amplitudes": amplitudes_json(v)}]}
    ens = parse_state_file(json.dumps(doc))
    assert isinstance(ens, kt.Ensemble)
    assert len(ens.members) == 1


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",                                  # top level not an object
        '{"amplitudes": []}',                      # dims missing
        '{"dims": [2, true], "amplitudes": []}',   # bool is not a dimension
        '{"dims": [2, 1], "amplitudes": []}',      # dimension below 2
        '{"dims": []}',                            # empty dims
        '{"dims": [2, 2]}',                        # no payload
        '{"dims": [2], "amplitudes": [{"re": 1.0, "im": 0.0, "x": 1}, {"re": 0, "im": 0}]}',
        '{"dims": [2], "amplitudes": [{"re": "1", "im": 0}, {"re": 0, "im": 0}]}',
        '{"dims": [2], "amplitudes": [{"re": 1, "im": 0}]}',  # wrong length
        '{"dims": [2, 2], "matrix": [[]]}',        # wrong row count
        '{"dims": [2, 2], "ensemble": []}',        # empty ensemble
        '{"dims": [2, 2], "ensemble": [{"p": true, "amplitudes": []}]}',
        '{"dims": [2, 2], "ensemble": [{"amplitudes": []}]}',
    ],
)
def test_parse_rejects_bad_schema(text):
    with pytest.raises(kt.ParseError):
        parse_state_file(text)


def test_parse_error_is_value_error():
    # callers treating schema problems as input errors can catch ValueError
    assert issubclass(kt.ParseError, ValueError)


def test_parse_propagates_state_validation():
    v = np.zeros(4)
    v[0] = 0.5  # not normalized
    doc = {"dims": [2, 2], "amplitudes": amplitudes_json(v)}
    with pytest.raises(kt.ValidationError):
        parse_state_file(json.dumps(doc))


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize("payload", ["amplitudes", "matrix", "ensemble"])
def test_parse_rejects_non_finite_entries(bad, payload):
    v = np.zeros(4)
    v[0] = 1.0
    cells = amplitudes_json(v)
    cells[1]["im"] = bad
    if payload == "amplitudes":
        doc, where = {"dims": [2, 2], "amplitudes": cells}, "amplitudes[1]"
    elif payload == "matrix":
        rows = [amplitudes_json(row) for row in np.eye(4) / 4]
        rows[2][1] = cells[1]
        doc, where = {"dims": [2, 2], "matrix": rows}, "matrix[2][1]"
    else:
        doc, where = {"dims": [2, 2], "ensemble": [{"p": 1.0, "amplitudes": cells}]}, \
            "ensemble[0].amplitudes[1]"
    with pytest.raises(kt.ParseError, match=re.escape(where) + " re/im must be finite"):
        parse_state_file(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_parse_rejects_non_finite_probability(bad):
    v = np.zeros(4)
    v[0] = 1.0
    doc = {"dims": [2, 2], "ensemble": [{"p": bad, "amplitudes": amplitudes_json(v)}]}
    with pytest.raises(kt.ParseError, match=r"ensemble\[0\]\.p must be a finite number"):
        parse_state_file(json.dumps(doc))


@pytest.mark.parametrize("payload", ["amplitudes", "matrix", "ensemble"])
def test_parse_rejects_boolean_entries(payload, write_state, capsys):
    # JSON true/false are not numbers, although Python's bool is an int
    v = np.zeros(4)
    v[0] = 1.0
    cells = amplitudes_json(v)
    cells[0] = {"re": True, "im": False}
    if payload == "amplitudes":
        doc, where = {"dims": [2, 2], "amplitudes": cells}, "amplitudes[0]"
    elif payload == "matrix":
        rows = [amplitudes_json(row) for row in np.diag([1.0, 0.0, 0.0, 0.0])]
        rows[0][0] = cells[0]
        doc, where = {"dims": [2, 2], "matrix": rows}, "matrix[0][0]"
    else:
        doc, where = {"dims": [2, 2], "ensemble": [{"p": 1.0, "amplitudes": cells}]}, \
            "ensemble[0].amplitudes[0]"
    with pytest.raises(kt.ParseError, match=re.escape(where) + " re/im must be numbers"):
        parse_state_file(json.dumps(doc))
    rc = main(["analyze", write_state("bool.json", doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("parse error:") and where in captured.err


def test_parse_matrix_as_documented():
    # the README's form: "matrix" holds a list of rows of {re, im} cells
    text = """{"dims": [2, 2], "matrix": [
        [{"re": 0.5, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0.5, "im": 0}],
        [{"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}],
        [{"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}],
        [{"re": 0.5, "im": 0}, {"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0.5, "im": 0}]
    ]}"""
    rho = parse_state_file(text)
    assert isinstance(rho, kt.DensityOperator)
    assert rho.layout.dims == (2, 2)
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
    assert np.array_equal(rho.matrix, want)


@pytest.mark.parametrize("defect", [0.0, 1e-13, 1e-11])
def test_parse_matrix_keeps_the_hermitian_part(defect):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    m = X @ X.conj().T
    m = (m + m.conj().T) / (2 * np.trace(m).real)
    m[1, 2] += defect
    doc = {"dims": [2, 2, 2], "matrix": [amplitudes_json(row) for row in m]}
    got = parse_state_file(json.dumps(doc)).matrix
    assert np.array_equal(got, got.conj().T)
    if defect == 0.0:
        # an exactly Hermitian file is kept bit for bit
        assert np.array_equal(got, m)
    else:
        assert np.abs(got - m).max() == pytest.approx(defect / 2, rel=1e-3)


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deeply_nested_file_is_a_parse_error(tmp_path, capsys, depth):
    # json.loads raises RecursionError past the interpreter's limit; a file
    # of about 2 KB reaches it at 1000 levels
    text = '{"dims": [2], "amplitudes": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(kt.ParseError, match="nested too deeply"):
        parse_state_file(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
