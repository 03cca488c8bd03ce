"""The state-file scanner against the whole-document route: on any text,
the same state bit for bit or the same exception and message."""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ktangle as kt
from ktangle import statefile
from ktangle.cli import main
from ktangle.statefile import parse_state_file

from conftest import TEXT_STYLES, amplitudes_json, document_text, haar_amplitudes

PAYLOADS = ("amplitudes", "matrix", "ensemble")
LAYOUTS = [(2,), (2, 2), (2, 2, 2)]
UNKNOWN = [("note", "rank 2"), ("meta", {"source": [1, 2.5, None, True], "x": {}}), ("v", 3)]
CELL_FAULTS = {
    "bool": {"re": True, "im": 0.0},
    "nan": {"re": 0.5, "im": float("nan")},
    "string": {"re": "0.5", "im": 0.0},
    "missing-key": {"re": 0.5},
    "extra-key": {"re": 0.5, "im": 0.0, "x": 0},
    # written as an integer literal past the interpreter's digit limit
    "long-int": {"re": 0, "im": "LONG"},
}
TEXT_FAULTS = ("short-row", "trailing", "bom", "truncated")
LONG = "7" * (sys.get_int_max_str_digits() + 1)


def _payload(kind: str, dims, rng):
    """The JSON value of a valid payload of the kind on the layout."""
    if kind == "amplitudes":
        return amplitudes_json(haar_amplitudes(dims, rng))
    if kind == "matrix":
        X = np.stack([haar_amplitudes(dims, rng) for _ in range(2)], axis=1) * np.sqrt([0.75, 0.25])
        return [amplitudes_json(row) for row in X @ X.conj().T]
    probs = rng.dirichlet(np.ones(3))
    return [{"p": float(p), "amplitudes": amplitudes_json(haar_amplitudes(dims, rng))} for p in probs]


def _rows(kind: str, value) -> list:
    if kind == "amplitudes":
        return [value]
    if kind == "matrix":
        return value
    return [member["amplitudes"] for member in value]


@st.composite
def documents(draw):
    """(text, fault) of a state file at 1-3 qubits: any whitespace, key
    order, unknown and repeated keys, and at most one fault."""
    dims = draw(st.sampled_from(LAYOUTS))
    kind = draw(st.sampled_from(PAYLOADS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = _payload(kind, dims, rng)
    pairs = [("dims", list(dims)), (kind, value)]
    if draw(st.booleans()):
        pairs.reverse()
    for key, unknown in draw(st.lists(st.sampled_from(UNKNOWN), max_size=2)):
        pairs.insert(draw(st.integers(0, len(pairs))), (key, unknown))
    # an earlier value of a repeated key, which the last value replaces
    repeated = draw(st.sampled_from([None, "dims", kind]))
    if repeated == "dims":
        pairs.insert(0, ("dims", [3, 3]))
    elif repeated:
        pairs.insert(0, (kind, _payload(kind, dims, rng)))
    fault = draw(st.sampled_from([None, *CELL_FAULTS, *TEXT_FAULTS]))
    rows = _rows(kind, value)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if fault in CELL_FAULTS:
        row[draw(st.integers(0, len(row) - 1))] = CELL_FAULTS[fault]
    elif fault == "short-row":
        del row[-1]
    text = document_text(pairs, **TEXT_STYLES[draw(st.sampled_from(sorted(TEXT_STYLES)))])
    text = text.replace('"LONG"', LONG)
    if fault == "trailing":
        text += draw(st.sampled_from(["x", "{}", ",", "]"]))
    elif fault == "bom":
        text = "\ufeff" + text
    elif fault == "truncated":
        text = text[: draw(st.integers(1, len(text) - 2))]
    return text, fault


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def _outcome(parse, text):
    try:
        obj = parse(text)
    except Exception as exc:  # the exception of each route is compared, whatever its type
        return type(exc), str(exc)
    if isinstance(obj, kt.PureState):
        return obj.layout, _bits(obj.amplitudes)
    if isinstance(obj, kt.DensityOperator):
        return obj.layout, _bits(obj.matrix)
    return [(p, psi.layout, _bits(psi.amplitudes)) for p, psi in obj.members]


@settings(max_examples=400)
@given(documents())
def test_the_scanner_and_the_whole_document_route_agree(doc):
    text, fault = doc
    assert _outcome(parse_state_file, text) == _outcome(statefile._parse_document, text)
    if fault is None:
        assert statefile._scan(text) is not None


@pytest.mark.parametrize("where", ["cell", "dims", "p"])
def test_an_integer_past_the_digit_limit_is_a_parse_error(where, tmp_path, capsys):
    cell, dims, p = '{"re": 1, "im": 0}', "2", "1"
    if where == "cell":
        cell = '{"re": 1, "im": %s}' % LONG
    elif where == "dims":
        dims = LONG
    else:
        p = LONG
    text = '{"dims": [%s], "ensemble": [{"p": %s, "amplitudes": [%s, %s]}]}' % (dims, p, cell, cell)
    for parse in (parse_state_file, statefile._parse_document):
        with pytest.raises(kt.ParseError, match="^number not readable: Exceeds the limit"):
            parse(text)
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: number not readable: Exceeds the limit")


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dims": [2], "note": "\xff", "amplitudes": []}')
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 23: "
        "invalid start byte\n"
    )


def _pure_doc(**extra) -> dict:
    return {"dims": [2], **extra, "amplitudes": amplitudes_json([0.6, 0.8j])}


def test_an_unknown_key_nested_deep_is_left_to_the_whole_document_route():
    deep = {"k": 1}
    for _ in range(statefile._SCAN_DEPTH):
        deep = [deep]
    text = json.dumps(_pure_doc(meta=deep))
    assert statefile._scan(text) is None
    assert _outcome(parse_state_file, text) == _outcome(statefile._parse_document, text)
    assert statefile._scan(json.dumps(_pure_doc(meta=deep[0]))) is not None


def _nested(depth: int) -> str:
    return '{"dims": [2], "meta": %s1%s, "amplitudes": [{"re": 1, "im": 0}, {"re": 0, "im": 0}]}' % (
        "[" * depth, "]" * depth)


def test_an_unknown_key_nested_near_the_recursion_limit_gets_the_same_outcome(monkeypatch):
    # json.loads reaches the limit a few levels before a scanner that read
    # such a value whole would; at every depth around it, the outcome is
    # that of the whole-document route called where the scanner's result is
    def nests(depth):
        try:
            json.loads(_nested(depth))
        except RecursionError:
            return False
        return True

    parses, fails = 1, 2
    while nests(fails):
        parses, fails = fails, 2 * fails
    while fails - parses > 1:  # the first depth json.loads cannot nest, called from here
        mid = (parses + fails) // 2
        parses, fails = (mid, fails) if nests(mid) else (parses, mid)
    texts = [_nested(depth) for depth in range(max(1, fails - 300), fails + 10)]
    scanned = [_outcome(parse_state_file, text) for text in texts]
    monkeypatch.setattr(statefile, "_scan", lambda text: None)
    assert [_outcome(parse_state_file, text) for text in texts] == scanned
    # the range holds depths that parse and depths that do not
    assert {o == (kt.ParseError, "nested too deeply") for o in scanned} == {True, False}


def test_an_unknown_key_nested_past_the_limit_is_a_parse_error():
    text = '{"dims": [2], "meta": %s1%s, "amplitudes": []}' % ("[" * 100_000, "]" * 100_000)
    with pytest.raises(kt.ParseError, match="^nested too deeply$"):
        parse_state_file(text)


def test_a_long_first_row_allocates_no_matrix_of_its_length():
    # a row of n cells would make an n x n matrix; the text cannot hold one
    row = [{"re": 0, "im": 0}] * 4096
    text = json.dumps({"dims": [2], "matrix": [row]}, separators=(",", ":"))
    tracemalloc.start()
    try:
        with pytest.raises(kt.ParseError, match=r"^matrix must be a list of 2 rows$"):
            parse_state_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
