"""The bulk cell check of the state-file parser: the same arrays, bit for
bit, as complex(re, im) per cell, and on any bad cell the message of the
per-cell pass, which names the first bad cell."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import ktangle as kt
from ktangle import statefile
from ktangle.statefile import parse_state_file

from conftest import TEXT_STYLES, amplitudes_json, document_text, haar_amplitudes

L4 = kt.qubit_layout(4)


def _cellwise(rows) -> np.ndarray:
    return np.array([[complex(c["re"], c["im"]) for c in row] for row in rows])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def no_fallback(monkeypatch):
    """Fails a test whose text reaches the whole-document route or whose
    cells reach the per-cell pass."""

    def refuse(route):
        def refused(*args):
            raise AssertionError(f"{route} ran")

        return refused

    monkeypatch.setattr(statefile, "_vector", refuse("the per-cell pass"))
    monkeypatch.setattr(statefile, "_parse_document", refuse("the whole-document route"))


def _pure4(rng) -> np.ndarray:
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return v / np.linalg.norm(v)


def _rho4(rng) -> np.ndarray:
    X = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    rho = X @ X.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


# (name, cell or None for a short row, message after the cell's name)
BAD_CELLS = [
    ("bool", {"re": True, "im": 0.0}, " re/im must be numbers"),
    ("string", {"re": 0.25, "im": "0"}, " re/im must be numbers"),
    ("missing-key", {"re": 0.25}, " must be an object with re and im fields"),
    ("extra-key", {"re": 0.25, "im": 0.0, "x": 1}, " must be an object with re and im fields"),
    ("non-dict", [0.25, 0.0], " must be an object with re and im fields"),
    ("short-row", None, None),
    ("nan", {"re": 0.25, "im": float("nan")}, " re/im must be finite (got re=0.25, im=nan)"),
    ("infinity", {"re": float("inf"), "im": 0.0}, " re/im must be finite (got re=inf, im=0.0)"),
    ("huge-int", {"re": 0.25, "im": 10**400}, f" re/im must be finite (got re=0.25, im={10**400})"),
]


def _with_bad_cell(payload: str, cell, rng, second: bool):
    """A 4-qubit document of the payload with the cell placed deep inside
    (or its row cut short), and a later bad cell too if second, and the name
    of the first bad cell or short row."""
    if payload == "matrix":
        rows = [amplitudes_json(row) for row in _rho4(rng)]
        row, where, at, later = rows[11], "matrix[11]", 13, rows[14]
        doc = {"dims": list(L4.dims), "matrix": rows}
    elif payload == "ensemble":
        members = [{"p": p, "amplitudes": amplitudes_json(_pure4(rng))} for p in (0.5, 0.25, 0.25)]
        row, where, at = members[1]["amplitudes"], "ensemble[1].amplitudes", 9
        later = members[2]["amplitudes"]
        doc = {"dims": list(L4.dims), "ensemble": members}
    else:
        row, where, at = amplitudes_json(_pure4(rng)), "amplitudes", 13
        later = row
        doc = {"dims": list(L4.dims), "amplitudes": row}
    if second:
        later[15] = {"re": False, "im": 0.0}
    if cell is None:
        del row[at:]
        return doc, f"{where} must be a list of 16 complex entries"
    row[at] = cell
    return doc, f"{where}[{at}]"


@pytest.mark.parametrize("second", [False, True], ids=["alone", "first-of-two"])
@pytest.mark.parametrize("payload", ["amplitudes", "matrix", "ensemble"])
@pytest.mark.parametrize("name, cell, message", BAD_CELLS, ids=[c[0] for c in BAD_CELLS])
def test_a_bad_cell_gets_the_per_cell_message(payload, name, cell, message, second):
    doc, where = _with_bad_cell(payload, cell, np.random.default_rng(len(name)), second)
    with pytest.raises(kt.ParseError) as exc:
        parse_state_file(json.dumps(doc))
    assert str(exc.value) == where + (message or "")


# layouts of each payload: qubits, and a qudit layout
VALID_LAYOUTS = {
    "amplitudes": [(2,) * n for n in range(1, 10)] + [(2, 3, 2)],
    "matrix": [(2,) * n for n in range(1, 5)] + [(2, 3, 2)],
    "ensemble": [(2,) * n for n in range(1, 5)] + [(2, 3, 2)],
}


@pytest.mark.parametrize("payload", ["amplitudes", "matrix", "ensemble"])
def test_valid_files_take_the_bulk_check(payload, no_fallback):
    # every text layout, with keys reordered, unknown and repeated keys
    rng = np.random.default_rng(5)
    for dims, style in itertools.product(VALID_LAYOUTS[payload], TEXT_STYLES.values()):
        if payload == "matrix":
            X = np.stack([haar_amplitudes(dims, rng) for _ in range(3)], axis=1) / np.sqrt(3)
            want = X @ X.conj().T
            value = [amplitudes_json(row) for row in want]
        elif payload == "ensemble":
            want = np.stack([haar_amplitudes(dims, rng) for _ in range(3)])
            value = [{"p": p, "amplitudes": amplitudes_json(v)} for p, v in zip((0.5, 0.25, 0.25), want)]
        else:
            want = haar_amplitudes(dims, rng)
            value = amplitudes_json(want)
        pairs = [("note", {"by": [1, None]}), (payload, value[::-1]), ("dims", [5]),
                 (payload, value), ("dims", list(dims))]
        obj = parse_state_file(document_text(pairs, **style))
        if payload == "matrix":
            assert np.array_equal(_bits(obj.matrix), _bits(want))
        elif payload == "ensemble":
            for (_, psi), v in zip(obj.members, want):
                assert np.array_equal(_bits(psi.amplitudes), _bits(v))
        else:
            assert np.array_equal(_bits(obj.amplitudes), _bits(want))


EDGE_VALUES = [0, 1, -3, 2**53 + 1, 2**63 + 1, -(2**64) - 3, 10**300 + 7, 2**1023,
               0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
               0.1, 1.7976931348623157e308]


def test_bulk_cells_equal_complex_per_cell_bit_for_bit(no_fallback):
    rng = np.random.default_rng(9)
    n = 8
    rows = [[{"re": EDGE_VALUES[int(i)], "im": EDGE_VALUES[int(j)]}
             for i, j in rng.integers(len(EDGE_VALUES), size=(n, 2))] for _ in range(40)]
    # a column of ints alone converts through an integer array
    ints = [v for v in EDGE_VALUES if type(v) is int]
    rows.append([{"re": v, "im": -v} for v in ints[:n]])
    rows = json.loads(json.dumps(rows))  # the types json.loads gives
    got = statefile._complex_rows(rows, n, "x[{}]")
    want = _cellwise(rows)
    assert got.shape == want.shape == (41, n)
    assert np.array_equal(_bits(got), _bits(want))


def test_parsed_edge_cells_equal_complex_per_cell(no_fallback):
    # int cells, -0.0 and subnormals in states the constructors accept
    amps = [{"re": 1, "im": 0}, {"re": -0.0, "im": 5e-324},
            {"re": 2.2250738585072014e-308 / 3, "im": -0.0}, {"re": 0, "im": -5e-324}]
    psi = parse_state_file(json.dumps({"dims": [2, 2], "amplitudes": amps}))
    assert np.array_equal(_bits(psi.amplitudes), _bits(_cellwise([amps])[0]))
    rows = [[{"re": 0, "im": 0} for _ in range(4)] for _ in range(4)]
    rows[0][0], rows[3][3] = {"re": 1, "im": 0}, {"re": 0, "im": -0.0}
    rows[1][2], rows[2][1] = {"re": 5e-324, "im": -5e-324}, {"re": 5e-324, "im": 5e-324}
    rho = parse_state_file(json.dumps({"dims": [2, 2], "matrix": rows}))
    assert np.array_equal(_bits(rho.matrix), _bits(_cellwise(rows)))


def _peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_parse_peaks_no_higher_than_per_cell(monkeypatch):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
    rho = X @ X.conj().T
    rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
    rows = [amplitudes_json(row) for row in rho]
    text = json.dumps({"dims": [2] * 7, "matrix": rows})
    rows = json.loads(json.dumps(rows))
    # the whole file, and the cell pass alone over rows already loaded
    bulk = _peak(parse_state_file, text), _peak(statefile._complex_rows, rows, 128, "matrix[{}]")
    monkeypatch.setattr(statefile, "_bulk_cells", lambda rows, n: None)
    cellwise = _peak(parse_state_file, text), _peak(statefile._complex_rows, rows, 128, "matrix[{}]")
    assert bulk[0] <= cellwise[0] and bulk[1] <= cellwise[1], (bulk, cellwise)


def _cells_text(vec) -> str:
    # as perfbench writes a state file: repr of each float, ", " between cells
    return ", ".join('{"re": %r, "im": %r}' % (z.real, z.imag) for z in vec.tolist())


@pytest.mark.parametrize("payload", ["matrix", "ensemble"])
def test_an_8_qubit_file_parses_within_4_mib(payload):
    # the file holds 3.6-3.8 MiB of text; one dict per cell of it took 18 MiB
    rng = np.random.default_rng(8)
    states = [haar_amplitudes((2,) * 8, rng) for _ in range(3 if payload == "matrix" else 256)]
    probs = rng.dirichlet(np.ones(len(states)))
    if payload == "matrix":
        X = np.stack(states, axis=1) * np.sqrt(probs)
        rho = X @ X.conj().T
        rho = (rho + rho.conj().T) / 2
        body = '"matrix": [%s]' % ", ".join("[%s]" % _cells_text(row) for row in rho)
    else:
        body = '"ensemble": [%s]' % ", ".join(
            '{"p": %r, "amplitudes": [%s]}' % (p, _cells_text(v)) for p, v in zip(probs.tolist(), states))
    text = '{"dims": [%s], %s}\n' % (", ".join(["2"] * 8), body)
    assert len(text) > 3.5 * 2**20
    assert _peak(parse_state_file, text) <= 4 * 2**20


def _ensemble3(rng) -> list:
    return [{"p": p, "amplitudes": amplitudes_json(_pure4(rng))} for p in (0.5, 0.25, 0.25)]


def test_an_ensemble_takes_one_bulk_call(monkeypatch, no_fallback):
    calls = []

    def counted(rows, n, _bulk=statefile._bulk_cells):
        calls.append(len(rows))
        return _bulk(rows, n)

    monkeypatch.setattr(statefile, "_bulk_cells", counted)
    doc = {"dims": list(L4.dims), "ensemble": _ensemble3(np.random.default_rng(3))}
    parse_state_file(json.dumps(doc))
    assert calls == [3]


def test_an_ensemble_raises_the_error_of_its_first_bad_member():
    # the members are parsed in file order: member 1's bad cell before
    # member 2's bad p, and member 0's bad norm before member 1's bad cell
    members = _ensemble3(np.random.default_rng(3))
    members[1]["amplitudes"][6] = {"re": 0.1, "im": "x"}
    members[2]["p"] = float("nan")
    with pytest.raises(kt.ParseError) as exc:
        parse_state_file(json.dumps({"dims": list(L4.dims), "ensemble": members}))
    assert str(exc.value) == "ensemble[1].amplitudes[6] re/im must be numbers"
    members[0]["amplitudes"][0] = {"re": 3.0, "im": 0.0}
    with pytest.raises(kt.ValidationError, match="^state norm = "):
        parse_state_file(json.dumps({"dims": list(L4.dims), "ensemble": members}))
