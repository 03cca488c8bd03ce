"""State-file ingestion.

A state file is a JSON object with integer dims plus exactly one payload:
amplitudes (pure state), matrix (density operator, row-major), or ensemble
(list of {p, amplitudes}).  Complex numbers are {re, im} objects.  Amplitude
index k follows the flat layout convention (last subsystem fastest).

The text is read by a scanner built from the json module's own pieces
(JSONDecoder().scan_once, json.decoder.scanstring and JSON whitespace): it
walks the top-level object key by key, keeping the last value of a repeated
key as json.loads does, and reads a payload one row at a time.  A row is a
matrix row, an ensemble member's amplitude list, or the whole amplitude
list.  Rows are gathered into blocks of about STATEFILE_BLOCK_CELLS cells
(config.py), and each block is checked in bulk (_bulk_cells): every row a
list of the layout's length, every cell a dict with exactly the keys re and
im, every value an int or a float (not a bool), the values filled into one
float64 array and tested with np.isfinite.  A matrix block is written
straight into the preallocated matrix, so the dicts of one block of cells
are alive at a time, not one dict per cell of the whole file.

The scanner returns a state only when json.loads accepts the text and every
check passes.  Otherwise the whole-document route runs (_parse_document):
json.loads, then the same bulk check, and on a failure the per-cell pass
(_vector), which raises the ParseError that names the first bad cell, so a
message does not depend on which route or pass found the fault.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re

import numpy as np

from .config import STATEFILE_BLOCK_CELLS
from .core import DensityOperator, PureState, SubsystemLayout
from .roof import Ensemble


class ParseError(ValueError):
    """Malformed state-file text or schema."""


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _complex_node(node, where: str) -> complex:
    if not isinstance(node, dict) or set(node.keys()) != {"re", "im"}:
        raise ParseError(f"{where} must be an object with re and im fields")
    re, im = node["re"], node["im"]
    # a type test, not isinstance: JSON true/false load as bool, a subclass of int
    if type(re) not in (int, float) or type(im) not in (int, float):
        raise ParseError(f"{where} re/im must be numbers")
    if not (_finite(re) and _finite(im)):
        raise ParseError(f"{where} re/im must be finite (got re={re}, im={im})")
    return complex(re, im)


def _vector(nodes, n: int, where: str) -> list:
    if not isinstance(nodes, list) or len(nodes) != n:
        raise ParseError(f"{where} must be a list of {n} complex entries")
    return [_complex_node(z, f"{where}[{i}]") for i, z in enumerate(nodes)]


_RE, _IM = operator.itemgetter("re"), operator.itemgetter("im")


def _bulk_cells(rows: list, n: int):
    """The (len(rows), n) complex array of rows of n valid {re, im} cells,
    bit for bit complex(re, im) per cell, or None if any row or cell fails a
    check of _complex_node."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
        return None
    cells = list(itertools.chain.from_iterable(rows))
    try:
        real, imag = list(map(_RE, cells)), list(map(_IM, cells))
    except (KeyError, TypeError):  # of the JSON types only a dict takes a str key
        return None
    # a dict of two entries that holds re and im has no other key
    if set(map(len, cells)) != {2}:
        return None
    # a type test, as in _complex_node: bool is a subclass of int
    if not set(map(type, real)) | set(map(type, imag)) <= {int, float}:
        return None
    out = np.empty((len(cells), 2))
    try:
        # an int converts as complex() converts it, correctly rounded
        out[:, 0], out[:, 1] = real, imag
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(out).all():
        return None
    return out.view(complex).reshape(len(rows), n)


def _complex_rows(rows: list, n: int, where: str) -> np.ndarray:
    """The (len(rows), n) complex array of a list of rows of n {re, im}
    cells, checked in bulk (_bulk_cells).  Otherwise the per-cell pass raises
    the ParseError of the first bad cell, with row i named where.format(i)."""
    out = _bulk_cells(rows, n)
    if out is None:
        out = np.array([_vector(row, n, where.format(i)) for i, row in enumerate(rows)])
    return out


def _member(i: int, node) -> tuple:
    """The p and the amplitude list of ensemble member i, its node checked."""
    if not isinstance(node, dict) or "p" not in node or "amplitudes" not in node:
        raise ParseError(f"ensemble[{i}] must be an object with p and amplitudes")
    p = node["p"]
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not _finite(p):
        raise ParseError(f"ensemble[{i}].p must be a finite number")
    return float(p), node["amplitudes"]


def _valid_dims(dims) -> bool:
    return (
        isinstance(dims, list)
        and bool(dims)
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 2 for d in dims)
    )


def _parse_document(text: str):
    """The whole-document route: json.loads, then the checks of each part in
    file order, raising the ParseError of the first fault."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not well-formed: {exc}") from None
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise ParseError(f"number not readable: {exc}") from None
    except RecursionError:  # arrays or objects nested past the interpreter's limit
        raise ParseError("nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    dims = doc.get("dims")
    if not _valid_dims(dims):
        raise ParseError("dims must be a nonempty list of integers >= 2")
    layout = SubsystemLayout(tuple(dims))
    n = layout.total_dim

    present = [k for k in ("amplitudes", "matrix", "ensemble") if k in doc]
    if len(present) != 1:
        raise ParseError(
            f"exactly one of amplitudes, matrix, ensemble is required (found {present or 'none'})"
        )
    kind = present[0]

    if kind == "amplitudes":
        return PureState(layout, _complex_rows([doc["amplitudes"]], n, "amplitudes")[0])

    if kind == "matrix":
        rows = doc["matrix"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f"matrix must be a list of {n} rows")
        return DensityOperator(layout, _complex_rows(rows, n, "matrix[{}]"))

    members = doc["ensemble"]
    if not isinstance(members, list) or not members:
        raise ParseError("ensemble must be a nonempty list of {p, amplitudes} objects")
    try:
        probs, rows = zip(*(_member(i, node) for i, node in enumerate(members)))
        amps = _complex_rows(list(rows), n, "ensemble[{}].amplitudes")
    except ParseError:
        # again member by member, so the error raised is the first in file order
        for i, node in enumerate(members):
            row = _member(i, node)[1]
            PureState(layout, _complex_rows([row], n, f"ensemble[{i}].amplitudes")[0])
        raise
    return Ensemble(members=tuple((p, PureState(layout, a)) for p, a in zip(probs, amps)))


# ---------------------------------------------------------------- scanner


class _Fallback(ValueError):
    """The scanner leaves the text to the whole-document route."""


_WS = json.decoder.WHITESPACE.match
_SCAN = json.JSONDecoder().scan_once
_STRING = json.decoder.scanstring

# Values of unknown keys, which the scanner reads whole, nest at most this
# deep.  Near the interpreter's limit json.loads raises RecursionError a few
# levels sooner than a scan_once call made from here would, so a deeper
# value is left to the whole-document route.
_SCAN_DEPTH = 64

# The shortest cell, {"re":0,"im":0}, takes 15 characters: a matrix of n
# rows of n cells is only allocated when the text can hold it.
_MIN_CELL_CHARS = 15

# After a value: a comma and the whitespace after it, or a closing bracket.
_NEXT = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|([\]}]))").match
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match


class _Cursor:
    """A read position in a JSON text, moved as json.JSONDecoder moves it."""

    def __init__(self, text: str):
        self.text, self.i = text, _WS(text, 0).end()

    def value(self):
        try:
            node, self.i = _SCAN(self.text, self.i)
        except StopIteration:  # no value here; raised in a generator it would be a RuntimeError
            raise _Fallback from None
        return node

    def key(self) -> str:
        """Reads an object key and its colon; the cursor is left at the value."""
        if not self.text.startswith('"', self.i):
            raise _Fallback
        key, i = _STRING(self.text, self.i + 1)
        colon = _COLON(self.text, i)
        if colon is None:
            raise _Fallback
        self.i = colon.end()
        return key

    def items(self, open_: str, close: str):
        """Reads an array or object: yields once with the cursor at each
        element or key, which the caller reads, and ends past close."""
        text = self.text
        if not text.startswith(open_, self.i):
            raise _Fallback
        self.i = _WS(text, self.i + 1).end()
        if text.startswith(close, self.i):
            self.i += 1
            return
        while True:
            yield
            after = _NEXT(text, self.i)
            if after is None:
                raise _Fallback
            self.i = after.end()
            if after[1]:
                if after[1] != close:
                    raise _Fallback
                return

    def done(self) -> bool:
        return _WS(self.text, self.i).end() == len(self.text)


def _shallow(node) -> bool:
    """Whether node nests lists and dicts at most _SCAN_DEPTH deep."""
    level = [node]
    for _ in range(_SCAN_DEPTH + 1):
        level = [x for x in level if type(x) in (list, dict)]
        if not level:
            return True
        level = [v for x in level for v in (x.values() if type(x) is dict else x)]
    return False


def _blocks(cur: _Cursor, row_of):
    """The rows of the JSON array at the cursor, as complex arrays of
    max(1, STATEFILE_BLOCK_CELLS // n) rows of n cells each, n the length
    of the first row; row_of(i, element) gives element i's list of cells.
    Only one block's elements are held at a time."""
    rows, n, per_block = [], 0, 0
    for i, _ in enumerate(cur.items("[", "]")):
        rows.append(row_of(i, cur.value()))
        if not n:
            if type(rows[0]) is not list or not rows[0]:
                raise _Fallback
            n = len(rows[0])
            per_block = max(1, STATEFILE_BLOCK_CELLS // n)
        if len(rows) == per_block:
            yield _block(rows, n)
            rows = []
    if rows:
        yield _block(rows, n)


def _block(rows: list, n: int) -> np.ndarray:
    out = _bulk_cells(rows, n)
    if out is None:
        raise _Fallback
    return out


def _scan_amplitudes(cur: _Cursor) -> np.ndarray:
    row = cur.value()
    if type(row) is not list:
        raise _Fallback
    return _block([row], len(row))[0]


def _scan_matrix(cur: _Cursor) -> np.ndarray:
    out, filled = None, 0
    for block in _blocks(cur, lambda i, row: row):
        if out is None:
            n = block.shape[1]
            if _MIN_CELL_CHARS * n * n > len(cur.text):
                raise _Fallback
            out = np.empty((n, n), dtype=complex)
        if filled + len(block) > len(out):
            raise _Fallback
        out[filled : filled + len(block)] = block
        filled += len(block)
    if out is None or filled != len(out):
        raise _Fallback
    return out


def _scan_ensemble(cur: _Cursor) -> list:
    probs = []

    def amplitudes(i, node):
        p, row = _member(i, node)
        if len(node) > 2 and not all(
            _shallow(v) for k, v in node.items() if k not in ("p", "amplitudes")
        ):
            raise _Fallback
        probs.append(p)
        return row

    rows = [row for block in _blocks(cur, amplitudes) for row in block]
    if not rows:
        raise _Fallback
    return list(zip(probs, rows))


_SCANNERS = {"amplitudes": _scan_amplitudes, "matrix": _scan_matrix, "ensemble": _scan_ensemble}


def _scan(text: str):
    """(dims, payload key, value) of a text json.loads accepts and every
    check passes on, else None; the value is the amplitude vector, the
    matrix, or the (p, amplitude vector) pairs of the ensemble."""
    cur = _Cursor(text)
    dims, payloads = None, {}
    try:
        for _ in cur.items("{", "}"):
            key = cur.key()
            if key in _SCANNERS:
                # a repeated key keeps its last value, as in json.loads
                payloads[key] = _SCANNERS[key](cur)
                continue
            node = cur.value()
            if key == "dims":
                # every value of a repeated dims must pass, or the
                # whole-document route decides
                if not _valid_dims(node):
                    raise _Fallback
                dims = node
            elif not _shallow(node):
                raise _Fallback
        if not cur.done():
            raise _Fallback
    except (ValueError, RecursionError):
        # a _Fallback, a ParseError of _member, a JSONDecodeError, an integer
        # literal past the interpreter's digit limit
        return None
    if dims is None or len(payloads) != 1:
        return None
    ((kind, value),) = payloads.items()
    width = value[0][1].shape[0] if kind == "ensemble" else value.shape[-1]
    if width != math.prod(dims):
        return None
    return dims, kind, value


def parse_state_file(text: str):
    """Parse and validate; returns PureState, DensityOperator, or Ensemble."""
    scanned = _scan(text) if isinstance(text, str) else None
    if scanned is None:
        return _parse_document(text)
    dims, kind, value = scanned
    layout = SubsystemLayout(tuple(dims))
    if kind == "amplitudes":
        return PureState(layout, value)
    if kind == "matrix":
        return DensityOperator(layout, value)
    return Ensemble(members=tuple((p, PureState(layout, a)) for p, a in value))
