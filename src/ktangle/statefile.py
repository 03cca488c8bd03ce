"""State-file ingestion.

A state file is a JSON object with integer dims plus exactly one payload:
amplitudes (pure state), matrix (density operator, row-major), or ensemble
(list of {p, amplitudes}).  Complex numbers are {re, im} objects.  Amplitude
index k follows the flat layout convention (last subsystem fastest).

The cells of the amplitudes, the matrix rows and the members of an ensemble
are checked in bulk (_complex_rows): one pass asks every row to be a list of
the layout's length, every cell a dict with exactly the keys re and im and
every value an int or a float (not a bool), fills one float64 array with
the values and runs np.isfinite on it.  If any of these fails, the per-cell
pass (_vector) runs instead and raises the ParseError that names the first
bad cell, so a message does not depend on which pass found it.  An
ensemble's amplitude lists are the rows of one bulk call, made once every
member's p is checked.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

import numpy as np

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
    # a dict of two entries that holds re and im has no other key
    if set(map(type, cells)) != {dict} or set(map(len, cells)) != {2}:
        return None
    try:
        re, im = list(map(_RE, cells)), list(map(_IM, cells))
    except KeyError:
        return None
    # a type test, as in _complex_node: bool is a subclass of int
    if not set(map(type, re)) | set(map(type, im)) <= {int, float}:
        return None
    out = np.empty((len(cells), 2))
    try:
        # an int converts as complex() converts it, correctly rounded
        out[:, 0], out[:, 1] = re, im
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


def parse_state_file(text: str):
    """Parse and validate; returns PureState, DensityOperator, or Ensemble."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not well-formed: {exc}") from None
    except RecursionError:  # arrays or objects nested past the interpreter's limit
        raise ParseError("nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 2 for d in dims)
    ):
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
