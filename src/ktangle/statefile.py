"""State-file ingestion.

A state file is a JSON object with integer dims plus exactly one payload:
amplitudes (pure state), matrix (density operator, row-major), or ensemble
(list of {p, amplitudes}).  Complex numbers are {re, im} objects.  Amplitude
index k follows the flat layout convention (last subsystem fastest).
"""

from __future__ import annotations

import json
import math

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


def parse_state_file(text: str):
    """Parse and validate; returns PureState, DensityOperator, or Ensemble."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not well-formed: {exc}") from None
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
        return PureState(layout, _vector(doc["amplitudes"], n, "amplitudes"))

    if kind == "matrix":
        rows = doc["matrix"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f"matrix must be a list of {n} rows")
        m = np.array([_vector(row, n, f"matrix[{i}]") for i, row in enumerate(rows)])
        return DensityOperator(layout, m)

    members = doc["ensemble"]
    if not isinstance(members, list) or not members:
        raise ParseError("ensemble must be a nonempty list of {p, amplitudes} objects")
    built = []
    for i, node in enumerate(members):
        if not isinstance(node, dict) or "p" not in node or "amplitudes" not in node:
            raise ParseError(f"ensemble[{i}] must be an object with p and amplitudes")
        p = node["p"]
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not _finite(p):
            raise ParseError(f"ensemble[{i}].p must be a finite number")
        built.append(
            (float(p), PureState(layout, _vector(node["amplitudes"], n, f"ensemble[{i}].amplitudes")))
        )
    return Ensemble(members=tuple(built))
