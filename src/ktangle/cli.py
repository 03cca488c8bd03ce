"""Command line interface.

Commands: analyze, canonicalize, sweep, roof, audit.  Reports go to stdout
as JSON trees (analyze/canonicalize/roof) or CSV (sweep/audit); diagnostics
go to stderr.  Exit codes: 0 success, 1 input error, 2 numerical failure,
3 internal invariant violation (sum-rule residual above tolerance, reported
after the document is printed).

Reals are emitted with 12 significant digits and complex values as {re, im}
objects, so byte-identical output follows from identical inputs and seeds.
Each command runs on one thread of numpy's bundled OpenBLAS (main), so its
bytes do not depend on the host's core count either.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import math
import os
import string
import sys

import numpy as np

from . import __version__
from .canonical import _delta, canonicalize3, coherence_delta
from .config import EPS_EIG, EPS_HERM, EPS_NORM, STACK_CHUNK, NumericalError, ValidationError
from .core import DensityOperator, PureState, _haar_amplitudes, outer, qubit_layout
from .ghzw import sweep_family
from .negativity import _negativity_reports, _report_arrays
from .roof import Ensemble, RoofBudget, roof_negativity
from .statefile import ParseError, parse_state_file
from .tangle import _tangle_report, _tangles

_FOCUS_LETTERS = string.ascii_uppercase


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to SystemExit(2); remap to input error
        raise _UsageError(message)


def _sig12(x) -> float:
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return 0.0 if x == 0.0 else x
    return float(f"{x:.12g}")


def _cnum(z) -> dict:
    z = complex(z)
    return {"re": _sig12(z.real), "im": _sig12(z.imag)}


def _csv_num(x) -> str:
    return f"{float(x) + 0.0:.12g}"  # + 0.0 prints -0.0 as 0, as _sig12 does


def _header(command: str, path: str, digest: str, kind: str, dims, seeds: dict) -> dict:
    """The keys every JSON document starts with, in their printed order."""
    return {
        "tool": "ktangle",
        "version": __version__,
        "command": command,
        "input": {"path": path, "sha256": digest, "kind": kind, "dims": list(dims)},
        "tolerances": {"eps_herm": EPS_HERM, "eps_norm": EPS_NORM, "eps_eig": EPS_EIG},
        "seeds": seeds,
    }


def _gauged(vec: np.ndarray) -> np.ndarray:
    """vec times the phase that makes its largest-modulus entry (the first
    one on exact ties) real and positive.

    Neither eigh nor the Schmidt step fixes the phase of an eigenvector, so
    the printed negative eigenvectors take this gauge.  A degenerate
    negative eigenspace has no unique basis, and its printed vectors are
    one basis of it, not a canonical one.
    """
    i = int(np.argmax(np.abs(vec)))
    out = vec * (np.conj(vec[i]) / abs(vec[i]))
    out[i] = abs(vec[i])
    return out


def _negativity_block(rep) -> dict:
    return {
        "focus": _FOCUS_LETTERS[rep.focus],
        "n_global": _sig12(rep.n_global),
        "n_kway": {str(k): _sig12(v) for k, v in sorted(rep.n_kway.items())},
        "e_partial": {str(k): _sig12(v) for k, v in sorted(rep.e_partial.items())},
        "e0": _sig12(rep.e0),
        "pair_split": {
            _FOCUS_LETTERS[k]: _sig12(v) for k, v in sorted(rep.pair_split.items())
        },
        "sum_residual": _sig12(rep.sum_residual),
        "negative_eigenpairs": [
            {"eigenvalue": _sig12(lam), "vector": [_cnum(z) for z in _gauged(vec)]}
            for lam, vec in rep.negative_eigenpairs
        ],
        "violations": list(rep.violations),
    }


def _tangle_block(rep) -> dict:
    return {
        "tau_focus": _sig12(rep.tau_focus),
        "tau_pairs": {_FOCUS_LETTERS[k]: _sig12(v) for k, v in sorted(rep.tau_pairs.items())},
        "tau3": _sig12(rep.tau3),
    }


def _form_block(form) -> dict:
    return {
        "a": _sig12(form.a),
        "b": _sig12(form.b),
        "c": _sig12(form.c),
        "d": _sig12(form.d),
        "f": _sig12(form.f),
        "phi": _sig12(form.phi),
        "g": _sig12(form.g),
    }


def _unitary_block(us) -> list:
    return [
        {"target": u.target, "matrix": [[_cnum(z) for z in row] for row in u.matrix]}
        for u in us
    ]


def _canonical_block(result) -> dict:
    return {
        "forms": [_form_block(f) for f in result.forms],
        "unitaries": [_unitary_block(us) for us in result.unitaries],
        "residual": _sig12(result.residual),
    }


def _focus_index(letter: str, n: int) -> int:
    idx = _FOCUS_LETTERS.index(letter)
    if idx >= n:
        raise ValidationError(f"focus {letter} out of range for {n} subsystems")
    return idx


def _load(path: str):
    """The state of the file at path, its kind and the sha256 of its bytes.
    The bytes are hashed and decoded, then dropped before the parse, so the
    parse holds the text and not a second copy of the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    del raw
    obj = parse_state_file(text)
    if isinstance(obj, PureState):
        kind = "pure"
    elif isinstance(obj, DensityOperator):
        kind = "density"
    else:
        kind = "ensemble"
    return obj, kind, digest


def _as_density(obj) -> DensityOperator:
    if isinstance(obj, PureState):
        return outer(obj)
    if isinstance(obj, Ensemble):
        return obj.density()
    return obj


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """x as json.dumps prints a float."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _dumps(o, indent: str = "\n") -> str:
    """json.dumps(o, indent=2), byte for byte, for documents of dicts with
    str keys, lists, str, float, int, bool and None; indent is the newline
    and indentation of o's own line.

    The standard library falls back to its pure-Python encoder whenever
    indent is set, at about twice the time of this one recursive pass.
    """
    if isinstance(o, float):
        return _json_float(o)
    inner = indent + "  "
    if isinstance(o, dict):
        items = [f"{inner}{_json_str(k)}: {_dumps(v, inner)}" for k, v in o.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(o, (list, tuple)):
        items = [inner + _dumps(v, inner) for v in o]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit_json(doc: dict):
    sys.stdout.write(_dumps(doc) + "\n")


def _cmd_analyze(args) -> int:
    obj, kind, digest = _load(args.file)
    # a pure state keeps its amplitudes for the Schmidt route
    state = obj.density() if isinstance(obj, Ensemble) else obj
    n = state.layout.n_subsystems
    pure3 = isinstance(obj, PureState) and state.layout.dims == (2, 2, 2)
    if args.canonical and not pure3:
        raise ValidationError("--canonical requires a three-qubit pure state")
    foci = [_focus_index(args.focus, n)] if args.focus else list(range(n))

    reports = []
    worst_residual = 0.0
    delta = None
    for p, rep in zip(foci, _negativity_reports(state, foci)):
        worst_residual = max(worst_residual, rep.sum_residual)
        entry = {"negativity": _negativity_block(rep)}
        if pure3:
            # the CKW split from the report's N_G, with no second Schmidt step
            tan = _tangle_report(np.array([rep.n_global]), obj.amplitudes[None], obj.layout.dims, p)
            entry["tangle"] = _tangle_block(tan)
            if p == 0:
                delta = _delta(rep.e_partial[3], rep.n_global, tan.tau3)
        reports.append(entry)
    if pure3:
        # delta reads focus A; without that report coherence_delta computes it
        delta = _sig12(coherence_delta(obj) if delta is None else delta)
        for entry in reports:
            entry["delta"] = delta

    doc = {**_header("analyze", args.file, digest, kind, state.layout.dims, {}), "reports": reports}
    if args.canonical:
        doc["canonical"] = _canonical_block(canonicalize3(obj))
    _emit_json(doc)
    if worst_residual > EPS_NORM:
        print(
            f"sum-rule residual {worst_residual:.3e} exceeds {EPS_NORM} "
            "(complex coherences outside the decomposition identity)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_canonicalize(args) -> int:
    obj, kind, digest = _load(args.file)
    if not isinstance(obj, PureState) or obj.layout.dims != (2, 2, 2):
        raise ValidationError("canonicalize requires a three-qubit pure state file")
    doc = _header("canonicalize", args.file, digest, kind, obj.layout.dims, {})
    doc.update(_canonical_block(canonicalize3(obj)))
    _emit_json(doc)
    return 0


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid {text!r} must look like start:end:steps")
    try:
        start, end, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"grid {text!r} must be number:number:integer") from None
    return start, end, steps


def _cmd_sweep(args) -> int:
    start, end, steps = _parse_grid(args.q)
    sign = 1 if args.sign == "plus" else -1
    rows = sweep_family(sign, start, end, steps)
    print("q,n_global,e2,e3,tau3_formula,e3_times_ng,delta")
    for r in rows:
        print(
            ",".join(
                _csv_num(v)
                for v in (r.q, r.n_global, r.e2, r.e3, r.tau3_formula, r.e3_times_ng, r.delta)
            )
        )
    return 0


def _cmd_roof(args) -> int:
    obj, kind, digest = _load(args.file)
    rho = _as_density(obj)
    p = _focus_index(args.focus, rho.layout.n_subsystems)
    budget = RoofBudget(restarts=args.restarts, seed=args.seed)
    result = roof_negativity(rho, p, measure=args.measure, budget=budget)
    doc = {
        **_header("roof", args.file, digest, kind, rho.layout.dims, {"roof": args.seed}),
        "focus": args.focus,
        "measure": args.measure,
        "result": {
            "value": _sig12(result.value),
            "bound": result.bound,
            "converged": bool(result.converged),
            "restarts_used": result.restarts_used,
            "certificate": {
                "members": [
                    {"p": _sig12(prob), "amplitudes": [_cnum(z) for z in st.amplitudes]}
                    for prob, st in result.certificate.members
                ]
            },
        },
    }
    _emit_json(doc)
    return 0


def _haar_stacks(layout, n_states: int, rng):
    """n_states Haar amplitude vectors in stacks of at most STACK_CHUNK rows,
    the states that n_states successive haar_random_pure calls return."""
    for start in range(0, n_states, STACK_CHUNK):
        yield _haar_amplitudes(layout.total_dim, rng, min(STACK_CHUNK, n_states - start))


def _cmd_audit(args) -> int:
    n_states = args.random
    if n_states < 1:
        raise ValidationError("audit needs --random >= 1")
    if args.seed < 0:
        raise ValidationError(f"audit seed {args.seed} must be non-negative")
    layout = qubit_layout(args.qubits)
    rng = np.random.default_rng(args.seed)
    viol_e2 = viol_e3 = viol_ckw = 0
    for v in _haar_stacks(layout, n_states, rng):
        # the rows are normalized draws, so they are trusted
        neg = _report_arrays(v, layout.dims, 0)
        viol_e2 += int(neg.violates[2].sum())
        viol_e3 += int(neg.violates[3].sum())
        viol_ckw += int((_tangles(neg.n_global, v, layout.dims, 0)[2] < -EPS_NORM).sum())
    print("states,qubits,seed,viol_ng_e2,viol_ng_e3,viol_ckw")
    print(f"{n_states},{args.qubits},{args.seed},{viol_e2},{viol_e3},{viol_ckw}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ktangle", description="Negativity and tangle toolkit")
    parser.add_argument("--version", action="version", version=f"ktangle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full measure report for a state file")
    pa.add_argument("file")
    pa.add_argument("--focus", choices=tuple(_FOCUS_LETTERS), default=None)
    pa.add_argument("--canonical", action="store_true")
    pa.set_defaults(handler=_cmd_analyze)

    pc = sub.add_parser("canonicalize", help="canonical form(s) of a 3-qubit pure state")
    pc.add_argument("file")
    pc.set_defaults(handler=_cmd_canonicalize)

    ps = sub.add_parser("sweep", help="parameter sweep over a state family (CSV)")
    ps.add_argument("--family", choices=("ghzw",), required=True)
    ps.add_argument("--sign", choices=("plus", "minus"), required=True)
    ps.add_argument("--q", required=True, metavar="START:END:STEPS")
    ps.set_defaults(handler=_cmd_sweep)

    pr = sub.add_parser("roof", help="convex-roof negativity of a mixed state")
    pr.add_argument("file")
    pr.add_argument("--focus", choices=tuple(_FOCUS_LETTERS), required=True)
    pr.add_argument("--measure", choices=("global", "k2", "k3"), required=True)
    pr.add_argument("--restarts", type=int, default=32)
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(handler=_cmd_roof)

    pd = sub.add_parser("audit", help="Monte Carlo inequality audit (CSV summary)")
    pd.add_argument("--random", type=int, required=True, metavar="N")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--qubits", type=int, choices=(3, 4), default=3)
    pd.set_defaults(handler=_cmd_audit)
    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser() once per process: each add_argument reads the terminal
    size, so building the parser costs about 1 ms."""
    return build_parser()


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found once per process, or None where there is none."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def main(argv=None) -> int:
    """Run one command.  It runs on one BLAS thread, so its bytes do not
    depend on the host's core count (a threaded reduction may add in another
    order), and the caller's thread count is restored after it."""
    blas = _openblas()
    threads = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        return _main(argv)
    finally:
        if blas:
            blas[1](threads)


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"input error: not enough memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
