"""Reference values and output checks for the benchmark, independent of ktangle.

Every number a command prints is compared with a value computed here by a
different route than the program's own:

- pure-state global negativity by the Schmidt route,
  N = ((sum s_i)^2 - 1) / (d_p - 1);
- mixed-state global negativity from the eigenvalues of a reshape-and-swap
  partial transpose;
- the three tangle from the Cayley hyperdeterminant (also 4 a^2 f^2 of a
  canonical form);
- the exact two-qubit convex roof (the Wootters concurrence) from the
  singular values of X^T (sy x sy) X for rho = X X^dagger;
- the roof value from its own certificate, re-evaluated member by member.

The roof's ``converged`` flag is not used: it is not a reliable signal.
"""

from __future__ import annotations

import json

import numpy as np

# Printed reals carry 12 significant digits; values here are at most ~1.
TOL = 1e-9
# Reconstructing a roof certificate from 12-digit amplitudes.
CERT_TOL = 1e-8
# ktangle's eps_eig: eigenvalues below -EPS_EIG count as negative.
EPS_EIG = 1e-10

_SYSY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
_LETTERS = "ABCDEFGHIJ"


class CheckError(Exception):
    """A command's output misses its reference."""


# ---------------------------------------------------------------- references


def pure_negativity(psi: np.ndarray, dims, p: int) -> float:
    m = np.moveaxis(psi.reshape(dims), p, 0).reshape(dims[p], -1)
    s = np.linalg.svd(m, compute_uv=False)
    return float((s.sum() ** 2 - 1.0) / (dims[p] - 1))


def _swap_transpose(rho: np.ndarray, dims, p: int) -> np.ndarray:
    n = len(dims)
    t = rho.reshape(tuple(dims) * 2)
    return np.swapaxes(t, p, n + p).reshape(rho.shape)


def mixed_negativity(rho: np.ndarray, dims, p: int) -> float:
    lam = np.linalg.eigvalsh(_swap_transpose(rho, dims, p))
    return float((np.abs(lam).sum() - 1.0) / (dims[p] - 1))


def hyperdet_tangle(psi: np.ndarray) -> float:
    a = psi.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def concurrence(X: np.ndarray) -> float:
    """Wootters concurrence of rho = X X^dagger on two qubits (X is 4 x r)."""
    s = np.linalg.svd(X.T @ _SYSY @ X, compute_uv=False)
    return float(max(0.0, s[0] - s[1:].sum()))


def kway_negativity(psi: np.ndarray, dims, K: int, p: int) -> float:
    """E_K^p of a pure state: -(2/(d_p-1)) Tr(P_minus rho_K^{T_p}).

    rho_K^{T_p} takes the partially transposed element wherever the bra and
    ket labels differ in exactly K subsystems and keeps rho elsewhere.
    """
    rho = np.outer(psi, psi.conj())
    g = _swap_transpose(rho, dims, p)
    digits = np.unravel_index(np.arange(rho.shape[0]), dims)
    diff = sum((d[:, None] != d[None, :]).astype(int) for d in digits)
    w, V = np.linalg.eigh(g)
    P = V[:, w < -EPS_EIG]
    rk = np.where(diff == K, g, rho)
    return float(-(2.0 / (dims[p] - 1)) * np.trace(P.conj().T @ rk @ P).real)


def ghzw_state(q: float, sign: int) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = np.sqrt(q / 2.0)
    v[1] = v[2] = v[4] = sign * np.sqrt((1.0 - q) / 3.0)
    return v


# ---------------------------------------------------------------- output checks


def _close(got, want, what: str, tol: float = TOL):
    if not abs(float(got) - float(want)) <= tol:
        raise CheckError(f"{what}: got {got}, reference {want}")


def _cvec(nodes) -> np.ndarray:
    return np.array([complex(z["re"], z["im"]) for z in nodes])


def _check_forms(forms, tau3: float):
    if not 1 <= len(forms) <= 2:
        raise CheckError(f"{len(forms)} canonical forms")
    for f in forms:
        _close(f["a"] ** 2 + f["b"] ** 2 + f["c"] ** 2 + f["d"] ** 2 + f["f"] ** 2, 1.0, "form norm")
        _close(4.0 * f["a"] ** 2 * f["f"] ** 2, tau3, "4 a^2 f^2 vs hyperdeterminant", 1e-8)


def _check_analyze(doc, ref) -> int:
    if doc.get("command") != "analyze" or doc["input"]["sha256"] != ref["sha256"]:
        raise CheckError("analyze document header does not match its input")
    reports = doc["reports"]
    foci = ref["foci"]
    if len(reports) != len(foci):
        raise CheckError(f"{len(reports)} reports for {len(foci)} foci")
    for rep, p, ng in zip(reports, foci, ref["n_global"]):
        neg = rep["negativity"]
        if neg["focus"] != _LETTERS[p]:
            raise CheckError(f"focus {neg['focus']} where {_LETTERS[p]} was expected")
        _close(neg["n_global"], ng, f"n_global focus {_LETTERS[p]}")
        if "tau3" in ref:
            _close(rep["tangle"]["tau3"], ref["tau3"], "tau3 vs hyperdeterminant", 1e-8)
    if "tau3" in ref:
        _check_forms(doc["canonical"]["forms"], ref["tau3"])
    return len(reports)


def _check_canonicalize(doc, ref) -> int:
    if doc.get("command") != "canonicalize" or doc["input"]["sha256"] != ref["sha256"]:
        raise CheckError("canonicalize document header does not match its input")
    _check_forms(doc["forms"], ref["tau3"])
    return 1


def _check_roof(doc, ref, extra: dict) -> int:
    res = doc["result"]
    value = float(res["value"])
    members = res["certificate"]["members"]
    dims = ref["dims"]
    X = np.array(ref["X_re"]) + 1j * np.array(ref["X_im"])
    probs = np.array([m["p"] for m in members])
    _close(probs.sum(), 1.0, "certificate probabilities")
    states = [_cvec(m["amplitudes"]) for m in members]
    states = [s / np.linalg.norm(s) for s in states]
    rho_cert = sum(pr * np.outer(s, s.conj()) for pr, s in zip(probs, states))
    defect = float(np.abs(rho_cert - X @ X.conj().T).max())
    if defect > CERT_TOL:
        raise CheckError(f"certificate reconstructs rho only to {defect}")
    p = ref["focus"]
    if ref["measure"] == "global":
        member_vals = [pure_negativity(s, dims, p) for s in states]
    else:
        member_vals = [kway_negativity(s, dims, int(ref["measure"][1:]), p) for s in states]
    _close(value, float(probs @ np.array(member_vals)), "roof value vs its certificate", CERT_TOL)
    if "concurrence" in ref:
        exact = ref["concurrence"]
        if value < exact - TOL:
            raise CheckError(f"roof value {value} below the exact roof {exact}")
        extra["gap"] = max(extra.get("gap", 0.0), value - exact)
    return ref["restarts"]


def _check_sweep(text: str, ref) -> int:
    lines = text.splitlines()
    if lines[0] != "q,n_global,e2,e3,tau3_formula,e3_times_ng,delta":
        raise CheckError("sweep header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != len(ref["q"]):
        raise CheckError(f"{len(rows)} sweep rows for {len(ref['q'])} grid points")
    for row, q, ng, tau in zip(rows, ref["q"], ref["n_global"], ref["tau3"]):
        _close(row[0], q, "grid point")
        _close(row[1], ng, f"n_global at q={q}")
        _close(row[4], tau, f"tau3 at q={q}")
    return len(rows)


def check_output(kind: str, rc, text: str, ref: dict, extra: dict) -> int:
    """Validate one command's outcome; returns its item count or raises CheckError."""
    if kind == "audit":
        if rc != 0 or text != ref["expect"]:
            raise CheckError(f"audit exit {rc}, output {text!r}")
        return ref["items"]
    if kind == "sweep":
        if rc != 0:
            raise CheckError(f"sweep exit {rc}")
        return _check_sweep(text, ref)
    # exit 3 is the documented outcome for complex coherences, with a full report
    if rc not in ((0, 3) if kind == "analyze" else (0,)):
        raise CheckError(f"{kind} exit {rc}")
    doc = json.loads(text)
    if kind == "analyze":
        return _check_analyze(doc, ref)
    if kind == "canonicalize":
        return _check_canonicalize(doc, ref)
    if kind == "roof":
        return _check_roof(doc, ref, extra)
    raise ValueError(f"unknown command kind {kind!r}")
