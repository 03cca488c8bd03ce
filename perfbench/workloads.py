"""The four benchmark workloads: inputs, command lines and reference values.

A workload is a fixed cycle of command classes.  Every run executes whole
cycles, so each class keeps its share of the commands on every seed, and the
median and 90th percentile of command latency fall inside one class instead
of on the border between two.  Inputs come from numpy generators seeded with
(workload seed, cycle, slot); the program sees only the files and argv.

The class shares are chosen from probe timings on the unmodified program so
that the p50 and p90 positions sit inside a class block:

audit         audit3 x4, audit4 x1          p50, p90 in audit3
analyze_wide  allfoci5 x2, mixed6 x6, pure7 x7, mixed7 x3, pure8 x5,
              mixed8 x1, pure9 x1           p50 in pure7, p90 in pure8
roof          global2 x8, k2q3 x2           p50 in global2, p90 in k2q3
forms3        canonicalize x2, analyze_canonical x2, sweep x6
                                            p50, p90 in sweep
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, NamedTuple

import numpy as np

from checks import (
    concurrence,
    ghzw_state,
    hyperdet_tangle,
    mixed_negativity,
    pure_negativity,
)

SWEEP_STEPS = 41
ROOF_RESTARTS = 2
AUDIT_STATES = {3: 100, 4: 40}


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _haar(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _cells(vec) -> str:
    # repr of a Python float round-trips exactly, so the file holds vec bit for bit
    return ", ".join(
        '{"re": %r, "im": %r}' % (re, im) for re, im in zip(vec.real.tolist(), vec.imag.tolist())
    )


def _write(path: str, n: int, payload: str) -> str:
    text = '{"dims": [%s], %s}\n' % (", ".join(["2"] * n), payload)
    with open(path, "w") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_pure(path: str, psi: np.ndarray, n: int) -> str:
    return _write(path, n, '"amplitudes": [%s]' % _cells(psi))


def _ensemble(rng, n: int, r: int):
    states = [_haar(rng, n) for _ in range(r)]
    probs = rng.dirichlet(np.ones(r))
    X = np.stack(states, axis=1) * np.sqrt(probs)
    return states, probs, X


# ---------------------------------------------------------------- audit


def _audit(cls: str, rng, path: str) -> dict:
    q = int(cls[-1])
    n = AUDIT_STATES[q]
    s = int(rng.integers(2**31))
    expect = f"states,qubits,seed,viol_ng_e2,viol_ng_e3,viol_ckw\n{n},{q},{s},0,0,0\n"
    return {
        "argv": ["audit", "--random", str(n), "--seed", str(s), "--qubits", str(q)],
        "kind": "audit",
        "ref": {"expect": expect, "items": n},
    }


# ---------------------------------------------------------------- analyze_wide


def _analyze_wide(cls: str, rng, path: str) -> dict:
    n = int(cls[-1])
    dims = [2] * n
    if cls.startswith("mixed"):
        _, _, X = _ensemble(rng, n, int(rng.integers(2, 5)))
        rho = X @ X.conj().T
        rho = (rho + rho.conj().T) / 2
        rows = ", ".join("[%s]" % _cells(row) for row in rho)
        sha = _write(path, n, '"matrix": [%s]' % rows)
        return {
            "argv": ["analyze", path, "--focus", "A"],
            "kind": "analyze",
            "ref": {"sha256": sha, "foci": [0], "n_global": [mixed_negativity(rho, dims, 0)]},
        }
    psi = _haar(rng, n)
    sha = _write_pure(path, psi, n)
    foci = list(range(n)) if cls == "allfoci5" else [0]
    ref = {"sha256": sha, "foci": foci, "n_global": [pure_negativity(psi, dims, p) for p in foci]}
    argv = ["analyze", path] if cls == "allfoci5" else ["analyze", path, "--focus", "A"]
    cmd = {"argv": argv, "kind": "analyze", "ref": ref}
    if cls == "allfoci5":
        # Known defect of the program: the report letters stop at D, so an
        # all-foci analyze of five or more subsystems raises IndexError.  The
        # command stays in the mix and counts as failed while the defect lasts.
        cmd["known_failure"] = "IndexError"
    return cmd


# ---------------------------------------------------------------- roof


def _roof(cls: str, rng, path: str) -> dict:
    n, r = (2, int(cls[-1])) if cls.startswith("global") else (3, int(cls[-1]))
    measure = "global" if n == 2 else "k2"
    states, probs, X = _ensemble(rng, n, r)
    members = ", ".join(
        '{"p": %r, "amplitudes": [%s]}' % (float(p), _cells(s)) for p, s in zip(probs, states)
    )
    _write(path, n, '"ensemble": [%s]' % members)
    focus = int(rng.integers(n))
    seed = int(rng.integers(2**31))
    ref = {
        "dims": [2] * n,
        "X_re": X.real.tolist(),
        "X_im": X.imag.tolist(),
        "focus": focus,
        "measure": measure,
        "restarts": ROOF_RESTARTS,
    }
    if n == 2:
        ref["concurrence"] = concurrence(X)
    argv = ["roof", path, "--focus", "ABC"[focus], "--measure", measure,
            "--restarts", str(ROOF_RESTARTS), "--seed", str(seed)]
    return {"argv": argv, "kind": "roof", "ref": ref}


# ---------------------------------------------------------------- forms3


def _forms3(cls: str, rng, path: str) -> dict:
    if cls.startswith("sweep"):
        sign = -1 if cls == "sweep_minus" else 1
        # the minus branch's three tangle vanishes at q = 0.62685...; every grid crosses it
        lo, hi = float(rng.uniform(0.35, 0.6)), float(rng.uniform(0.66, 0.9))
        qs = np.linspace(lo, hi, SWEEP_STEPS)
        states = [ghzw_state(float(q), sign) for q in qs]
        ref = {
            "q": qs.tolist(),
            "n_global": [pure_negativity(s, [2, 2, 2], 0) for s in states],
            "tau3": [hyperdet_tangle(s) for s in states],
        }
        argv = ["sweep", "--family", "ghzw", "--sign", "minus" if sign < 0 else "plus",
                "--q", f"{lo!r}:{hi!r}:{SWEEP_STEPS}"]
        return {"argv": argv, "kind": "sweep", "ref": ref}
    psi = _haar(rng, 3)
    ref = {"sha256": _write_pure(path, psi, 3), "tau3": hyperdet_tangle(psi)}
    if cls == "canonicalize":
        return {"argv": ["canonicalize", path], "kind": "canonicalize", "ref": ref}
    ref["foci"] = [0, 1, 2]
    ref["n_global"] = [pure_negativity(psi, [2, 2, 2], p) for p in range(3)]
    return {"argv": ["analyze", path, "--canonical"], "kind": "analyze", "ref": ref}


# ---------------------------------------------------------------- registry


class Workload(NamedTuple):
    make: Callable  # (class, rng, input path) -> command
    order: tuple  # command classes of one cycle
    warmup: str  # class of the warm-up command
    n_cycles: int  # cycles of inputs generated
    trace_cycles: int  # cycles a traced run covers
    # Scale times by the calibration kernel (see worker.Calibration).  Not
    # for analyze_wide: its time is mostly two-thread BLAS, which the
    # single-threaded kernel does not follow, and its raw times are steadier.
    scaled: bool


WORKLOADS = {
    "audit": Workload(_audit, ("audit3", "audit3", "audit4", "audit3", "audit3"), "audit3", 400, 12, True),
    "analyze_wide": Workload(
        _analyze_wide,
        ("pure7", "mixed6", "pure8", "allfoci5", "pure7", "mixed7", "mixed6", "pure9",
         "pure7", "mixed6", "pure8", "mixed7", "pure7", "mixed6", "pure8", "mixed8",
         "pure7", "allfoci5", "mixed6", "pure8", "mixed7", "pure7", "mixed6", "pure8", "pure7"),
        "pure7", 8, 1, False,
    ),
    "roof": Workload(
        _roof,
        ("global2", "global3", "global2", "global3", "k2q3r2",
         "global2", "global3", "global2", "global3", "k2q3r3"),
        "global2", 40, 3, True,
    ),
    "forms3": Workload(
        _forms3,
        ("sweep_minus", "canonicalize", "sweep_plus", "sweep_minus", "analyze_canonical",
         "sweep_plus", "canonicalize", "sweep_minus", "analyze_canonical", "sweep_plus"),
        "sweep_minus", 100, 10, True,
    ),
}

# Every run holds at least this many commands, so that at least ten lie
# beyond the 90th percentile.
MIN_COMMANDS = 100


def build_manifest(workload: str, seed: int, indir: str) -> dict:
    """Write the workload's input files under indir and return its manifest."""
    wl = WORKLOADS[workload]
    os.makedirs(indir, exist_ok=True)
    cycles = []
    for c in range(wl.n_cycles):
        cycle = []
        for j, cls in enumerate(wl.order):
            cmd = wl.make(cls, _rng(seed, c, j), os.path.join(indir, f"c{c:03d}-{j:02d}.json"))
            cmd["cls"] = cls
            cycle.append(cmd)
        cycles.append(cycle)
    warmup = wl.make(wl.warmup, _rng(seed, wl.n_cycles, 0), os.path.join(indir, "warmup.json"))
    return {
        "workload": workload,
        "seed": seed,
        "warmup": warmup["argv"],
        "min_commands": MIN_COMMANDS,
        "trace_cycles": wl.trace_cycles,
        "scaled": wl.scaled,
        "cycles": cycles,
    }
