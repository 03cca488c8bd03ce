"""One-tangle, Wootters two-qubit tangle and the three tangle.

The private functions work on stacks of matrices (leading axes index the
stack); the public ones are their batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import WOOTTERS_CLAMP
from .core import DensityOperator, PureState, _eigh, _partial_trace, outer

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)


@dataclass
class TangleReport:
    tau_focus: float
    tau_pairs: dict
    tau3: float


def _one_tangle(M: np.ndarray, dims: tuple, p: int) -> np.ndarray:
    return 4.0 * np.linalg.det(_partial_trace(M, dims, [p])).real


def one_tangle(psi: PureState, p: int) -> float:
    """4 det of the reduced one-qubit state; equals (N_G^p)^2 for pure input."""
    return float(_one_tangle(outer(psi).matrix[None], psi.layout.dims, p)[0])


def _spin_flip(M: np.ndarray) -> np.ndarray:
    return _SYSY @ M.conj() @ _SYSY


def spin_flip(rho2: DensityOperator) -> np.ndarray:
    if rho2.matrix.shape != (4, 4):
        raise ValueError("spin flip is defined for two-qubit states")
    return _spin_flip(rho2.matrix)


def _wootters(M: np.ndarray) -> np.ndarray:
    """Squared concurrence of each stacked two-qubit matrix, by two stacked eigensolves.

    The spectrum of rho.rho_tilde is taken from the Hermitian similar matrix
    sqrt(rho).rho_tilde.sqrt(rho); eigenvalues below the clamp are zeroed
    before square roots (exact zeros of low-rank inputs otherwise surface as
    sqrt(machine noise)).
    """
    rt = _spin_flip(M)
    w, V = _eigh(M)
    ev = np.clip(w, 0.0, None)
    sq = (V * np.sqrt(ev)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    lam2 = _eigh(sq @ rt @ sq)[0]
    lam2 = np.where(np.abs(lam2) < WOOTTERS_CLAMP, 0.0, np.clip(lam2, 0.0, None))
    lam = np.sqrt(lam2)[..., ::-1]
    c = np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0)
    return c * c


def wootters_tangle(rho2: DensityOperator) -> float:
    """Squared concurrence of a two-qubit state (see _wootters)."""
    return float(_wootters(rho2.matrix[None])[0])


def _tangles(M: np.ndarray, dims: tuple, focus: int):
    """One-tangle of the focus and the pair tangles tau_{focus,partner} of a
    stack of qubit states, as (array, {partner: array})."""
    lead = M.shape[:-2]
    pairs = {}
    for partner in range(len(dims)):
        if partner == focus:
            continue
        red = _partial_trace(M, dims, sorted((focus, partner)))
        if focus > partner:
            # two-qubit reduction with the focus qubit first
            t = red.reshape(lead + (2, 2, 2, 2))
            red = np.swapaxes(np.swapaxes(t, -4, -3), -2, -1).reshape(lead + (4, 4))
        pairs[partner] = _wootters(red)
    return _one_tangle(M, dims, focus), pairs


def three_tangle(psi: PureState, focus: int = 0) -> TangleReport:
    if psi.layout.dims != (2, 2, 2):
        raise ValueError("three tangle needs a three-qubit pure state")
    tau_f, pairs = _tangles(outer(psi).matrix[None], psi.layout.dims, focus)
    tau_f = float(tau_f[0])
    tau_pairs = {partner: float(t[0]) for partner, t in pairs.items()}
    return TangleReport(
        tau_focus=tau_f,
        tau_pairs=tau_pairs,
        tau3=float(tau_f - sum(tau_pairs.values())),
    )
