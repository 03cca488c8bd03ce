"""One-tangle, Wootters two-qubit tangle and the three tangle.

The one-tangle of a qubit focus p of a pure state splits as
tau_p = sum_q tau_pq + residual, residual >= 0 (Coffman, Kundu & Wootters,
PRA 61, 052306, 2000), with residual = tau_3 at three qubits.  _tangles
assembles that split once for every caller, from tau_p = (N_G^p)^2 and the
N_G the caller's Schmidt step already holds (negativity._schmidt).

Wootters' concurrence (PRL 80, 2245, 1998) comes from the Takagi values of
one complex symmetric matrix.  For any factor rho = Phi Phi^dagger of a
two-qubit state, T = Phi^T (sy x sy) Phi has the singular values
lambda_1 >= ... >= lambda_4, the square roots of the spectrum of
rho rho_tilde, and C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).
Nothing is squared and then square-rooted, so low-rank inputs need no clamp.
A mixed state takes Phi = V sqrt(Lambda) from one eigensolve and the lambdas
from one SVD of T.  The pair reduction of a pure state takes the amplitude
slices over the other subsystems as Phi, with no eigensolve and no partial
trace.  At three qubits that Phi is 4 x 2, so T is 2 x 2 and
C^2 = ||T||_F^2 - 2|det T| in closed form; with N_G from the closed-form
Schmidt coefficients of the focus (negativity._qubit_schmidt), the tangles
of a pure three-qubit stack call no LAPACK routine.  Only Wootters' optimal
decomposition (roof.roof_negativity) needs the Takagi vectors (_takagi).

The private functions work on stacks (leading axes index the stack); the
public ones are their batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityOperator, PureState, _eigh, _slices
from .negativity import _schmidt
from .transpose import _check_focus

# sy x sy = antidiag(-1, 1, 1, -1): it reverses the rows with these signs
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


@dataclass
class TangleReport:
    tau_focus: float
    tau_pairs: dict
    tau3: float


def _flipped(Phi: np.ndarray) -> np.ndarray:
    """T = Phi^T (sy x sy) Phi for each stacked (4, r) factor Phi, with
    sy x sy applied as a signed reversal of Phi's rows.

    ((sy x sy) Phi)^T Phi adds the products in the order of
    Phi^T (sy x sy) Phi; the other order transposes the roundoff of T, and
    the Takagi vectors of a degenerate T, from which the roof builds its
    certificates, follow that roundoff.
    """
    return (Phi[..., ::-1, :] * _FLIP_SIGNS).swapaxes(-1, -2) @ Phi


def _takagi(Phi: np.ndarray):
    """Takagi factorization T = Q diag(sigma) Q^T of T = Phi^T (sy x sy) Phi
    for each stacked (4, r) factor Phi, for Wootters' optimal decomposition
    (roof._wootters_roof).

    Returns sigma, the r Takagi values, descending, and the unitary Q
    (r x r), whose columns q satisfy T conj(q) = sigma q.  With T = A + iB,
    the real symmetric embedding [[A, B], [B, -A]] has the eigenpairs
    (+-sigma, [x; y]) and (-+sigma, [-y; x]) for q = x + iy, so its
    ascending spectrum holds sigma and the eigenvectors of its r largest
    eigenvalues hold Q.  A QR step with the phases of R's diagonal makes Q
    exactly unitary: it moves q by O(eps sigma_1 / sigma), so
    T = Q Sigma Q^T keeps an O(eps sigma_1) residual, and columns of zero
    (or roundoff) sigma, whose embedding eigenvectors may pair q with iq,
    are completed to an orthonormal basis of the conjugated null space of T.
    """
    T = _flipped(Phi)
    r = T.shape[-1]
    A, B = T.real, T.imag
    w, U = np.linalg.eigh(np.block([[A, B], [B, -A]]))
    sigma = np.clip(w[..., r:][..., ::-1], 0.0, None)
    top = U[..., r:][..., ::-1]  # eigenvectors of the r largest, descending
    Q, R = np.linalg.qr(top[..., :r, :] + 1j * top[..., r:, :])
    # the phase of a zero diagonal entry is taken as 1 (np.angle(0) = 0)
    return sigma, Q * np.exp(1j * np.angle(np.diagonal(R, axis1=-2, axis2=-1)))[..., None, :]


def _concurrence(sigma: np.ndarray) -> np.ndarray:
    """Wootters' concurrence from descending Takagi values."""
    return np.maximum(sigma[..., 0] - sigma[..., 1] - sigma[..., 2] - sigma[..., 3], 0.0)


def _wide_concurrence(Phi: np.ndarray) -> np.ndarray:
    """Concurrence of Phi Phi^dagger for each stacked (4, r) factor, r >= 4,
    from the singular values of T (rank <= 4), its Takagi values."""
    return _concurrence(np.linalg.svd(_flipped(Phi), compute_uv=False))


def _factor(M: np.ndarray) -> np.ndarray:
    """Phi = V sqrt(max(Lambda, 0)) with M = Phi Phi^dagger, per stacked matrix."""
    w, V = _eigh(M)
    return V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _density_concurrence(M: np.ndarray) -> np.ndarray:
    """Concurrence of each stacked two-qubit density matrix."""
    return _wide_concurrence(_factor(M))


def wootters_tangle(rho2: DensityOperator) -> float:
    """Squared concurrence of a two-qubit state (_pair_tangle of _factor)."""
    if rho2.layout.dims != (2, 2):
        raise ValueError(f"Wootters tangle needs a two-qubit state, got dims {rho2.layout.dims}")
    return float(_pair_tangle(_factor(rho2.matrix[None]))[0])


def one_tangle(psi: PureState, p: int) -> float:
    """4 det of the reduced one-qubit state, (N_G^p)^2 (see _tangles)."""
    _check_focus(p, psi.layout.n_subsystems)
    d_p = psi.layout.dims[p]
    if d_p != 2:
        raise ValueError(f"one tangle needs a qubit focus; subsystem {p} has dimension {d_p}")
    return float(_schmidt(psi.amplitudes[None], psi.layout.dims, p)[0][0] ** 2)


def _pair_tangle(Phi: np.ndarray) -> np.ndarray:
    """Squared concurrence of Phi Phi^dagger for each stacked (4, r) factor.

    At r = 2 (a pair of three qubits) T is 2 x 2 with the Takagi values
    sigma_1 >= sigma_2, so C^2 = (sigma_1 - sigma_2)^2 = ||T||_F^2 - 2|det T|,
    with no factorization; wider factors take _wide_concurrence.
    """
    if Phi.shape[-1] != 2:
        c = _wide_concurrence(Phi)
        return c * c
    T = _flipped(Phi)
    det = T[..., 0, 0] * T[..., 1, 1] - T[..., 0, 1] * T[..., 1, 0]
    frob = (T.real**2 + T.imag**2).sum(axis=(-2, -1))
    return np.maximum(frob - 2.0 * np.abs(det), 0.0)


def _pair_tangles(amps: np.ndarray, dims: tuple, focus: int) -> dict:
    """The pair tangles tau_{focus,partner} of a stack of pure qubit states
    (..., D), as {partner: array}, from one _pair_tangle call.

    The pair reduction onto (focus, partner) is Phi Phi^dagger for the
    amplitude slice Phi with rows (focus, partner), so the slices of every
    partner enter _pair_tangle directly, as one stack.
    """
    partners = [q for q in range(len(dims)) if q != focus]
    tau = _pair_tangle(np.stack([_slices(amps, dims, (focus, q)) for q in partners]))
    return dict(zip(partners, tau))


def _tangles(n_global: np.ndarray, amps: np.ndarray, dims: tuple, p: int):
    """(tau_p, {partner: tau_pq}, tau_p - sum_q tau_pq) of a stack of pure
    states of three or more qubits (..., D) with the global negativities
    n_global of the qubit focus p.  tau_p = n_global^2 = 4 det rho_p, since
    N_G^p = 2 s_0 s_1 for the Schmidt coefficients of p (negativity._schmidt).
    """
    tau = n_global**2
    pairs = _pair_tangles(amps, dims, p)
    return tau, pairs, tau - sum(pairs.values())


def _tangle_report(n_global: np.ndarray, amps: np.ndarray, dims: tuple, p: int) -> TangleReport:
    """The TangleReport of a batch of one three-qubit pure state (1, 8) with
    the global negativity n_global (1,) of the focus p (_tangles)."""
    tau, pairs, tau3 = _tangles(n_global, amps, dims, p)
    return TangleReport(
        tau_focus=float(tau[0]),
        tau_pairs={partner: float(t[0]) for partner, t in pairs.items()},
        tau3=float(tau3[0]),
    )


def three_tangle(psi: PureState, focus: int = 0) -> TangleReport:
    """The CKW split of the focus of a three-qubit pure state (_tangles);
    tau3 does not depend on the focus."""
    dims = psi.layout.dims
    if dims != (2, 2, 2):
        raise ValueError("three tangle needs a three-qubit pure state")
    _check_focus(focus, 3)
    amps = psi.amplitudes[None]
    return _tangle_report(_schmidt(amps, dims, focus)[0], amps, dims, focus)
