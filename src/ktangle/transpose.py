"""Global, K-way and pair-restricted partial transposes.

The K-way transpose swaps the focus-subsystem indices only for matrix
elements whose bra and ket labels differ in exactly K subsystems; the global
transpose swaps them everywhere.  The pair-restricted variant additionally
requires the third subsystem's label to be unchanged (three subsystems only).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, ValidationError
from .core import DensityOperator, SubsystemLayout

_T = DEFAULT_TOLERANCES


def _label_tables(layout: SubsystemLayout):
    """Digit table dg[k, m] (m-th subsystem label of flat index k) and
    differing-count table diff[r, c] (subsystems whose labels differ)."""
    D, n = layout.total_dim, layout.n_subsystems
    dg = np.zeros((D, n), dtype=np.int64)
    k = np.arange(D)
    for m in reversed(range(n)):
        dg[:, m] = k % layout.dims[m]
        k = k // layout.dims[m]
    diff = (dg[:, None, :] != dg[None, :, :]).sum(axis=2)
    return dg, diff


def differing_count(r: int, c: int, layout: SubsystemLayout) -> int:
    """Number of subsystems whose labels differ between bra index r and ket index c."""
    D = layout.total_dim
    if not (0 <= r < D and 0 <= c < D):
        raise IndexError("basis index out of range")
    n = 0
    for d in reversed(layout.dims):
        n += int(r % d != c % d)
        r //= d
        c //= d
    return n


def _validate_output(M: np.ndarray) -> np.ndarray:
    # index bugs show up as hermiticity breakage, fail hard
    defect = float(np.abs(M - M.conj().T).max())
    if defect > 1e-14:
        raise ValidationError(f"transpose output hermiticity defect {defect}")
    return M


def global_pt(rho: DensityOperator, p: int) -> np.ndarray:
    """Partial transpose over subsystem p of every matrix element."""
    dims = list(rho.layout.dims)
    n = len(dims)
    if not 0 <= p < n:
        raise ValueError(f"focus {p} out of range")
    t = rho.matrix.reshape(dims + dims)
    t = np.swapaxes(t, p, n + p)
    D = rho.layout.total_dim
    return _validate_output(t.reshape(D, D))


def _masked_focus_swap(
    rho: DensityOperator, p: int, dg: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    stride = math.prod(rho.layout.dims[p + 1 :])
    out = rho.matrix.copy()
    R, C = np.nonzero(mask)
    # swapped element address: focus digit of r replaced by that of c and vice versa
    out[R, C] = rho.matrix[R + (dg[C, p] - dg[R, p]) * stride, C + (dg[R, p] - dg[C, p]) * stride]
    return _validate_output(out)


def kway_pt(rho: DensityOperator, K: int, p: int) -> np.ndarray:
    """Focus-swap only the elements with differing_count exactly K."""
    n = rho.layout.n_subsystems
    if not 2 <= K <= n:
        raise ValueError(f"K = {K} out of range [2, {n}]")
    if not 0 <= p < n:
        raise ValueError(f"focus {p} out of range")
    dg, diff = _label_tables(rho.layout)
    return _masked_focus_swap(rho, p, dg, diff == K)


def pair_pt(rho: DensityOperator, p: int, partner: int) -> np.ndarray:
    """2-way transpose restricted to elements leaving the third subsystem fixed."""
    n = rho.layout.n_subsystems
    if n != 3:
        raise ValueError("pair-restricted transpose is defined for three subsystems only")
    if p == partner:
        raise ValueError("partner must differ from focus")
    if not (0 <= p < 3 and 0 <= partner < 3):
        raise ValueError("subsystem index out of range")
    third = next(m for m in range(3) if m not in (p, partner))
    dg, diff = _label_tables(rho.layout)
    mask = (diff == 2) & (dg[:, None, third] == dg[None, :, third])
    return _masked_focus_swap(rho, p, dg, mask)
