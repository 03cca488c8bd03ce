"""Global, K-way and pair-restricted partial transposes.

The global transpose over subsystem p swaps the focus labels between bra and
ket in every matrix element.  The K-way transpose swaps them only in the
elements whose bra and ket labels differ in exactly K subsystems; the
pair-restricted variant additionally requires the third subsystem's label to
be unchanged (three subsystems only).

All three come from one focus swap.  Exchanging the focus labels between bra
and ket leaves the set of differing subsystems unchanged, and an element whose
focus labels agree is a fixed point of the swap.  So the restricted
transposes select from the globally swapped view on a mask of the differing
count alone, rho_K^{T_p} = where(diff == K, rho^{T_p}, rho), with no condition
on the focus.

The kernels act on the last two axes, so they transpose a whole stack of
matrices at once; the public functions apply them to one DensityOperator.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import TRANSPOSE_HERM_EPS
from .core import DensityOperator, _hermiticity_defect, _require


@functools.lru_cache(maxsize=8)
def _label_tables(dims: tuple):
    """Digit table dg[k, m] (m-th subsystem label of flat index k) and
    differing-count table diff[r, c] (subsystems whose labels differ).

    Cached per dims and read-only; diff is uint8 and built one subsystem at a
    time, so it takes D^2 bytes.
    """
    D, n = math.prod(dims), len(dims)
    dg = np.zeros((D, n), dtype=np.int64)
    k = np.arange(D)
    for m in reversed(range(n)):
        dg[:, m] = k % dims[m]
        k = k // dims[m]
    diff = np.zeros((D, D), dtype=np.uint8)
    for m in range(n):
        diff += dg[:, None, m] != dg[None, :, m]
    dg.flags.writeable = False
    diff.flags.writeable = False
    return dg, diff


def _validate_output(M: np.ndarray) -> np.ndarray:
    # index bugs show up as hermiticity breakage, fail hard
    defect = _hermiticity_defect(M)
    _require(defect <= TRANSPOSE_HERM_EPS, defect, "transpose output hermiticity defect {}")
    return M


def _check_focus(p: int, n: int):
    if not 0 <= p < n:
        raise ValueError(f"focus {p} out of range")


def _focus_swap(M: np.ndarray, dims: tuple, p: int, mask=None) -> np.ndarray:
    """Focus-p swap of each stacked matrix, kept where the D x D mask holds
    (everywhere when mask is None) and the input elsewhere."""
    n, lead = len(dims), M.shape[:-2]
    t = M.reshape(lead + dims + dims)
    s = np.swapaxes(t, len(lead) + p, len(lead) + n + p)
    if mask is not None:
        s = np.where(mask.reshape(dims + dims), s, t)
    return _validate_output(s.reshape(M.shape))


def _global_pt(M: np.ndarray, dims: tuple, p: int) -> np.ndarray:
    _check_focus(p, len(dims))
    return _focus_swap(M, dims, p)


def _kway_pt(M: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    n = len(dims)
    if not 2 <= K <= n:
        raise ValueError(f"K = {K} out of range [2, {n}]")
    _check_focus(p, n)
    return _focus_swap(M, dims, p, _label_tables(dims)[1] == K)


def _pair_pt(M: np.ndarray, dims: tuple, p: int, partner: int) -> np.ndarray:
    if len(dims) != 3:
        raise ValueError("pair-restricted transpose is defined for three subsystems only")
    if p == partner:
        raise ValueError("partner must differ from focus")
    if not (0 <= p < 3 and 0 <= partner < 3):
        raise ValueError("subsystem index out of range")
    dg, diff = _label_tables(dims)
    third = 3 - p - partner  # the one subsystem that is neither
    return _focus_swap(M, dims, p, (diff == 2) & (dg[:, None, third] == dg[None, :, third]))


def global_pt(rho: DensityOperator, p: int) -> np.ndarray:
    """Partial transpose over subsystem p of every matrix element."""
    return _global_pt(rho.matrix, rho.layout.dims, p)


def kway_pt(rho: DensityOperator, K: int, p: int) -> np.ndarray:
    """Focus-swap only the elements whose bra and ket labels differ in exactly K subsystems."""
    return _kway_pt(rho.matrix, rho.layout.dims, K, p)


def pair_pt(rho: DensityOperator, p: int, partner: int) -> np.ndarray:
    """2-way transpose restricted to elements leaving the third subsystem fixed."""
    return _pair_pt(rho.matrix, rho.layout.dims, p, partner)
