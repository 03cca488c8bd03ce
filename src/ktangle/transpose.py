"""Global, K-way and pair-restricted partial transposes.

The K-way transpose swaps the focus-subsystem indices only for matrix
elements whose bra and ket labels differ in exactly K subsystems; the global
transpose swaps them everywhere.  The pair-restricted variant additionally
requires the third subsystem's label to be unchanged (three subsystems only).

The kernels act on the last two axes, so they transpose a whole stack of
matrices at once; the public functions apply them to one DensityOperator.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import TRANSPOSE_HERM_EPS
from .core import DensityOperator, SubsystemLayout, _hermiticity_defect, _require


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
    defect = _hermiticity_defect(M)
    _require(defect <= TRANSPOSE_HERM_EPS, defect, "transpose output hermiticity defect {}")
    return M


def _check_focus(p: int, n: int):
    if not 0 <= p < n:
        raise ValueError(f"focus {p} out of range")


def _global_pt(M: np.ndarray, dims: tuple, p: int) -> np.ndarray:
    n = len(dims)
    _check_focus(p, n)
    lead = M.shape[:-2]
    t = np.swapaxes(M.reshape(lead + dims + dims), len(lead) + p, len(lead) + n + p)
    return _validate_output(t.reshape(M.shape))


@functools.lru_cache(maxsize=32)
def _swap_addresses(dims: tuple, p: int, K: int, partner=None):
    """Flat gather addresses (dst, src) of the focus-p swap over the elements
    whose labels differ in exactly K subsystems (and, given a partner of a
    three-subsystem layout, keep the third label fixed): the transpose is
    M.flat[dst] = M.flat[src] per stacked matrix.

    Cached per (dims, p, K, partner) and read-only: every K-way transpose of
    a layout, in a report or in each iteration of a roof search, gathers from
    the same addresses.
    """
    D = math.prod(dims)
    dg, diff = _label_tables(dims)
    # an element whose labels agree in the focus swaps onto itself: skip it
    mask = (diff == K) & (dg[:, None, p] != dg[None, :, p])
    if partner is not None:
        third = next(m for m in range(3) if m not in (p, partner))
        mask &= dg[:, None, third] == dg[None, :, third]
    R, C = np.nonzero(mask)
    # swapped element address: focus digit of r replaced by that of c and vice versa
    shift = (dg[C, p] - dg[R, p]) * math.prod(dims[p + 1 :])
    # int32 addresses take half the memory of intp wherever D^2 fits them
    kind = np.int32 if D * D <= np.iinfo(np.int32).max else np.intp
    dst = (R * D + C).astype(kind)
    src = ((R + shift) * D + (C - shift)).astype(kind)
    dst.flags.writeable = False
    src.flags.writeable = False
    return dst, src


def _masked_focus_swap(M: np.ndarray, dims: tuple, p: int, K: int, partner=None) -> np.ndarray:
    dst, src = _swap_addresses(dims, p, K, partner)
    lead, D = M.shape[:-2], M.shape[-1]
    out = M.copy()
    out.reshape(lead + (D * D,))[..., dst] = M.reshape(lead + (D * D,))[..., src]
    return _validate_output(out)


def _kway_pt(M: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    n = len(dims)
    if not 2 <= K <= n:
        raise ValueError(f"K = {K} out of range [2, {n}]")
    _check_focus(p, n)
    return _masked_focus_swap(M, dims, p, K)


def _pair_pt(M: np.ndarray, dims: tuple, p: int, partner: int) -> np.ndarray:
    if len(dims) != 3:
        raise ValueError("pair-restricted transpose is defined for three subsystems only")
    if p == partner:
        raise ValueError("partner must differ from focus")
    if not (0 <= p < 3 and 0 <= partner < 3):
        raise ValueError("subsystem index out of range")
    return _masked_focus_swap(M, dims, p, 2, partner)


def global_pt(rho: DensityOperator, p: int) -> np.ndarray:
    """Partial transpose over subsystem p of every matrix element."""
    return _global_pt(rho.matrix, rho.layout.dims, p)


def kway_pt(rho: DensityOperator, K: int, p: int) -> np.ndarray:
    """Focus-swap only the elements with differing_count exactly K."""
    return _kway_pt(rho.matrix, rho.layout.dims, K, p)


def pair_pt(rho: DensityOperator, p: int, partner: int) -> np.ndarray:
    """2-way transpose restricted to elements leaving the third subsystem fixed."""
    return _pair_pt(rho.matrix, rho.layout.dims, p, partner)
