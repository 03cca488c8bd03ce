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
The negativity channels need none of the restricted transposes
(negativity._channels sums the changed elements by their differing count
instead); the K-way transpose serves the eigvalsh of the K-way negativities
of density input and of a focus larger than a qubit (a pure state with a
qubit focus needs none, negativity._pure_kway_norms) and the public
kway_pt, the pair transpose only the public pair_pt.
The kernels only move entries and check no output.  Instead each table, one
per (dims, focus, kind), is checked once per process, where it is first
used (_check_table): a swap that maps some Hermitian matrix to a
non-Hermitian one raises ValidationError there.  The public functions check
their input, whose hermiticity defect bounds that of the output, against
TRANSPOSE_HERM_EPS.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import TRANSPOSE_HERM_EPS, ValidationError
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


def _check_focus(p: int, n: int):
    if not 0 <= p < n:
        raise ValueError(f"focus {p} out of range")


def _mask(dims: tuple, p: int, kind):
    """Where the transpose of the given kind swaps: everywhere (None) for
    the global kind None, on diff == K for the K-way kind K, and for the pair
    kind (2, partner) also where the third subsystem's label is unchanged."""
    if kind is None:
        return None
    dg, diff = _label_tables(dims)
    if not isinstance(kind, tuple):
        return diff == kind
    third = 3 - p - kind[1]  # the one subsystem that is neither
    return (diff == 2) & (dg[:, None, third] == dg[None, :, third])


def _swap(M: np.ndarray, dims: tuple, p: int, mask) -> np.ndarray:
    """Focus-p swap of each stacked matrix, kept where the D x D mask holds
    (everywhere when mask is None) and the input elsewhere."""
    n, lead = len(dims), M.shape[:-2]
    t = M.reshape(lead + dims + dims)
    s = np.swapaxes(t, len(lead) + p, len(lead) + n + p)
    if mask is not None:
        s = np.where(mask.reshape(dims + dims), s, t)
    return s.reshape(M.shape)


@functools.lru_cache(maxsize=None)
def _check_table(dims: tuple, p: int, kind) -> None:
    """Raise ValidationError unless the transpose of this kind maps every
    Hermitian matrix to a Hermitian one; cached, so it runs once per table.

    The swap of two label probes, rows[r, c] = r and cols[r, c] = c, gives
    the source (rows[r, c], cols[r, c]) of output entry (r, c).  The output
    is Hermitian for every Hermitian input exactly when the entry at (c, r)
    comes from the transposed source, rows.T == cols.  The probes take the
    smallest unsigned type that holds a label, and only the verdict is kept.
    """
    D = math.prod(dims)
    mask = _mask(dims, p, kind)
    label = np.arange(D, dtype=np.min_scalar_type(D - 1))
    rows = _swap(np.broadcast_to(label[:, None], (D, D)), dims, p, mask)
    cols = _swap(np.broadcast_to(label, (D, D)), dims, p, mask)
    if not np.array_equal(rows.T, cols):
        raise ValidationError(
            f"partial-transpose table (dims {dims}, focus {p}, kind {kind}) breaks hermiticity"
        )


def _focus_swap(M: np.ndarray, dims: tuple, p: int, kind=None) -> np.ndarray:
    """The transpose of the given kind (see _mask) of each stacked matrix."""
    _check_table(dims, p, kind)
    return _swap(M, dims, p, _mask(dims, p, kind))


def _global_pt(M: np.ndarray, dims: tuple, p: int) -> np.ndarray:
    _check_focus(p, len(dims))
    return _focus_swap(M, dims, p)


def _kway_pt(M: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    n = len(dims)
    if not 2 <= K <= n:
        raise ValueError(f"K = {K} out of range [2, {n}]")
    _check_focus(p, n)
    return _focus_swap(M, dims, p, K)


def _pair_pt(M: np.ndarray, dims: tuple, p: int, partner: int) -> np.ndarray:
    if len(dims) != 3:
        raise ValueError("pair-restricted transpose is defined for three subsystems only")
    if p == partner:
        raise ValueError("partner must differ from focus")
    if not (0 <= p < 3 and 0 <= partner < 3):
        raise ValueError("subsystem index out of range")
    return _focus_swap(M, dims, p, (2, partner))


def _hermitian_input(rho: DensityOperator) -> np.ndarray:
    """rho.matrix, checked: DensityOperator is mutable, so its matrix may
    have been reassigned since construction.  Each output entry is an input
    entry, so the output's hermiticity defect is at most the input's."""
    defect = _hermiticity_defect(rho.matrix)
    message = f"density matrix hermiticity defect = {{}}, allowed {TRANSPOSE_HERM_EPS}"
    _require(defect <= TRANSPOSE_HERM_EPS, defect, message)
    return rho.matrix


def global_pt(rho: DensityOperator, p: int) -> np.ndarray:
    """Partial transpose over subsystem p of every matrix element."""
    return _global_pt(_hermitian_input(rho), rho.layout.dims, p)


def kway_pt(rho: DensityOperator, K: int, p: int) -> np.ndarray:
    """Focus-swap only the elements whose bra and ket labels differ in exactly K subsystems."""
    return _kway_pt(_hermitian_input(rho), rho.layout.dims, K, p)


def pair_pt(rho: DensityOperator, p: int, partner: int) -> np.ndarray:
    """2-way transpose restricted to elements leaving the third subsystem fixed."""
    return _pair_pt(_hermitian_input(rho), rho.layout.dims, p, partner)
