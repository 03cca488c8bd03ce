"""Negativity measures built on the partial transposes.

Each channel is the weight -(2/(d_p - 1)) Tr(P_minus M) of one operator M on
the projector P_minus onto the negative subspace of the GLOBAL transpose.
The global negativity of focus p is (|| rho^{T_p} ||_1 - 1)/(d_p - 1), the
partial K-way negativity E_K^p takes M = rho_K^{T_p}, and
E_0^p = -(2(N-2)/(d_p - 1)) Tr(P_minus rho).

Everything comes from the negative eigenpairs of the global transpose, by
one of two routes chosen once, from the input (_global_spectrum).  Density
input runs one eigh of rho^{T_p}; the trace norm is the sum of |eigenvalue|
(Vidal & Werner, PRA 65, 032314, 2002).  Pure input takes the Schmidt
decomposition of the d_p x D/d_p amplitude matrix (_schmidt_pairs): the
Schmidt coefficients give the negative eigenpairs and N_G in closed form,
with no D x D eigensolve.  For a qubit focus the decomposition itself is
closed form, one Jacobi rotation of the 2 x 2 Gram matrix (_qubit_schmidt),
so a pure report on qubits makes no LAPACK call; a larger focus runs one
SVD.
Both routes mask the eigenvalues at -EPS_EIG and keep the leading columns
(_negative_columns).  The eigh route holds its columns flat, in the D
index; the Schmidt route builds them from the Schmidt factors straight in
the focus blocks (d_p, D/d_p) of the amplitude matrix, which the channels
read, and lays them out flat only for the eigenpairs a report prints.

Every channel comes from one contraction (_channels), with no restricted
transpose built.  rho_K^{T_p} differs from rho only by
Delta = rho^{T_p} - rho on the elements of differing count K, and Delta is
zero wherever the focus labels agree.  So
Tr(P_minus rho_K^{T_p}) = Tr(P_minus rho) + sum of Re(Delta o Q) over the
elements of count K, with Q = conj(V) V^T for the c negative eigenvectors V
(Tr(P_minus M) = sum(M o Q)).  One pass over the off-diagonal focus blocks
sums Re(Delta o Q) by a cached label table (_channel_plan), and every
E_K, the pair split and E_0 read one row of those sums.  A pure state builds
the blocks from its amplitudes, so its report holds no D x D matrix.

The K-way negativities n_kway need the spectrum of rho_K^{T_p} itself and
are computed only by negativity_report.  With a qubit focus, a pure state
takes each from one eigh of a D/2 x D/2 matrix (_pure_kway_norms):
rho_K^{T_p} - rho = sigma_y (x) Y_K exactly, so in the sigma_y eigenbasis
rho_K^{T_p} is diag(Y_K, -Y_K) plus the rank-one rho, and its trace norm
is a quadrature over the spectrum of Y_K, still with no D x D matrix.
Density input and a larger focus build each rho_K^{T_p} and run one
eigvalsh of it.

Counting the one-way elements too, rho^{T_p} = sum_{K=1..N} rho_K^{T_p} -
(N - 1) rho exactly, so N_G^p = sum_{K>=2} E_K^p - E_0^p + R with the one-way
term R = -(2/(d_p - 1)) Tr(P_minus (rho_1^{T_p} - rho)).  rho_1^{T_p} - rho
lives on the elements whose labels differ only in the focus, where the swap
conjugates the element, so R vanishes for real matrix elements (in the
computational basis) and is generally nonzero for complex ones.  |R| is
reported in sum_residual rather than hidden.

The pair split E_2^p = E_2^{p-q} + E_2^{p-r} is exact for every input:
rho_2^{T_p} = rho_2^{T_{p-pq}} + rho_2^{T_{p-pr}} - rho makes
E_2^{p-q} = (-2 Tr(P_minus rho_2^{T_{p-pq}}) + Tr(P_minus rho))/(d_p - 1)
the unique symmetric split.

_report_arrays computes every report field for a stack of amplitude vectors
or of density matrices at once, n_kway only when asked; negativity_report is
its batch of one.  The convex roof (roof.py) evaluates its members, pure
stacks only, through _schmidt (N_G) and _kway_channel (E_K), the same
contraction read at one K (_kway_trace).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import EPS_EIG, EPS_HERM, EPS_NORM, KWAY_QUAD_SPAN, KWAY_QUAD_STEP, NumericalError
from .core import DensityOperator, PureState, _eigh, _gather_index, _outer, _require, _slices
from .core import _trace_norm
from .core import trace_norm
from .transpose import _check_focus, _global_pt, _kway_pt, _label_tables


@dataclass
class NegativityReport:
    """All negativity measures of one focus subsystem.

    sum_residual = |n_global - (sum_K e_partial[K] - e0)| is the size of the
    one-way term R of the module docstring.  It comes from the imaginary parts
    of coherences that differ only in the focus label, so it is <= 1e-9 for
    real-representation inputs and generally larger for complex ones.
    """

    focus: int
    n_global: float
    n_kway: dict
    e_partial: dict
    e0: float
    pair_split: dict
    negative_eigenpairs: list
    sum_residual: float
    violations: list = field(default_factory=list)


@dataclass
class _ReportArrays:
    """The NegativityReport fields of a stack but n_kway, one entry per
    stacked state.

    violates[K] flags e_partial[K] > n_global + EPS_NORM where |e0| <= EPS_NORM.
    eigenvalues are ascending spectra of the global transposes and
    negative_vectors their negative eigenvector columns (_negative_columns).
    """

    n_global: np.ndarray
    e_partial: dict
    e0: np.ndarray
    pair_split: dict
    sum_residual: np.ndarray
    violates: dict
    eigenvalues: np.ndarray
    negative_vectors: np.ndarray


def _negativity(norm, d_p: int):
    """(||M||_1 - 1)/(d_p - 1) from the trace norm of each stacked matrix."""
    return (norm - 1.0) / (d_p - 1)


def negativity_from_pt(M: np.ndarray, d_p: int):
    """(trace_norm - 1)/(d_p - 1) of a Hermitian trace-one matrix (or stack)."""
    if d_p < 2:
        raise ValueError("focus dimension must be >= 2")
    return _negativity(trace_norm(M), d_p)


def _negative_pairs(w: np.ndarray, V: np.ndarray) -> list:
    """(eigenvalue, eigenvector) of one spectrum for eigenvalues < -EPS_EIG.

    V may hold only the leading columns of the eigenvectors; the negative
    eigenvalues of an ascending spectrum come first.
    """
    return [(float(lam), vec.copy()) for lam, vec in zip(w, V.T) if lam < -EPS_EIG]


def _trace_with(Vm: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Re Tr(Vm^dagger M Vm) = Re Tr(P_minus M) for each stacked pair, with
    P_minus = Vm Vm^dagger; O(c D^2) for c columns."""
    return (Vm.conj() * (M @ Vm)).sum(axis=(-2, -1)).real


def _channel(t: np.ndarray, d_p: int) -> np.ndarray:
    """Weight -(2/(d_p - 1)) t of an operator M with t = Re Tr(P_minus M)."""
    return -(2.0 / (d_p - 1)) * t


def _negative_columns(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The negative eigenvector columns Vm of ascending spectra w with
    eigenvectors V, per stacked matrix; the rows of each column may span
    more than one axis of V (the focus blocks of _schmidt_pairs).

    Vm holds the leading c columns of V, c the largest number of eigenvalues
    < -EPS_EIG of any matrix in the stack.  A column whose eigenvalue is not
    below -EPS_EIG for its own matrix is zero, so Vm Vm^dagger is P_minus of
    every matrix.  Vm is a new array, so the full V can be freed.
    """
    neg = w < -EPS_EIG
    c = neg.shape[-1] if neg.all() else int(neg.sum(axis=-1).max(initial=0))
    return V[..., :c] * neg[..., :c].reshape(w.shape[:-1] + (1,) * (V.ndim - w.ndim) + (c,))


@functools.lru_cache(maxsize=16)
def _schmidt_plan(dims: tuple, p: int):
    """The Schmidt index pairs (k, l), k < l, of focus p; cached per
    (dims, p), read-only."""
    _check_focus(p, len(dims))
    d_p = dims[p]
    k, l = np.triu_indices(min(d_p, math.prod(dims) // d_p), 1)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def _qubit_schmidt(S: np.ndarray):
    """The SVD S = U diag(s) W^dagger of each stacked 2 x m matrix S with
    rows a and b, not all zero, in closed form.

    One Jacobi rotation U diagonalizes the Gram matrix
    G = S S^dagger = [[|a|^2, g], [g*, |b|^2]], so the rows of U^dagger S
    are orthogonal: s holds their norms and W^dagger = diag(1/s) U^dagger S,
    with the row of a zero s_1 set to zero.  The rotated rows carry an
    absolute error of O(eps), so s_0 s_1 = sqrt(det G) does too, down to
    product states, where |a|^2 |b|^2 - |g|^2 cancels to O(eps) in det G
    and so to O(sqrt(eps)) in s_0 s_1.
    """
    flat = S.view(np.float64)  # the last axis is contiguous (core._slices)
    n2 = np.einsum("...i,...i->...", flat, flat)
    g = np.einsum("...i,...i->...", S[..., 0, :], S[..., 1, :].conj())
    # G = D [[|a|^2, |g|], [|g|, |b|^2]] D^dagger with D = diag(1, ph),
    # ph = g*/|g| (1 where g = 0, and real for real g); the real matrix turns
    # by theta, and theta = 0 where G is a multiple of 1 (arctan2(0, 0) = 0)
    ag = np.abs(g)
    ph = np.divide(g.conj(), ag, out=np.ones_like(g), where=ag > 0.0)
    theta = np.arctan2(2.0 * ag, n2[..., 0] - n2[..., 1]) / 2
    c, sn = np.cos(theta), np.sin(theta)
    U = np.empty(g.shape + (2, 2), dtype=complex)
    U[..., 0, 0], U[..., 0, 1], U[..., 1, 0], U[..., 1, 1] = c, -sn, sn * ph, c * ph
    Uc = U.conj()
    R = Uc[..., 0, :, None] * S[..., None, 0, :] + Uc[..., 1, :, None] * S[..., None, 1, :]
    Rf = R.view(np.float64)
    s = np.sqrt(np.einsum("...i,...i->...", Rf, Rf))
    return U, s, R * (1.0 / np.where(s > 0.0, s, np.inf))[..., None]  # 1/inf = 0


def _schmidt(amps: np.ndarray, dims: tuple, p: int):
    """N_G^p of each state of a (B, D) stack of normalized amplitude vectors,
    the SVD S = U diag(s) W^dagger of each laid out focus-first as the
    d_p x D/d_p matrix S (core._slices), and S: (N_G, U, s, W^dagger, S).

    psi = sum_k s_k |a_k>|b_k>, with a_k column k of U and b_k row k of
    W^dagger, so ||rho^{T_p}||_1 = (sum_k s_k)^2 (see _schmidt_pairs) and
    N_G^p = ((sum_k s_k)^2 - 1)/(d_p - 1) (Vidal & Werner, PRA 65, 032314,
    2002), for every d_p.  It is taken as 2 sum_{k<l} s_k s_l/(d_p - 1),
    which has no cancellation near product states and is exactly 0 on a
    product cut.  A qubit focus takes the closed-form SVD (_qubit_schmidt),
    a larger focus one stacked SVD.  The reconstruction residual
    max|U diag(s) W^dagger - S| must be <= EPS_HERM, or NumericalError.
    """
    k, l = _schmidt_plan(dims, p)  # checks the focus
    S = _slices(amps, dims, (p,))
    U, s, Wh = _qubit_schmidt(S) if dims[p] == 2 else np.linalg.svd(S, full_matrices=False)
    Us = U * s[..., None, :]
    rec = sum(Us[..., :, j, None] * Wh[..., None, j, :] for j in range(s.shape[-1]))
    resid = np.abs(rec - S).max(axis=(-2, -1))
    _require(resid <= EPS_HERM, resid, f"Schmidt reconstruction residual {{}} exceeds {EPS_HERM}",
             NumericalError)
    return 2.0 * (s[..., k] * s[..., l]).sum(axis=-1) / (dims[p] - 1), U, s, Wh, S


def _schmidt_pairs(amps: np.ndarray, dims: tuple, p: int):
    """N_G^p, the pair eigenvalues w, ascending, and the negative eigenvector
    columns V (_negative_columns) in focus-block form, of the global
    transposes of a (B, D) stack of pure states, from their Schmidt
    decompositions (_schmidt), and the amplitude matrices S of _schmidt.

    In the orthonormal product basis |a_l* b_k> of the Schmidt vectors,

        rho^{T_p} = sum_{k,l} s_k s_l |a_l* b_k><a_k* b_l|.

    It is s_k^2 on |a_k* b_k>, and on each pair k < l the 2 x 2 block
    [[0, s_k s_l], [s_k s_l, 0]] with the eigenvalues +-s_k s_l; the rest of
    the space is its kernel.  So the negative eigenvalues are -s_k s_l,
    k < l, with the eigenvectors

        V_kl = (|a_k* b_l> - |a_l* b_k>) / sqrt(2),

    and the trace norm is sum_k s_k^2 + 2 sum_{k<l} s_k s_l = (sum_k s_k)^2.
    V is (B, d_p, D/d_p, c): V[..., a, r, j] is the entry of column j at
    focus label a and rest index r, in the layout of the amplitude matrix
    S (core._slices) that _channels reads, so no flat D-index vector is
    built.
    """
    n_global, U, s, Wh, S = _schmidt(amps, dims, p)  # checks the focus
    Uc = (U.conj() * math.sqrt(0.5))[..., :, None, :]
    Wt = Wh.swapaxes(-1, -2)[..., None, :, :]
    # the pairs (k, l), l > k, one k at a time in the order of _schmidt_plan:
    # w = -s_k s_l and a_k*[a] b_l[r] - a_l*[a] b_k[r] on the axes
    # (a, r, pair), from slices; k = 0 alone when there is no pair (a
    # single subsystem), whose slices are empty
    parts = [
        (-(s[..., k : k + 1] * s[..., k + 1 :]),
         Uc[..., k : k + 1] * Wt[..., k + 1 :] - Uc[..., k + 1 :] * Wt[..., k : k + 1])
        for k in range(max(s.shape[-1] - 1, 1))
    ]
    if len(parts) == 1:
        w, V = parts[0]
    else:
        w, V = (np.concatenate(x, axis=-1) for x in zip(*parts))
        order = np.argsort(w, axis=-1, kind="stable")
        w = np.take_along_axis(w, order, axis=-1)
        V = np.take_along_axis(V, order[..., None, None, :], axis=-1)
    return n_global, w, _negative_columns(w, V), S


def _global_spectrum(state: np.ndarray, dims: tuple, p: int):
    """N_G^p of each state of a stack, the ascending spectra w of the global
    transposes, their negative eigenvector columns (_negative_columns) and
    the operand X of _channels.

    A (B, D) stack of amplitude vectors takes the Schmidt route
    (_schmidt_pairs), whose columns come in focus blocks (B, d_p, D/d_p, c),
    and X is its stack of amplitude matrices S (B, d_p, D/d_p), gathered
    once; a (B, D, D) stack of density matrices the eigh route, whose
    columns are flat, (B, D, c), and X is the stack itself.
    """
    if state.ndim == 2:
        return _schmidt_pairs(state, dims, p)
    w, V = _eigh(_global_pt(state, dims, p))
    # the trace norm of each global transpose is the sum of |w|
    n_global = _negativity(np.abs(w).sum(axis=-1), dims[p])
    return n_global, w, _negative_columns(w, V), state


def _flat_columns(V: np.ndarray, dims: tuple, p: int) -> np.ndarray:
    """The focus blocks (..., d_p, D/d_p, c) of _schmidt_pairs as flat
    columns (..., D, c): one scatter through the index of core._slices."""
    index = _gather_index(dims, (p,))
    Vm = np.empty(V.shape[:-3] + (index.size, V.shape[-1]), dtype=V.dtype)
    Vm[..., index, :] = V
    return Vm


@functools.lru_cache(maxsize=16)
def _channel_plan(dims: tuple, p: int):
    """The shape (A, d_p, C) the flat index splits into around the focus,
    and the class table of the off-diagonal focus blocks; cached per
    (dims, p), read-only.

    Inside a block of focus labels a != b, the entry (r, c) of the rest
    indices lies in class 1 + (number of other subsystems whose labels
    differ), its differing count.  At three subsystems the entries of
    differing count 2 whose other differing subsystem is the second of the
    two partners move to class 4, so the classes 2 and 4 hold the elements
    that the pair transposes of the first and the second partner swap.  The
    table is uint8, (D/d_p)^2 bytes.
    """
    _check_focus(p, len(dims))
    rest = dims[:p] + dims[p + 1 :]
    dg, diff = _label_tables(rest)
    labels = diff + np.uint8(1)
    if len(dims) == 3:
        labels[(diff == 1) & (dg[:, None, 1] != dg[None, :, 1])] = 4
    labels.flags.writeable = False
    return (math.prod(dims[:p]), dims[p], math.prod(dims[p + 1 :])), labels


def _channels(X: np.ndarray, dims: tuple, p: int, V: np.ndarray):
    """t_id = Re Tr(P_minus rho) and the class sums s (lead + (n + 2,)) of
    each state of a stack, with P_minus = V V^dagger for the negative
    columns V and the operand X of _global_spectrum: focus blocks with the
    amplitude matrices S of a pure stack, flat columns with the density
    matrices themselves.

    rho_K^{T_p} differs from rho only by Delta = rho^{T_p} - rho on the
    entries of differing count K, and Delta is zero wherever the focus
    labels agree.  So Re Tr(P_minus rho_K^{T_p}) = t_id + s[..., K]
    (_kway_trace), with s[..., L] the sum of Re(Delta o Q) over class L of
    the off-diagonal focus blocks (_channel_plan) and Q = conj(V) V^T,
    Tr(P_minus M) = sum(M o Q); at three subsystems t_id + s[..., 2] and
    t_id + s[..., 4] are the traces with the pair transposes of the first
    and the second partner.  Delta and Q are Hermitian, so Re(Delta o Q) is
    symmetric and the blocks a < b are summed and counted twice.  A pure
    state reads the blocks of V as they come and builds the block of
    Delta o Q from its amplitude matrix S (core._slices), with no D x D
    matrix, and t_id from the overlaps of the blocks of V with S.  Density
    input takes t_id from its flat columns and gathers their rows into the
    same blocks.  The class sums take one bincount with an offset per
    state, so each state's sums are added in a fixed order, whatever the
    stack size.
    """
    (A, d_p, C), labels = _channel_plan(dims, p)
    # the focus blocks of V carry one axis more than S, flat columns as
    # many as the density matrices
    pure = V.ndim > X.ndim
    lead = X.shape[:-2]
    B, cols = math.prod(lead), V.shape[-1]
    if pure:
        S = X
        Vc = V.conj()
        # |<v_j|psi>|^2 summed over the columns j
        ov = np.einsum("...arj,...ar->...j", Vc, S).view(np.float64)
        t_id = np.einsum("...i,...i->...", ov, ov)
        Sc = S.conj()
    else:
        t_id = _trace_with(V, X)
        V = V[..., _gather_index(dims, (p,)), :]
        Vc = V.conj()
        M = X.reshape(B, A, d_p, C, A, d_p, C)
    terms = []
    for a in range(d_p):
        for b in range(a + 1, d_p):
            if pure:
                # Delta[r, c] = psi_b[r] psi_a*[c] - psi_a[r] psi_b*[c], with
                # the products of _outer; each term is multiplied as in
                # V^dagger (rho_K^{T_p} V), which keeps exact zeros such as
                # those of GHZ states
                delta = S[..., b, :, None] * Sc[..., a, None, :]
                delta -= S[..., a, :, None] * Sc[..., b, None, :]
                # a single column (every qubit focus) is multiplied in place
                # and needs no sum over the columns
                prod = delta[..., None] if cols == 1 else np.empty(delta.shape + (cols,), complex)
                np.multiply(delta[..., None], V[..., b, None, :, :], out=prod)
                prod *= Vc[..., a, :, None, :]
                terms.append(prod.real[..., 0] if cols == 1 else prod.real.sum(axis=-1))
            else:
                # Delta[r, c] = rho[(b, r), (a, c)] - rho[(a, r), (b, c)]
                delta = M[:, :, b, :, :, a, :] - M[:, :, a, :, :, b, :]
                Q = Vc[..., a, :, :] @ V[..., b, :, :].swapaxes(-1, -2)
                terms.append((delta.reshape(Q.shape) * Q).real)
    Y = sum(terms[1:], terms[0])
    n = len(dims)
    at = labels.reshape(1, -1) + np.arange(0, B * (n + 2), n + 2)[:, None]
    s = 2.0 * np.bincount(at.ravel(), weights=Y.ravel(), minlength=B * (n + 2))
    return t_id, s.reshape(lead + (n + 2,))


def _kway_trace(t_id: np.ndarray, s: np.ndarray, K: int) -> np.ndarray:
    """Re Tr(P_minus rho_K^{T_p}) from t_id and the n + 2 class sums s of
    _channels: class K, and class 4 after it for K = 2 at three subsystems,
    where rho_2^{T_p} swaps the elements of both pair transposes."""
    t = t_id + s[..., K]
    return t + s[..., 4] if K == 2 and s.shape[-1] - 2 == 3 else t


def _kway_channel(state: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    """E_K^p of each state of a stack (see _global_spectrum), without the
    rest of the report.  A roof member, pure, passes the focus blocks of
    P_minus straight from the Schmidt factors to _channels and reads one
    class sum."""
    V, X = _global_spectrum(state, dims, p)[2:]
    return _channel(_kway_trace(*_channels(X, dims, p, V), K), dims[p])


@functools.lru_cache(maxsize=16)
def _kway_masks(dims: tuple, p: int):
    """The masks H_K of the rest-label pairs that differ in K - 1
    subsystems, K = 2..n, as one (n - 1, D/d_p, D/d_p) bool array; cached
    per (dims, p), read-only."""
    rest = dims[:p] + dims[p + 1 :]
    masks = _label_tables(rest)[1] == np.arange(1, len(dims), dtype=np.uint8)[:, None, None]
    masks.flags.writeable = False
    return masks


# The quadrature of _pure_kway_norms: the nodes t = e^x, t^2, and the
# weights (2/pi) step t^3 that integrate g/t^2 over x (dt = t dx).
_NODES = np.exp(np.arange(-KWAY_QUAD_SPAN, KWAY_QUAD_SPAN + KWAY_QUAD_STEP / 2, KWAY_QUAD_STEP))
_T2 = _NODES * _NODES
_WEIGHTS = (2.0 / math.pi) * KWAY_QUAD_STEP * _T2 * _NODES
# the rows phi_+-^dagger = (a^* +- i b^*)/sqrt(2) from the rows a^*, b^* of
# S^*, and the rows w_+ + w_- and w_+ - w_- from the rows w_+-
_PHI_H = np.array([[1.0, 1j], [1.0, -1j]]) * math.sqrt(0.5)
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])


def _kway_terms(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Y_K = i(b a^dagger - a b^dagger) o H_K of each 2 x m amplitude matrix
    S with rows a and b, for a (k, m, m) stack of masks H: (..., k, m, m),
    built in place with the products of _outer, so only these k matrices
    and one product are held."""
    Y = np.empty(S.shape[:-2] + H.shape, dtype=complex)
    np.multiply(S[..., 1, None, :, None], S[..., 0, None, None, :].conj(), out=Y)
    Y -= S[..., 0, None, :, None] * S[..., 1, None, None, :].conj()
    Y *= 1j
    Y *= H
    return Y


def _pure_kway_norms(S: np.ndarray, dims: tuple, p: int) -> dict:
    """||rho_K^{T_p}||_1, K = 2..n, of each pure state of a stack with a
    qubit focus p, from its 2 x m amplitude matrices S (core._slices) with
    rows a and b, m = D/2; one eigh of m x m per K, no D x D matrix.

    rho_K^{T_p} swaps the focus blocks of rho = |psi><psi| on the rest
    pairs of mask H_K (_kway_masks), so rho_K^{T_p} - rho = sigma_y (x) Y_K
    with the Hermitian Y_K = i(b a^dagger - a b^dagger) o H_K.  In the
    sigma_y eigenbasis that term is diag(Y_K, -Y_K), and rho is the
    rank-one |phi><phi| with the halves phi_+- = (a -+ i b)/sqrt(2).  With
    Y_K = Q diag(y) Q^dagger and the weights w_+- = |Q^dagger phi_+-|^2,
    |x| = (2/pi) int_0^inf x^2/(x^2 + t^2) dt and the resolvent of a
    rank-one update (Golub, SIAM Rev. 15, 318, 1973) give

        ||rho_K^{T_p}||_1 = 2 sum|y| + (2/pi) int_0^inf g(t) dt,
        g = t^2 (2 kappa (1 + alpha) - (beta - 2 t^2 nu) beta)
            / ((1 + alpha)^2 + t^2 beta^2),

    with q_j = 1/(y_j^2 + t^2), s = w_+ + w_-, u = (w_+ - w_-) y and
    beta = q.s, alpha = q.u, nu = q^2.s, kappa = q^2.u.  The integral is the
    trapezoid rule in ln t (config.KWAY_QUAD_STEP); it needs no root
    finding, and zero weights and tied y are harmless.  The K come two at a
    time, so the Y_K and their eigenvectors hold D^2 entries per state.  A
    norm must lie within ||rho||_1 = 1 of 2 sum|y| (the triangle inequality)
    and be at least |Tr rho_K^{T_p}| = 1, each within EPS_NORM, or
    NumericalError.
    """
    # the rows phi_+-^dagger, (..., 1, 2, m)
    phi_h = (_PHI_H @ S.conj())[..., None, :, :]
    masks = _kway_masks(dims, p)
    norms = {}
    for i in range(0, len(masks), 2):
        y, Q = np.linalg.eigh(_kway_terms(S, masks[i : i + 2]))
        w = phi_h @ Q  # the rows conj(Q^dagger phi_+-), (..., k, 2, m)
        su = _SUM_DIFF @ (w.conj() * w).real  # the rows s and u
        su[..., 1, :] *= y
        q = np.square(y)[..., :, None] + _T2  # (..., k, m, nodes)
        np.reciprocal(q, out=q)
        ba = su @ q
        q *= q
        nk = su @ q
        beta, a1, nu, kappa = ba[..., 0, :], ba[..., 1, :] + 1.0, nk[..., 0, :], nk[..., 1, :]
        # g / t^2, the factor t^2 being in the weights _WEIGHTS
        g = 2.0 * kappa * a1 - (beta - 2.0 * _T2 * nu) * beta
        g /= a1 * a1 + _T2 * beta * beta
        poles = 2.0 * np.abs(y).sum(axis=-1)
        norm = poles + (g * _WEIGHTS).sum(axis=-1)
        gap = np.abs(norm - poles)
        _require(gap <= 1.0 + EPS_NORM, gap,
                 f"K-way trace norm is {{}} from 2 sum|y|, more than 1 + {EPS_NORM}",
                 NumericalError)
        _require(norm >= 1.0 - EPS_NORM, norm, f"K-way trace norm {{}} is below 1 - {EPS_NORM}",
                 NumericalError)
        for j in range(norm.shape[-1]):
            norms[2 + i + j] = norm[..., j]
    return norms


def _report_arrays(state: np.ndarray, dims: tuple, p: int, n_kway: dict = None) -> _ReportArrays:
    """Every NegativityReport field of focus p but n_kway, for a stack of
    amplitude vectors (B, D) or of density matrices (B, D, D).

    Given a dict n_kway, also sets n_kway[K] to the K-way negativities of
    the stack after the channels: for pure input with a qubit focus from
    the amplitude matrices (_pure_kway_norms), else one eigvalsh of each
    rho_K^{T_p}.
    """
    n_global, w, V, X = _global_spectrum(state, dims, p)  # checks the focus
    n, d_p = len(dims), dims[p]
    t_id, s = _channels(X, dims, p, V)
    e_partial = {K: _channel(_kway_trace(t_id, s, K), d_p) for K in range(2, n + 1)}
    e0 = -(2.0 * (n - 2) / (d_p - 1)) * t_id if n > 2 else np.zeros_like(t_id)
    # at three subsystems the pair transposes of the two partners swap the
    # elements of classes 2 and 4 (_channel_plan)
    partners = [q for q in range(n) if q != p] if n == 3 else []
    pair_split = {
        q: (-2.0 * (t_id + s[..., L]) + t_id) / (d_p - 1) for q, L in zip(partners, (2, 4))
    }
    if n_kway is not None and state.ndim == 2 and d_p == 2:
        for K, norm in _pure_kway_norms(X, dims, p).items():
            n_kway[K] = _negativity(norm, d_p)
    elif n_kway is not None:
        M = _outer(state) if state.ndim == 2 else state
        for K in range(2, n + 1):
            # at most one K-way transpose is alive at a time
            n_kway[K] = _negativity(_trace_norm(_kway_pt(M, dims, K, p)), d_p)

    gate = np.abs(e0) <= EPS_NORM
    return _ReportArrays(
        n_global=n_global,
        e_partial=e_partial,
        e0=e0,
        pair_split=pair_split,
        sum_residual=np.abs(n_global - (sum(e_partial.values()) - e0)),
        violates={K: gate & (ek > n_global + EPS_NORM) for K, ek in e_partial.items()},
        eigenvalues=w,
        negative_vectors=_flat_columns(V, dims, p) if state.ndim == 2 else V,
    )


def negativity_report(state: PureState | DensityOperator, p: int) -> NegativityReport:
    """Every negativity measure of focus p: a PureState takes the Schmidt
    route and a DensityOperator the eigh route (see _global_spectrum)."""
    n_kway = {}
    arr = state.amplitudes if isinstance(state, PureState) else state.matrix
    a = _report_arrays(arr[None], state.layout.dims, p, n_kway)

    def row(d: dict) -> dict:
        return {k: float(v[0]) for k, v in d.items()}

    n_global = float(a.n_global[0])
    e_partial = row(a.e_partial)
    return NegativityReport(
        focus=p,
        n_global=n_global,
        n_kway=row(n_kway),
        e_partial=e_partial,
        e0=float(a.e0[0]),
        pair_split=row(a.pair_split),
        negative_eigenpairs=_negative_pairs(a.eigenvalues[0], a.negative_vectors[0]),
        sum_residual=float(a.sum_residual[0]),
        violations=[
            f"e_partial[{K}] = {ek} exceeds n_global = {n_global}"
            for K, ek in e_partial.items()
            if a.violates[K][0]
        ],
    )
