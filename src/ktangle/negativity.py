"""Negativity measures built on the partial transposes.

Each channel is the weight -(2/(d_p - 1)) Tr(P_minus M) of one operator M on
the projector P_minus onto the negative subspace of the GLOBAL transpose.
The global negativity of focus p is (|| rho^{T_p} ||_1 - 1)/(d_p - 1), the
partial K-way negativity E_K^p takes M = rho_K^{T_p}, and
E_0^p = -(2(N-2)/(d_p - 1)) Tr(P_minus rho).

Everything comes from the negative eigenpairs of the global transpose, by
one of three routes chosen once, from the input (_global_spectrum).  Density
input runs one eigh of rho^{T_p}; the trace norm is the sum of |eigenvalue|
(Vidal & Werner, PRA 65, 032314, 2002).  Pure input takes the Schmidt
decomposition of the d_p x D/d_p amplitude matrix (_schmidt_pairs): the
Schmidt coefficients give the negative eigenpairs and N_G in closed form,
with no D x D eigensolve.  For a qubit focus the decomposition itself is
closed form, one Jacobi rotation of the 2 x 2 Gram matrix (_qubit_schmidt),
so a pure report on qubits makes no LAPACK call; a larger focus runs one
SVD.  Density input of low rank with a qubit focus takes the factor route
(_factor_pairs): core._density_factor gives a factor rho = W W^dagger of
r columns where D >= FACTOR_MIN_DIM and r <= D // FACTOR_RANK_DIVISOR,
from the spectrum validation kept or the vectors of outer and
Ensemble.density, and rho^{T_p} then lives on C^2 (x) span{a_j, b_j} of
the focus halves of those columns, so one QR and one eigh of 4r x 4r give
its nonzero eigenpairs.
Every route masks the eigenvalues at -EPS_EIG and keeps the leading
columns (_negative_columns).  The eigh and factor routes hold their
columns flat, in the D index; the Schmidt route builds them from the
Schmidt factors straight in the focus blocks (d_p, D/d_p) of the amplitude
matrix, which the channels read, and lays them out flat only for the
eigenpairs a report prints.

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
are computed only by negativity_report, for all the foci of a report at
once (_n_kway).  With a qubit focus, a pure state and density input with
its factor W take them from the D/2 x D/2 matrices Y_K (_pure_kway_norms):
rho_K^{T_p} - rho = sigma_y (x) Y_K exactly, so in the sigma_y eigenbasis
rho_K^{T_p} is diag(Y_K, -Y_K) plus the rank-r rho, and its trace norm is a
quadrature over the spectrum of Y_K of an r x r determinant (r = 1 for a
pure state), still with no D x D matrix.  With qubits at the rest, Y_K
links only rest labels at Hamming distance K - 1, so it keeps their parity
for odd K and flips it for even K (_kway_plan): two eigh of D/4 x D/4
blocks give its spectrum for odd K, one SVD of a D/4 x D/4 block for even
K.  The foci whose rests have the same dims share that plan, and one call
takes them all.  Density input without a factor and a larger focus build
each rho_K^{T_p} and run one eigvalsh of it; where rho_K^{T_p} equals rho
entry for entry (Y_K = 0), either route gives the norm 1 exactly.

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
its batch of one, and _negativity_reports that of a list of foci.  The
convex roof (roof.py) evaluates its members, pure stacks only, through
_schmidt (N_G) and _kway_channel (E_K), the same contraction read at one K
(_kway_trace).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import EPS_EIG, EPS_HERM, EPS_NORM, KWAY_QUAD_SPAN, KWAY_QUAD_STEP, KWAY_STACK_ENTRIES
from .config import NumericalError
from .core import DensityOperator, PureState, _density_factor, _eigh, _gather_index, _outer
from .core import _require, _slices, _trace_norm
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


def _factor_pairs(F: np.ndarray, dims: tuple, p: int):
    """N_G^p, the ascending nonzero spectra w and the negative eigenvector
    columns V, flat (_negative_columns), of the global transposes of a stack
    of density matrices rho = W W^dagger with a qubit focus p, from the
    focus blocks F (B, r, 2, m) of the rows of W^T (core._slices), m = D/2,
    with no D x D eigensolve.

    Row j of W^T is |psi_j> = |0>|a_j> + |1>|b_j>, and rho = sum_j
    |psi_j><psi_j|, so the focus block (y, x) of rho^{T_p} is
    sum_j c_x^j c_y^j^dagger with c_0 = a, c_1 = b, and rho^{T_p} lives on
    C^2 (x) span{a_j, b_j}.  One QR of the m x 2r matrix [a, b] gives an
    orthonormal basis Q of that span, and rho^{T_p} = (1 (x) Q) C
    (1 (x) Q)^dagger with the 2k x 2k blocks sum_j alpha_x^j alpha_y^j^dagger
    of C, alpha = Q^dagger c, k = min(2r, m).  One eigh of C gives every
    eigenpair outside the kernel of rho^{T_p}, and its trace norm is their
    sum of |w|.
    """
    B, r, _, m = F.shape
    Q = np.linalg.qr(F.reshape(B, 2 * r, m).swapaxes(-1, -2))[0]
    k = Q.shape[-1]
    alpha = F @ Q.conj()[:, None]  # (B, r, 2, k)
    C = np.einsum("bjxl,bjyL->bylxL", alpha, alpha.conj()).reshape(B, 2 * k, 2 * k)
    w, u = _eigh(C)
    n_global = _negativity(np.abs(w).sum(axis=-1), 2)
    # the negative columns of u in its focus blocks, then in the D index
    V = Q[:, None] @ _negative_columns(w, u.reshape(B, 2, k, 2 * k))
    return n_global, w, _flat_columns(V, dims, p)


def _global_spectrum(state: np.ndarray, dims: tuple, p: int, factor: np.ndarray = None):
    """N_G^p of each state of a stack, the ascending spectra w of the global
    transposes, their negative eigenvector columns (_negative_columns) and
    the operand X of _channels.

    A (B, D) stack of amplitude vectors takes the Schmidt route
    (_schmidt_pairs), whose columns come in focus blocks (B, d_p, D/d_p, c),
    and X is its stack of amplitude matrices S (B, d_p, D/d_p), gathered
    once.  A (B, D, D) stack of density matrices with their factor rows
    factor (B, r, D) and a qubit focus takes the factor route
    (_factor_pairs), w only the nonzero part of each spectrum; without a
    factor, or with a larger focus, the eigh route.  Both give flat columns,
    (B, D, c), and X is the stack itself.
    """
    if state.ndim == 2:
        return _schmidt_pairs(state, dims, p)
    if factor is not None:
        _check_focus(p, len(dims))
        if dims[p] == 2:
            return (*_factor_pairs(_slices(factor, dims, (p,)), dims, p), state)
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
def _kway_plan(dims: tuple, p: int):
    """The classes of the rest labels of focus p and the blocks of the masks
    H_K of the rest-label pairs that differ in K - 1 subsystems, K = 2..n;
    cached per (dims, p), read-only.

    With qubits only at the rest there are two classes, the rest labels of
    even and of odd parity, E and O, each of h = D/4 labels in increasing
    order.  K - 1 flipped bits keep the parity for odd K and flip it for
    even K, so H_K is diag(H_K[E, E], H_K[O, O]) for odd K and has only the
    block H_K[E, O] and its transpose for even K.  A qudit at the rest makes
    one class of all D/2 labels, whose one block is every H_K.

    Returns (rows, cols, (diag, Hd), (off, Ho)).  rows (c, h) holds the rest
    indices of the c classes, and cols (s, c, h) the same classes shifted
    by 0..s - 1, so that the block of rows class j and columns class
    j + shift is (shift, j).  The K at the positions diag of the list
    K = 2..n have the diagonal blocks Hd (k_d, c, h, h); the K at the
    positions off have the blocks H_K[E, O], as Ho (k_o, 1, h, h).  diag and
    off are slices, and off is empty with one class.
    """
    _check_focus(p, len(dims))
    rest = dims[:p] + dims[p + 1 :]
    dg, diff = _label_tables(rest)
    if rest and set(rest) == {2}:
        # a stable sort keeps each class in increasing order
        rows = np.argsort(dg.sum(axis=1) % 2, kind="stable").reshape(2, -1)
        cols = np.stack([rows, rows[::-1]])
        diag, off = slice(1, None, 2), slice(0, None, 2)
    else:
        rows = np.arange(len(dg))[None]
        cols = rows[None]
        diag, off = slice(None), slice(0, 0)
    Ks = np.arange(1, len(dims), dtype=np.uint8)[:, None, None, None]  # K - 1
    Hd = diff[rows[:, :, None], rows[:, None, :]] == Ks[diag]
    Ho = diff[rows[:1, :, None], rows[-1:, None, :]] == Ks[off]
    for a in (rows, cols, Hd, Ho):
        a.flags.writeable = False
    return rows, cols, (diag, Hd), (off, Ho)


# The quadrature of _pure_kway_norms: the nodes t = e^x, t^2, and the
# weights step t / pi that integrate over x (dt = t dx).
_NODES = np.exp(np.arange(-KWAY_QUAD_SPAN, KWAY_QUAD_SPAN + KWAY_QUAD_STEP / 2, KWAY_QUAD_STEP))
_T2 = _NODES * _NODES
_WEIGHTS = KWAY_QUAD_STEP / math.pi * _NODES
# the rows phi_+- = (a -+ i b)/sqrt(2) from the rows a, b of S, the rows
# w_+ + w_- and w_+ - w_- from the rows w_+-, and the signs of the
# eigenvalues +-sigma of an even K
_PHI = np.array([[1.0, -1j], [1.0, 1j]]) * math.sqrt(0.5)
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])
_SIGNS = np.array([[1.0], [-1.0]])


@functools.lru_cache(maxsize=8)
def _minor_tables(r: int):
    """The layout of the r^2 real rows of r x r Hermitian matrices in
    _pure_kway_norms: the diagonal, then the real and the imaginary parts of
    the entries (i, j), i < j, in np.triu_indices order.  Returns (i, j),
    the rows take (4 r^2,) that gather, for the rows (R, P) of _det_excess,
    Re P, Im R, Im P and Re R at each entry (a, b) of an r x r matrix (any
    row for the zero imaginary parts of the diagonal), and sign (r, r, 1),
    +1 above the diagonal, -1 below it and 0 on it; read-only."""
    i, j = np.triu_indices(r, 1)
    pair = r + np.arange(len(i))
    re = np.diag(np.arange(r))
    im = np.zeros((r, r), dtype=np.intp)
    sign = np.zeros((r, r, 1))
    re[i, j] = re[j, i] = pair
    im[i, j] = im[j, i] = pair + len(i)
    sign[i, j], sign[j, i] = 1.0, -1.0
    n = r * r
    take = np.concatenate([re + n, im, im + n, re], axis=None)
    for a in (i, j, take, sign):
        a.flags.writeable = False
    return i, j, take, sign


def _products(x: np.ndarray) -> np.ndarray:
    """The products x_a conj(x_b) of the r > 1 rows x_a of x (..., r, k, 2,
    c, h) as r^2 real rows (..., k, 2, r^2, c, h), laid out as _minor_tables
    says."""
    i, j = _minor_tables(x.shape[-5])[:2]
    cross = x[..., i, :, :, :, :] * x[..., j, :, :, :, :].conj()
    sq = np.concatenate([(x.conj() * x).real, cross.real, cross.imag], axis=-5)
    return np.moveaxis(sq, -5, -3)


def _det_excess(ba: np.ndarray) -> np.ndarray:
    """|det(1 + P - itR)|^2 - 1 at each node t, from the rows ba
    (..., 2 r^2, nodes) of _pure_kway_norms, r > 1: the r^2 rows of R, then
    those of P (_minor_tables).

    det(1 + M) - 1 = c of M = P - itR comes from Schur complements: each
    pivot a makes a factor 1 + a of the determinant, and c gathers them as
    c + a + c a, so no term cancels where M is small; then
    |1 + c|^2 - 1 = (2 + Re c) Re c + (Im c)^2.  The pivots are never -1:
    1 + a is the ratio of det(A + it + Phi_l Phi_l^dagger) to the same
    determinant with one column of Phi_l less, each of a Hermitian matrix
    plus it, t > 0.
    """
    r = math.isqrt(ba.shape[-2] // 2)
    _, _, take, sign = _minor_tables(r)
    # M = P - itR = (Re P + t s Im R) + i (s Im P - t Re R) at entry (a, b),
    # s its sign
    g = np.take(ba, take, axis=-2).reshape(ba.shape[:-2] + (4, r, r, ba.shape[-1]))
    st = sign * _NODES
    M = (g[..., 0, :, :, :] + st * g[..., 1, :, :, :]) + 1j * (
        sign * g[..., 2, :, :, :] - _NODES * g[..., 3, :, :, :])
    c = 0.0
    while True:
        a = M[..., 0, 0, :]
        c = c + a + c * a
        if M.shape[-2] == 1:
            return (c.real + 2.0) * c.real + c.imag * c.imag
        M = M[..., 1:, 1:, :] - M[..., 1:, :1, :] * (M[..., :1, 1:, :] / (1.0 + a)[..., None, None, :])


def _pure_kway_norms(S: np.ndarray, dims: tuple, p: int) -> dict:
    """||rho_K^{T_p}||_1, K = 2..n, of each state of a stack rho = W W^dagger
    with a qubit focus p, from the 2 x m matrices S (..., r, 2, m)
    (core._slices) of the r rows of W^T, with rows a_j and b_j, m = D/2, and
    no D x D matrix: with qubits only at the rest, two eigh of h x h for
    each odd K and one SVD of h x h for each even K, h = D/4.  A pure state
    is the case r = 1, W = psi.

    rho_K^{T_p} swaps the off-diagonal focus blocks of rho on the rest pairs
    of mask H_K, so rho_K^{T_p} - rho = sigma_y (x) Y_K with the Hermitian
    Y_K = sum_j i(b_j a_j^dagger - a_j b_j^dagger) o H_K.  In the sigma_y
    eigenbasis that term is A = diag(Y_K, -Y_K), and rho is Phi Phi^dagger,
    column j of Phi with the halves phi_+-^j = (a_j -+ i b_j)/sqrt(2), in
    which Y_K = sum_j (phi_-^j phi_-^j^dagger - phi_+^j phi_+^j^dagger) o H_K.
    A Hermitian M has ||M||_1 = (1/pi) int_0^inf ln det(1 + M^2/t^2) dt,
    since int_0^inf ln(1 + x^2/t^2) dt = pi |x|, and det(M^2 + t^2) =
    |det(M + it)|^2.  For M = A + Phi Phi^dagger the determinant lemma
    det(M + it) = det(A + it) det(1 + Phi^dagger (A + it)^-1 Phi) then gives

        ||rho_K^{T_p}||_1 = 2 sum|y| + (1/pi) int_0^inf ln|det(1 + P - itR)|^2 dt,

    with Y_K = Q diag(y) Q^dagger, the r x r products w_+-[k] of the rows
    k of Q^dagger phi_+-, q_k = 1/(y_k^2 + t^2), R = sum_k q_k (w_+ + w_-)[k]
    and P = sum_k q_k y_k (w_+ - w_-)[k], so that Phi^dagger (A + it)^-1 Phi
    = P - itR.  For r = 1, P = alpha and R = beta are numbers and the
    integrand is log1p(alpha (2 + alpha) + t^2 beta^2); for r > 1 it is
    log1p of |det(1 + P - itR)|^2 - 1 from Schur complements (_det_excess).
    Both are accurate where the integrand is small, and the integral is the
    trapezoid rule in ln t (config.KWAY_QUAD_STEP); it needs no root
    finding, and zero weights and tied y are harmless.

    The eigenpairs of Y_K come from its blocks in the classes of _kway_plan.
    For odd K, Y_K = diag(Y_EE, Y_OO), and one stacked eigh of all these
    blocks gives them.  For even K, Y_K = [[0, C], [C^dagger, 0]] with
    C = Y_K[E, O], and the SVD C = U diag(sigma) V^dagger gives the
    eigenvalues +-sigma_j with the eigenvectors (u_j, +-v_j)/sqrt(2); one
    stacked SVD takes all of them.  With one class every Y_K is its own
    block and takes the eigh.  Where Y_K = 0 (every y = 0, as for GHZ
    states below K = n), rho_K^{T_p} = rho and the norm is exactly 1.  The
    blocks of one kind and their factors hold at most D^2 / 2 entries per
    state, and the quadrature runs two K at a time.  A norm must lie within
    ||rho||_1 = 1 of 2 sum|y| (the triangle inequality) and be at least
    |Tr rho_K^{T_p}| = 1, each within EPS_NORM, or NumericalError.
    """
    rows, cols, (diag, Hd), (off, Ho) = _kway_plan(dims, p)
    lead, r, k, (c, h) = S.shape[:-3], S.shape[-3], len(dims) - 1, rows.shape
    # the rows phi_+- of the classes shifted by 0, 1, ..., (..., r, 2, s, c,
    # h); shift 0 is the classes themselves
    G = (_PHI @ S)[..., cols]
    Gc = G.conj()
    # Y_K = sum_j (phi_- phi_-^dagger - phi_+ phi_+^dagger) o H_K, and
    # T[..., shift, j] is its first factor on the rows of class j and the
    # columns of class j + shift, with the products of _outer
    T = G[..., 1, None, 0, :, :, None] * Gc[..., 1, :, :, None, :]
    T -= G[..., 0, None, 0, :, :, None] * Gc[..., 0, :, :, None, :]
    T = T[..., 0, :, :, :, :] if r == 1 else T.sum(axis=-5)
    # the rows phi_+-^dagger of each class, (..., r, 1, c, 2, h)
    phi_h = Gc[..., 0, :, :].swapaxes(-3, -2)[..., None, :, :, :]
    # the spectra y and the products w_+- of K = 2..n, class by class
    y = np.empty(lead + (k, c, h))
    w = np.empty(lead + (k, 2, r * r, c, h))
    if len(Hd):
        y[..., diag, :, :], Q = np.linalg.eigh(T[..., None, 0, :, :, :] * Hd)
        # the rows conj(Q^dagger phi_+-), (..., r, k_d, 2, c, h)
        x = (phi_h @ Q[..., None, :, :, :, :]).swapaxes(-3, -2)
        w[..., diag, :, :, :, :] = (x.conj() * x).real[..., 0, :, :, None, :, :] if r == 1 else _products(x)
        del Q  # not held through the SVD
    if len(Ho):
        U, sigma, Vh = np.linalg.svd(T[..., None, 1:, 0, :, :] * Ho)
        np.multiply(sigma, _SIGNS, out=y[..., off, :, :])
        # conj((u_j, +-v_j)^dagger phi) = x_E +- x_O with the rows
        # x_E = conj(U^dagger phi_E) and x_O = conj(V^dagger phi_O)
        xE = (phi_h[..., :1, :, :] @ U[..., None, :, :, :, :])[..., 0, :, None, :]
        V = np.conjugate(Vh, out=Vh).swapaxes(-1, -2)
        xO = (phi_h[..., 1:, :, :] @ V[..., None, :, :, :, :])[..., 0, :, None, :]
        x = xE + xO * _SIGNS  # (..., r, k_o, 2, 2, h)
        xx = (x.conj() * x).real[..., 0, :, :, None, :, :] if r == 1 else _products(x)
        np.multiply(xx, 0.5, out=w[..., off, :, :, :, :])
    m = c * h
    y = y.reshape(lead + (k, m))
    # the rows of R and of P per K: sums and differences of w_+ and w_-
    su = (_SUM_DIFF @ w.reshape(lead + (k, 2, r * r * m))).reshape(lead + (k, 2, r * r, m))
    su[..., 1, :, :] *= y[..., None, :]
    norms = {}
    for i in range(0, k, 2):
        yi = y[..., i : i + 2, :]
        q = np.square(yi)[..., :, None] + _T2  # (..., 2, m, nodes)
        np.reciprocal(q, out=q)
        if r == 1:
            # R = beta and P = alpha are numbers
            ba = su[..., i : i + 2, :, 0, :] @ q
            beta, alpha = ba[..., 0, :], ba[..., 1, :]
            e = (alpha + 2.0) * alpha
            e += _T2 * beta * beta
        else:
            e = _det_excess(su[..., i : i + 2, :, :, :].reshape(yi.shape[:-1] + (2 * r * r, m)) @ q)
        integral = np.log1p(e) @ _WEIGHTS
        poles = 2.0 * np.add.reduce(np.abs(yi), axis=-1)
        norm = poles + integral
        norm[poles == 0.0] = 1.0  # where Y_K = 0, rho_K^{T_p} = rho
        gap = np.abs(norm - poles)
        _require(gap <= 1.0 + EPS_NORM, gap,
                 f"K-way trace norm is {{}} from 2 sum|y|, more than 1 + {EPS_NORM}",
                 NumericalError)
        _require(norm >= 1.0 - EPS_NORM, norm, f"K-way trace norm {{}} is below 1 - {EPS_NORM}",
                 NumericalError)
        for j in range(norm.shape[-1]):
            norms[2 + i + j] = norm[..., j]
    return norms


def _dense_kway_norm(M: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    """||rho_K^{T_p}||_1 of each matrix of a stack by one eigvalsh, and
    exactly 1 where rho_K^{T_p} equals rho entry for entry; with no eigvalsh
    where every matrix of the stack does."""
    R = _kway_pt(M, dims, K, p)
    same = (R == M).all(axis=(-2, -1))
    if same.all():
        return np.ones(same.shape)
    norm = _trace_norm(R)
    norm[same] = 1.0
    return norm


def _n_kway(state: np.ndarray, dims: tuple, foci: list, factor: np.ndarray = None) -> list:
    """The K-way negativities {K: n_kway[K]}, K = 2..n, of a stack of
    amplitude vectors (B, D) or of density matrices (B, D, D), one dict per
    focus of foci.

    A qubit focus of pure input, or of density input with its factor rows
    factor (B, r, D), takes them from the factor (_pure_kway_norms).  The
    foci whose rests have the same dims share one plan, so they go through
    one call, up to KWAY_STACK_ENTRIES // D^2 foci a call: a stack of them
    gives each focus the bytes of its own call.  Any other focus builds each
    rho_K^{T_p} and takes its trace norm by one eigvalsh (_dense_kway_norm).
    """
    n, D = len(dims), math.prod(dims)
    F = state[..., None, :] if state.ndim == 2 else factor
    out, groups, M = [None] * len(foci), {}, None
    for i, p in enumerate(foci):
        if F is not None and dims[p] == 2:
            groups.setdefault(dims[:p] + dims[p + 1 :], []).append(i)
            continue
        if M is None:
            M = _outer(state) if state.ndim == 2 else state
        # at most one K-way transpose is alive at a time
        out[i] = {K: _negativity(_dense_kway_norm(M, dims, K, p), dims[p]) for K in range(2, n + 1)}
    per_call = max(1, KWAY_STACK_ENTRIES // (D * D))
    for idx in groups.values():
        for start in range(0, len(idx), per_call):
            chunk = idx[start : start + per_call]
            S = np.stack([_slices(F, dims, (foci[i],)) for i in chunk])
            norms = _pure_kway_norms(S, dims, foci[chunk[0]])
            for j, i in enumerate(chunk):
                out[i] = {K: _negativity(v[j], 2) for K, v in norms.items()}
    return out


def _report_arrays(state: np.ndarray, dims: tuple, p: int, n_kway: dict = None,
                   factor: np.ndarray = None) -> _ReportArrays:
    """Every NegativityReport field of focus p but n_kway, for a stack of
    amplitude vectors (B, D) or of density matrices (B, D, D), the latter
    with their factor rows factor (B, r, D) where kept (_global_spectrum).

    Given a dict n_kway, also sets n_kway[K] to the K-way negativities of
    the stack (_n_kway).
    """
    n_global, w, V, X = _global_spectrum(state, dims, p, factor)  # checks the focus
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
    if n_kway is not None:
        n_kway.update(_n_kway(state, dims, [p], factor)[0])

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
    route, and a DensityOperator the factor route where it kept a factor and
    p is a qubit, else the eigh route (see _global_spectrum)."""
    return _negativity_reports(state, [p])[0]


def _negativity_reports(state: PureState | DensityOperator, foci: list) -> list:
    """The negativity_report of each focus of foci, their K-way negativities
    taken together (_n_kway)."""
    dims = state.layout.dims
    for p in foci:
        _check_focus(p, len(dims))
    if isinstance(state, PureState):
        arr, factor = state.amplitudes[None], None
    else:
        arr, factor = state.matrix[None], _density_factor(state)
        factor = None if factor is None else factor[None]

    def row(d: dict) -> dict:
        return {k: float(v[0]) for k, v in d.items()}

    reports = []
    for p, n_kway in zip(foci, _n_kway(arr, dims, foci, factor)):
        a = _report_arrays(arr, dims, p, factor=factor)
        n_global = float(a.n_global[0])
        e_partial = row(a.e_partial)
        reports.append(NegativityReport(
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
        ))
    return reports
