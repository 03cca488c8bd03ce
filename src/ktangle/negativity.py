"""Negativity measures built on the partial transposes.

Each channel is the weight -(2/(d_p - 1)) Tr(P_minus M) of one operator M on
the projector P_minus onto the negative subspace of the GLOBAL transpose.
The global negativity of focus p is (|| rho^{T_p} ||_1 - 1)/(d_p - 1), the
partial K-way negativity E_K^p takes M = rho_K^{T_p}, and
E_0^p = -(2(N-2)/(d_p - 1)) Tr(P_minus rho).

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

_report_arrays computes every report field for a stack of density matrices
at once; negativity_report is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import DensityOperator, _outer, hermitian_eigensystem, trace_norm
from .transpose import _global_pt, _kway_pt, _pair_pt

_T = DEFAULT_TOLERANCES


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
    """The NegativityReport fields of a stack, one entry per stacked matrix.

    violates[K] flags e_partial[K] > n_global + eps_norm where |e0| <= eps_norm.
    eigenvalues are the ascending spectra of the global transposes and
    negative_vectors their leading c eigenvector columns, c the largest number
    of eigenvalues < -eps_eig of any matrix in the stack.
    """

    n_global: np.ndarray
    n_kway: dict
    e_partial: dict
    e0: np.ndarray
    pair_split: dict
    sum_residual: np.ndarray
    violates: dict
    eigenvalues: np.ndarray
    negative_vectors: np.ndarray


def negativity_from_pt(M: np.ndarray, d_p: int):
    """(trace_norm - 1)/(d_p - 1) of a Hermitian trace-one matrix (or stack)."""
    if d_p < 2:
        raise ValueError("focus dimension must be >= 2")
    return (trace_norm(M) - 1.0) / (d_p - 1)


def _negative_pairs(w: np.ndarray, V: np.ndarray) -> list:
    """(eigenvalue, eigenvector) of one spectrum for eigenvalues < -eps_eig.

    V may hold only the leading columns of the eigenvectors; the negative
    eigenvalues of an ascending spectrum come first.
    """
    return [(float(lam), vec.copy()) for lam, vec in zip(w, V.T) if lam < -_T.eps_eig]


def negative_subspace(M: np.ndarray):
    """Eigenpairs of a Hermitian matrix with eigenvalue < -eps_eig."""
    es = hermitian_eigensystem(M)
    return _negative_pairs(es.eigenvalues, es.eigenvectors)


def _trace_with(P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Re Tr(P M) for each stacked pair."""
    return np.trace(P @ M, axis1=-2, axis2=-1).real


def _channel(P: np.ndarray, M: np.ndarray, d_p: int) -> np.ndarray:
    """Weight -(2/(d_p - 1)) Tr(P M) of the operator M on the projector P."""
    return -(2.0 / (d_p - 1)) * _trace_with(P, M)


def _projector_of(M: np.ndarray, dims: tuple, p: int):
    """Global transposes g of a stack, their spectra w, the leading eigenvector
    columns that hold every eigenvalue < -eps_eig, and P_minus per matrix."""
    g = _global_pt(M, dims, p)
    es = hermitian_eigensystem(g)
    neg = es.eigenvalues < -_T.eps_eig
    c = int(neg.sum(axis=-1).max(initial=0))
    # a copy, so that the full eigenvector array is freed on return
    V = es.eigenvectors[..., :c].copy()
    P = np.zeros(M.shape, dtype=complex)
    for j in range(c):
        # |v><v| column by column in ascending order gives each matrix the
        # bits of its own sum; where column j is not negative, the masked
        # zero vector adds exact zeros
        P += _outer(V[..., j] * neg[..., j, None])
    return g, es.eigenvalues, V, P


def _kway_channel(M: np.ndarray, dims: tuple, K: int, p: int) -> np.ndarray:
    """E_K^p of each matrix of a stack, without the rest of the report."""
    return _channel(_projector_of(M, dims, p)[3], _kway_pt(M, dims, K, p), dims[p])


def partial_kway_negativity(rho: DensityOperator, K: int, p: int) -> float:
    """E_K^p alone, for callers that need one channel and not the full report."""
    return float(_kway_channel(rho.matrix[None], rho.layout.dims, K, p)[0])


def _report_arrays(M: np.ndarray, dims: tuple, p: int) -> _ReportArrays:
    """Every NegativityReport field of focus p for a stack M of shape (B, D, D)."""
    n, d_p = len(dims), dims[p]
    g, w, V, P = _projector_of(M, dims, p)

    n_global = negativity_from_pt(g, d_p)
    n_kway = {}
    e_partial = {}
    for K in range(2, n + 1):
        rk = _kway_pt(M, dims, K, p)
        n_kway[K] = negativity_from_pt(rk, d_p)
        e_partial[K] = _channel(P, rk, d_p)
    t_id = _trace_with(P, M)
    e0 = -(2.0 * (n - 2) / (d_p - 1)) * t_id if n > 2 else np.zeros_like(t_id)

    pair_split = {}
    if n == 3:
        for partner in range(3):
            if partner != p:
                t_pair = _trace_with(P, _pair_pt(M, dims, p, partner))
                pair_split[partner] = (-2.0 * t_pair + t_id) / (d_p - 1)

    gate = np.abs(e0) <= _T.eps_norm
    return _ReportArrays(
        n_global=n_global,
        n_kway=n_kway,
        e_partial=e_partial,
        e0=e0,
        pair_split=pair_split,
        sum_residual=np.abs(n_global - (sum(e_partial.values()) - e0)),
        violates={K: gate & (ek > n_global + _T.eps_norm) for K, ek in e_partial.items()},
        eigenvalues=w,
        negative_vectors=V,
    )


def negativity_report(rho: DensityOperator, p: int) -> NegativityReport:
    a = _report_arrays(rho.matrix[None], rho.layout.dims, p)

    def row(d: dict) -> dict:
        return {k: float(v[0]) for k, v in d.items()}

    n_global = float(a.n_global[0])
    e_partial = row(a.e_partial)
    return NegativityReport(
        focus=p,
        n_global=n_global,
        n_kway=row(a.n_kway),
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
