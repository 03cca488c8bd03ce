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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import DensityOperator, hermitian_eigensystem, trace_norm
from .transpose import global_pt, kway_pt, pair_pt

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


def negativity_from_pt(M: np.ndarray, d_p: int) -> float:
    """(trace_norm - 1)/(d_p - 1) of a Hermitian trace-one matrix."""
    if d_p < 2:
        raise ValueError("focus dimension must be >= 2")
    return (trace_norm(M) - 1.0) / (d_p - 1)


def negative_subspace(M: np.ndarray):
    """Eigenpairs of a Hermitian matrix with eigenvalue < -eps_eig."""
    es = hermitian_eigensystem(M)
    out = []
    for lam, vec in zip(es.eigenvalues, es.eigenvectors.T):
        if lam < -_T.eps_eig:
            out.append((float(lam), vec.copy()))
    return out


def _negative_projector(pairs, D: int) -> np.ndarray:
    """P_minus = sum of |v><v| over the negative eigenpairs."""
    P = np.zeros((D, D), dtype=complex)
    for _, vec in pairs:
        P += np.outer(vec, vec.conj())
    return P


def _channel(P: np.ndarray, M: np.ndarray, d_p: int) -> float:
    """Weight -(2/(d_p - 1)) Tr(P M) of the operator M on the projector P."""
    return float(-(2.0 / (d_p - 1)) * np.trace(P @ M).real)


def partial_kway_negativity(rho: DensityOperator, K: int, p: int) -> float:
    """E_K^p alone, for callers that need one channel and not the full report."""
    P = _negative_projector(negative_subspace(global_pt(rho, p)), rho.layout.total_dim)
    return _channel(P, kway_pt(rho, K, p), rho.layout.dims[p])


def negativity_report(rho: DensityOperator, p: int) -> NegativityReport:
    n = rho.layout.n_subsystems
    d_p = rho.layout.dims[p]
    g = global_pt(rho, p)
    pairs = negative_subspace(g)
    P = _negative_projector(pairs, rho.layout.total_dim)

    n_global = negativity_from_pt(g, d_p)
    n_kway = {}
    e_partial = {}
    for K in range(2, n + 1):
        rk = kway_pt(rho, K, p)
        n_kway[K] = negativity_from_pt(rk, d_p)
        e_partial[K] = _channel(P, rk, d_p)
    t_id = np.trace(P @ rho.matrix).real
    e0 = 0.0
    if n > 2:
        e0 = float(-(2.0 * (n - 2) / (d_p - 1)) * t_id)

    pair_split = {}
    if n == 3:
        for partner in range(3):
            if partner == p:
                continue
            t_pair = np.trace(P @ pair_pt(rho, p, partner)).real
            pair_split[partner] = float((-2.0 * t_pair + t_id) / (d_p - 1))

    sum_residual = abs(n_global - (sum(e_partial.values()) - e0))
    violations = []
    if abs(e0) <= _T.eps_norm:
        for K, ek in e_partial.items():
            if ek > n_global + _T.eps_norm:
                violations.append(f"e_partial[{K}] = {ek} exceeds n_global = {n_global}")

    return NegativityReport(
        focus=p,
        n_global=float(n_global),
        n_kway=n_kway,
        e_partial=e_partial,
        e0=e0,
        pair_split=pair_split,
        negative_eigenpairs=pairs,
        sum_residual=float(sum_residual),
        violations=violations,
    )
