"""Tensor-index plumbing, state containers and small dense linear algebra.

Index convention used throughout the project: basis label |i1 i2 ... iN> maps
to the flat index with the LAST subsystem fastest, so for three qubits
k = 4*i1 + 2*i2 + i3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, NumericalError, ValidationError

_T = DEFAULT_TOLERANCES


@dataclass(frozen=True)
class SubsystemLayout:
    """Dimensions of the tensor factors, last factor fastest."""

    dims: tuple

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValidationError("layout needs at least one subsystem")
        if any(int(d) < 2 for d in self.dims):
            raise ValidationError("every subsystem dimension must be >= 2")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def qubit_layout(n: int) -> SubsystemLayout:
    return SubsystemLayout(tuple([2] * n))


@dataclass
class PureState:
    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.layout.total_dim,):
            raise ValidationError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"layout needs {self.layout.total_dim}"
            )
        nrm = float(np.linalg.norm(self.amplitudes))
        if abs(nrm - 1.0) > _T.eps_norm:
            raise ValidationError(f"state norm = {nrm}, must be 1 within {_T.eps_norm}")


@dataclass
class DensityOperator:
    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        D = self.layout.total_dim
        if self.matrix.shape != (D, D):
            raise ValidationError(f"matrix shape {self.matrix.shape}, layout needs ({D},{D})")
        _check_hermitian(self.matrix)
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > _T.eps_norm:
            raise ValidationError(f"trace = {tr}, must be 1 within {_T.eps_norm}")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -_T.eps_norm:
            raise ValidationError(f"smallest eigenvalue = {lo}, must be >= -{_T.eps_norm}")


@dataclass
class EigenSystem:
    """Ascending real spectrum with orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class LocalUnitary:
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.matrix.shape[0]
        defect = float(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max())
        if defect > 1e-12:
            raise ValidationError(f"unitarity defect = {defect}, allowed 1e-12")


def flat_index(multi, layout: SubsystemLayout) -> int:
    """Row-major flat index of a basis label, last subsystem fastest."""
    if len(multi) != layout.n_subsystems:
        raise IndexError("label length does not match layout")
    k = 0
    for i, d in zip(multi, layout.dims):
        if not 0 <= int(i) < d:
            raise IndexError(f"component {i} out of range for dimension {d}")
        k = k * d + int(i)
    return k


def multi_index(k: int, layout: SubsystemLayout) -> tuple:
    """Inverse of flat_index."""
    if not 0 <= k < layout.total_dim:
        raise IndexError(f"flat index {k} out of range")
    out = []
    for d in reversed(layout.dims):
        out.append(k % d)
        k //= d
    return tuple(reversed(out))


def outer(psi: PureState) -> DensityOperator:
    v = psi.amplitudes
    return DensityOperator(psi.layout, np.outer(v, v.conj()))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not in keep; kept order follows the layout."""
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = rho.layout.n_subsystems
    if any(m < 0 or m >= n for m in keep):
        raise ValueError("keep set references a nonexistent subsystem")
    dims = list(rho.layout.dims)
    t = rho.matrix.reshape(dims + dims)
    for m in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=m, axis2=m + t.ndim // 2)
    sub = SubsystemLayout(tuple(dims[m] for m in keep))
    return DensityOperator(sub, t.reshape(sub.total_dim, sub.total_dim))


def _check_hermitian(M: np.ndarray):
    defect = float(np.abs(M - M.conj().T).max())
    if defect > _T.eps_herm:
        raise ValidationError(f"hermiticity defect = {defect}, allowed {_T.eps_herm}")


def hermitian_eigensystem(M: np.ndarray) -> EigenSystem:
    """Full spectrum of a Hermitian matrix, ascending, residuals checked."""
    M = np.asarray(M, dtype=complex)
    _check_hermitian(M)
    w, V = np.linalg.eigh(M)
    resid = float(np.abs(M @ V - V * w).max())
    if resid > _T.eps_herm:
        raise NumericalError(f"eigenpair residual {resid} exceeds {_T.eps_herm}")
    return EigenSystem(w, V)


def trace_norm(M: np.ndarray) -> float:
    """Sum of singular values; equals sum |eigenvalue| for Hermitian input."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("trace_norm needs a square matrix")
    return float(np.linalg.svd(M, compute_uv=False).sum())


def apply_local_unitary(psi: PureState, u: LocalUnitary) -> PureState:
    dims = psi.layout.dims
    t = psi.amplitudes.reshape(dims)
    t = np.tensordot(u.matrix, t, axes=([1], [u.target]))
    t = np.moveaxis(t, 0, u.target)
    return PureState(psi.layout, t.reshape(psi.layout.total_dim))


def haar_random_pure(layout: SubsystemLayout, seed) -> PureState:
    """Complex-normal amplitudes, normalized.  seed: int or numpy Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return PureState(layout, v / np.linalg.norm(v))
