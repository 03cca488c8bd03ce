"""Tensor-index plumbing, state containers and small dense linear algebra.

Index convention used throughout the project: basis label |i1 i2 ... iN> maps
to the flat index with the LAST subsystem fastest, so for three qubits
k = 4*i1 + 2*i2 + i3.

Validation happens once, at the boundary: the state-file parser, the public
constructors (PureState, DensityOperator, LocalUnitary, Ensemble) and the
public functions that take a raw array (trace_norm, negativity_from_pt)
check their input: norm, trace and probability-sum defects within EPS_NORM,
hermiticity within EPS_HERM, no eigenvalue below -EPS_NORM and unitarity
within UNITARITY_EPS, all named in config, and a square local unitary with
a nonnegative target.  A DensityOperator whose hermiticity defect passes the
check but exceeds TRANSPOSE_HERM_EPS, what the public partial transposes
accept, stores its Hermitian part, and keeps the spectrum of its check;
outer and Ensemble.density keep their vectors as a factor rho = W W^dagger.
_density_factor alone decides from these whether a report takes the factor
route of the negativities, and builds W there from the spectrum the first
time it is needed.
What the package derives from checked objects is trusted and built through
_derived, which skips __post_init__: the results of outer, partial_trace,
apply_local_unitary and haar_random_pure, the canonical forms and their
unitaries, the GHZ+W states and grid parameters, and the roof's members
and certificate.  The modules call the kernels _eigh and _trace_norm, which
skip the hermiticity check (_eigh keeps the eigenpair residual check, as
the Schmidt route of negativity keeps its reconstruction check).

trace_norm and the private checks and kernels also take stacks: leading
axes index the stack and the last two axes hold each matrix.  A check
applies to every matrix of the stack and names the first one that fails.
A check passes only where "defect <= bound" holds, so NaN fails it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import (
    EPS_HERM,
    EPS_NORM,
    FACTOR_MIN_DIM,
    FACTOR_RANK_DIVISOR,
    FACTOR_TAIL,
    TRANSPOSE_HERM_EPS,
    UNITARITY_EPS,
    NumericalError,
    ValidationError,
)


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
        object.__setattr__(self, "_total_dim", math.prod(self.dims))

    @property
    def total_dim(self) -> int:
        return self._total_dim

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
        _check_norm(self.amplitudes)


@dataclass
class DensityOperator:
    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        D = self.layout.total_dim
        if self.matrix.shape != (D, D):
            raise ValidationError(f"matrix shape {self.matrix.shape}, layout needs ({D},{D})")
        defect, self._spectrum = _check_density(self.matrix)
        if defect > TRANSPOSE_HERM_EPS:
            # the check allows a hermiticity defect up to EPS_HERM, but a
            # partial transpose carries at most TRANSPOSE_HERM_EPS: keep the
            # Hermitian part
            self.matrix = (self.matrix + self.matrix.conj().T) / 2


def _derived(cls, **fields):
    """An instance of the dataclass cls with the given fields, derived from
    validated input and so built without its __post_init__ check (frozen
    classes included).  The fields must already be in the form the check
    would leave them in."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass
class LocalUnitary:
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.target < 0:
            raise ValidationError(f"target {self.target} must be a nonnegative subsystem index")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValidationError(f"local unitary has shape {self.matrix.shape}, must be square")
        d = self.matrix.shape[0]
        defect = float(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)).max())
        if not (defect <= UNITARITY_EPS):
            raise ValidationError(f"unitarity defect = {defect}, allowed {UNITARITY_EPS}")


def _require(ok, value, message: str, error=ValidationError):
    """Raise error for the first stacked matrix whose check ok is not True.

    ok and value hold one entry per stacked matrix (0-d for a single one);
    message is formatted with the failing value.
    """
    # bool() of a single entry is far cheaper than the reduction of .all()
    if bool(ok) if ok.size == 1 else ok.all():
        return
    i = np.unravel_index(int(np.argmin(ok)), ok.shape)
    where = f" (stack index {i[0] if ok.ndim == 1 else i})" if ok.ndim else ""
    raise error(message.format(np.asarray(value)[i]) + where)


def _hermiticity_defect(M: np.ndarray) -> np.ndarray:
    """Largest entry of |M - M^dagger| for each stacked matrix (NaN propagates)."""
    return np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _check_hermitian(M: np.ndarray) -> np.ndarray:
    """Hermiticity defect <= EPS_HERM per stacked matrix; returns the defects."""
    defect = _hermiticity_defect(M)
    _require(defect <= EPS_HERM, defect, f"hermiticity defect = {{}}, allowed {EPS_HERM}")
    return defect


def _check_density(M: np.ndarray):
    """Hermiticity, unit trace and no eigenvalue below -EPS_NORM, per stacked
    matrix, by one eigvalsh; returns the hermiticity defects and the
    ascending spectra."""
    defect = _check_hermitian(M)
    tr = np.trace(M, axis1=-2, axis2=-1)
    _require(np.abs(tr - 1.0) <= EPS_NORM, tr, f"trace = {{}}, must be 1 within {EPS_NORM}")
    w = np.linalg.eigvalsh(M)
    lo = w[..., 0]
    _require(lo >= -EPS_NORM, lo, f"smallest eigenvalue = {{}}, must be >= -{EPS_NORM}")
    return defect, w


def _factor_rows(M: np.ndarray, r: int) -> np.ndarray:
    """The rows (r, D) of a factor W of the Hermitian matrix M of numerical
    rank r, M = W W^dagger up to the eigenvalues dropped as roundoff.

    The range of M comes from M Omega, Omega a fixed Gaussian D x 2r probe:
    one QR of it gives an orthonormal basis Q, and the eigenpairs (mu, U) of
    the 2r x 2r matrix Q^dagger M Q give W = Q U_+ sqrt(mu_+) from the r
    largest mu, with no D x D eigensolve.
    """
    D = M.shape[-1]
    Q = np.linalg.qr(M @ np.random.default_rng(D).standard_normal((D, 2 * r)))[0]
    mu, U = np.linalg.eigh(Q.conj().T @ M @ Q)
    return ((Q @ U[:, r:]) * np.sqrt(np.maximum(mu[r:], 0.0))).T


def _density_factor(rho) -> np.ndarray:
    """The factor rows W (r, D) of rho = W W^dagger where a report of a
    qubit focus takes the factor route, else None; the one place that
    decides the route.

    W is the vectors outer and Ensemble.density keep, or else is built from
    the spectrum w of the check (_factor_rows) the first time it is asked
    for, and kept.  Its rank r counts the eigenvalues above the cutoff
    cut = FACTOR_TAIL * D * eps * lambda_max, the rest being roundoff, and
    no eigenvalue may lie below -cut.  The route needs a qubit in the
    layout, D >= FACTOR_MIN_DIM and r <= D // FACTOR_RANK_DIVISOR, where it
    costs less than the D x D eigensolves (config), and W W^dagger must
    meet every entry of rho.matrix within FACTOR_TAIL * D * eps
    (lambda_max <= 1): not so where the range probe missed a direction or
    the matrix was written to since W was kept (DensityOperator is
    mutable).
    """
    D = rho.layout.total_dim
    if D < FACTOR_MIN_DIM or 2 not in rho.layout.dims:
        return None
    W = getattr(rho, "_factor", None)
    if W is None:
        w = getattr(rho, "_spectrum", None)
        if w is None:
            return None
        cut = FACTOR_TAIL * D * np.finfo(float).eps * w[-1]
        r = int((w > cut).sum())
        if w[0] < -cut or r > D // FACTOR_RANK_DIVISOR:
            return None
        W = rho._factor = _factor_rows(rho.matrix, r)
    elif len(W) > D // FACTOR_RANK_DIVISOR:
        return None
    resid = np.abs(rho.matrix - W.T @ W.conj()).max()
    return W if resid <= FACTOR_TAIL * D * np.finfo(float).eps else None


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each stacked vector, bit for bit np.linalg.norm of it."""
    re, im = v.real, v.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


def _check_norm(v: np.ndarray):
    """|norm^2 - 1| <= EPS_NORM per stacked vector, as for a trace."""
    nrm = _norms(v)
    message = f"state norm = {{}}, its square must be 1 within {EPS_NORM}"
    _require(np.abs(nrm * nrm - 1.0) <= EPS_NORM, nrm, message)


def _outer(v: np.ndarray) -> np.ndarray:
    """|v><v| of each stacked vector, with the products of np.outer."""
    return v[..., :, None] * v[..., None, :].conj()


def outer(psi: PureState) -> DensityOperator:
    """|psi><psi|, which keeps psi as its factor (_density_factor)."""
    m = _outer(psi.amplitudes)
    return _derived(DensityOperator, layout=psi.layout, matrix=m, _factor=psi.amplitudes[None])


@functools.lru_cache(maxsize=32)
def _gather_index(dims: tuple, first: tuple) -> np.ndarray:
    """Flat amplitude indices in the matrix layout of _slices(.., dims, first),
    cached per (dims, first) and read-only: a roof step lays out a stack of a
    few short vectors, where building the index per call would cost more than
    the gather."""
    t = np.moveaxis(np.arange(math.prod(dims)).reshape(dims), first, range(len(first)))
    index = t.reshape(math.prod(dims[m] for m in first), -1)
    index.flags.writeable = False
    return index


def _slices(amps: np.ndarray, dims: tuple, first: tuple) -> np.ndarray:
    """Amplitude stack (..., D) as matrices: rows index the subsystems in
    first (in that order), columns the others (in layout order).

    take writes its result in C order, so each matrix is contiguous and a
    row sum adds its terms in the same order in a stack of any size.
    """
    return amps.take(_gather_index(dims, first), axis=-1)


def _keep_list(keep, n: int) -> list:
    """The sorted, distinct subsystems of keep, checked against n subsystems."""
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(m < 0 or m >= n for m in keep):
        raise ValueError("keep set references a nonexistent subsystem")
    return keep


def _partial_trace(M: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Reduced matrices of a stack on the subsystems in keep.

    The reductions of validated density matrices are density matrices, so
    the results are not checked again.
    """
    n, lead = len(dims), M.shape[:-2]
    keep = _keep_list(keep, n)
    t = M.reshape(lead + dims + dims)
    for m in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=len(lead) + m, axis2=len(lead) + m + (t.ndim - len(lead)) // 2)
    d = math.prod(dims[m] for m in keep)
    return t.reshape(lead + (d, d))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not in keep; kept order follows the layout."""
    keep = _keep_list(keep, rho.layout.n_subsystems)
    sub = SubsystemLayout(tuple(rho.layout.dims[m] for m in keep))
    M = _partial_trace(rho.matrix, rho.layout.dims, keep)
    return _derived(DensityOperator, layout=sub, matrix=M)


def _eigh(M: np.ndarray):
    """Ascending spectra w and eigenvectors V of a Hermitian stack, residuals
    checked; the hermiticity of M is not."""
    w, V = np.linalg.eigh(M)
    resid = np.abs(M @ V - V * w[..., None, :]).max(axis=(-2, -1))
    _require(resid <= EPS_HERM, resid, f"eigenpair residual {{}} exceeds {EPS_HERM}",
             NumericalError)
    return w, V


def _trace_norm(M: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalue| of each stacked Hermitian matrix, unchecked."""
    return np.abs(np.linalg.eigvalsh(M)).sum(axis=-1)


def trace_norm(M: np.ndarray):
    """Trace norm of a Hermitian matrix (or stack): the sum of |eigenvalue|.

    The input must be Hermitian, as every partial transpose of a density
    operator is; a hermiticity defect above EPS_HERM raises ValidationError
    rather than returning the eigenvalue sum of the wrong matrix.  A float
    for one matrix, an array with one entry per matrix for a stack.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("trace_norm needs a square matrix")
    _check_hermitian(M)
    s = _trace_norm(M)
    return float(s) if M.ndim == 2 else s


def apply_local_unitary(psi: PureState, u: LocalUnitary) -> PureState:
    dims = psi.layout.dims
    if u.target >= len(dims):
        raise ValueError(f"target {u.target} out of range for {len(dims)} subsystems")
    if u.matrix.shape[0] != dims[u.target]:
        raise ValueError(
            f"local unitary of dimension {u.matrix.shape[0]} on subsystem {u.target} "
            f"of dimension {dims[u.target]}"
        )
    t = psi.amplitudes.reshape(dims)
    t = np.tensordot(u.matrix, t, axes=([1], [u.target]))
    t = np.moveaxis(t, 0, u.target)
    return _derived(PureState, layout=psi.layout, amplitudes=t.reshape(psi.layout.total_dim))


def _haar_amplitudes(D: int, rng: np.random.Generator, b: int) -> np.ndarray:
    """b normalized complex-normal vectors of length D, as rows.

    Each row takes its real and then its imaginary parts from the stream, so
    b rows equal b successive haar_random_pure calls bit for bit.
    """
    z = rng.standard_normal((b, 2, D))
    v = z[:, 0] + 1j * z[:, 1]
    return v / _norms(v)[:, None]


def haar_random_pure(layout: SubsystemLayout, seed) -> PureState:
    """Complex-normal amplitudes, normalized.  seed: int or numpy Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    amps = _haar_amplitudes(layout.total_dim, rng, 1)[0]
    return _derived(PureState, layout=layout, amplitudes=amps)
