import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt
from ktangle.core import _eigh, _gather_index, _slices

from conftest import (
    L2,
    L3,
    L4,
    flat_index,
    jacobi_eigensystem,
    mixed_state,
    multi_index,
    real_pure,
    svd_trace_norm,
)


@given(st.integers(0, 15))
def test_index_roundtrip(k):
    layout = kt.SubsystemLayout((2, 4, 2))
    assert flat_index(multi_index(k, layout), layout) == k


def test_flat_index_last_subsystem_fastest():
    assert flat_index((1, 0, 1), L3) == 5
    assert flat_index((1, 1, 0), L3) == 6
    assert multi_index(4, L3) == (1, 0, 0)


def test_index_range_errors():
    with pytest.raises(IndexError):
        flat_index((0, 2, 0), L3)
    with pytest.raises(IndexError):
        multi_index(8, L3)
    with pytest.raises(IndexError):
        flat_index((0, 0), L3)


def test_layout_validation():
    with pytest.raises(kt.ValidationError):
        kt.SubsystemLayout((2, 1, 2))
    with pytest.raises(kt.ValidationError):
        kt.SubsystemLayout(())


def test_pure_state_norm_check():
    with pytest.raises(kt.ValidationError, match="norm"):
        kt.PureState(L2, np.array([0.9, 0, 0, 0]))


def test_constructors_reject_a_wrong_shape():
    with pytest.raises(kt.ValidationError, match=r"vector has length \(3,\), layout needs 4"):
        kt.PureState(L2, np.ones(3) / math.sqrt(3.0))
    with pytest.raises(kt.ValidationError, match=r"matrix shape \(4, 2\), layout needs \(4,4\)"):
        kt.DensityOperator(L2, np.ones((4, 2)) / 4.0)


def test_density_operator_checks():
    m = np.eye(4) / 4.0
    kt.DensityOperator(L2, m)
    bad = m.copy()
    bad[0, 1] = 0.5
    with pytest.raises(kt.ValidationError, match="hermiticity"):
        kt.DensityOperator(L2, bad)
    with pytest.raises(kt.ValidationError, match="trace"):
        kt.DensityOperator(L2, np.eye(4) / 2.0)
    neg = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(kt.ValidationError, match="eigenvalue"):
        kt.DensityOperator(L2, neg)


@pytest.mark.parametrize("defect", [1e-12, 5e-11])
def test_density_operator_keeps_the_hermitian_part(defect):
    # a defect the check accepts but a partial transpose would reject: the
    # constructor stores the Hermitian part, so the report of m is the
    # report of its symmetrized matrix, bit for bit
    m = mixed_state(L3, np.random.default_rng(12)).matrix.copy()
    m[1, 2] += defect
    sym = (m + m.conj().T) / 2
    rho = kt.DensityOperator(L3, m)
    assert np.array_equal(rho.matrix, sym)
    for p in range(3):
        got = kt.negativity_report(rho, p)
        want = kt.negativity_report(kt.DensityOperator(L3, sym), p)
        pairs = got.negative_eigenpairs, want.negative_eigenpairs
        got.negative_eigenpairs = want.negative_eigenpairs = None
        assert got == want
        for (l1, v1), (l2, v2) in zip(*pairs, strict=True):
            assert l1 == l2 and np.array_equal(v1, v2)
    # a matrix within the transposes' tolerance is kept as given
    near = mixed_state(L3, np.random.default_rng(12)).matrix
    assert np.array_equal(kt.DensityOperator(L3, near).matrix, near)


def test_local_unitary_check():
    with pytest.raises(kt.ValidationError, match="unitarity"):
        kt.LocalUnitary(0, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_constructor_checks_reject_nan():
    # every comparison with NaN is False, so the checks must fail closed
    with pytest.raises(kt.ValidationError, match="norm"):
        kt.PureState(L2, np.array([np.nan, 1.0, 0.0, 0.0]))
    m = np.eye(4) / 4.0
    m[1, 1] = np.nan
    with pytest.raises(kt.ValidationError, match="hermiticity"):
        kt.DensityOperator(L2, m)
    with pytest.raises(kt.ValidationError, match="unitarity"):
        kt.LocalUnitary(0, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    psi = kt.PureState(L2, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(kt.ValidationError, match="probabilit"):
        kt.Ensemble(members=((float("nan"), psi),))


def test_total_dim_is_stored_once():
    layout = kt.SubsystemLayout((2, 3, 2))
    assert layout.total_dim == 12 and type(layout.total_dim) is int
    # the stored product is not a field: equality and hashing follow dims
    assert kt.SubsystemLayout((2, 2)) == L2
    assert hash(kt.SubsystemLayout((2, 2))) == hash(L2)


def test_partial_trace_ghz(ghz):
    rho = kt.outer(ghz)
    r1 = kt.partial_trace(rho, [0])
    assert np.abs(r1.matrix - np.eye(2) / 2).max() < 1e-14
    r12 = kt.partial_trace(rho, [0, 1])
    # GHZ pair reduction is the classical 00/11 mixture
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(r12.matrix - expected).max() < 1e-14


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_partial_trace_preserves_trace_and_hermiticity(seed, keep_mask):
    rng = np.random.default_rng(seed)
    rho = mixed_state(L3, rng, rank=2)
    keep = [i for i in range(3) if keep_mask >> i & 1]
    red = kt.partial_trace(rho, keep)
    assert abs(np.trace(red.matrix) - 1.0) < 1e-12
    assert np.abs(red.matrix - red.matrix.conj().T).max() < 1e-12


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(0)
    rho = mixed_state(L3, rng)
    assert np.abs(kt.partial_trace(rho, [0, 1, 2]).matrix - rho.matrix).max() == 0.0


def test_partial_trace_rejects_bad_keep():
    rho = mixed_state(L3, np.random.default_rng(1))
    with pytest.raises(ValueError):
        kt.partial_trace(rho, [])
    with pytest.raises(ValueError):
        kt.partial_trace(rho, [3])


def test_local_unitary_boundary():
    # a negative target would index from the end, and a matrix that is not
    # square has no unitarity to check
    with pytest.raises(kt.ValidationError, match="target -1"):
        kt.LocalUnitary(-1, np.eye(2))
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(kt.ValidationError, match="must be square"):
            kt.LocalUnitary(0, np.ones(shape))
    psi = kt.haar_random_pure(L3, 0)
    with pytest.raises(ValueError, match="target 5 out of range for 3 subsystems"):
        kt.apply_local_unitary(psi, kt.LocalUnitary(5, np.eye(2)))
    with pytest.raises(ValueError, match="dimension 3 on subsystem 1 of dimension 2"):
        kt.apply_local_unitary(psi, kt.LocalUnitary(1, np.eye(3)))


def test_apply_local_unitary_matches_kron():
    rng = np.random.default_rng(7)
    psi = kt.haar_random_pure(L3, rng)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for target, ops in ((0, (q, np.eye(2), np.eye(2))),
                        (1, (np.eye(2), q, np.eye(2))),
                        (2, (np.eye(2), np.eye(2), q))):
        u = kt.LocalUnitary(target, q)
        direct = np.kron(ops[0], np.kron(ops[1], ops[2])) @ psi.amplitudes
        assert np.abs(kt.apply_local_unitary(psi, u).amplitudes - direct).max() < 1e-12


def _unit_hermitian(rng, n):
    # residual contracts are absolute, stated for operator-scale input
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    return h / np.linalg.norm(h, 2)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_eigensystem_reconstructs(seed, n):
    h = _unit_hermitian(np.random.default_rng(seed), n)
    w, v = _eigh(h)
    assert np.abs(h @ v - v * w).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10
    assert np.all(np.diff(w) >= -1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_jacobi_matches_lapack(seed, n):
    h = _unit_hermitian(np.random.default_rng(seed), n)
    w, V = jacobi_eigensystem(h)
    assert np.abs(w - _eigh(h)[0]).max() < 1e-10
    assert np.abs(h @ V - V * w).max() < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_trace_norm_equals_abs_eigenvalue_sum(seed):
    h = _unit_hermitian(np.random.default_rng(seed), 6)
    assert abs(kt.trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10
    # the singular-value sum is independent of the eigenvalue route taken
    assert abs(kt.trace_norm(h) - svd_trace_norm(h)) < 1e-13


def test_trace_norm_needs_square():
    with pytest.raises(ValueError):
        kt.trace_norm(np.ones((2, 3)))


def test_haar_sampling_deterministic():
    a = kt.haar_random_pure(L4, 123)
    b = kt.haar_random_pure(L4, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def test_real_pure_helper_is_real():
    psi = real_pure(L3, np.random.default_rng(3))
    assert np.abs(psi.amplitudes.imag).max() == 0.0


def test_public_names_resolve():
    # a name left in __all__ after its definition is deleted breaks star imports
    assert len(kt.__all__) == len(set(kt.__all__))
    for name in kt.__all__:
        assert hasattr(kt, name), name


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (2, 3, 2), (3, 2)])
def test_slices_equal_the_moveaxis_layout_bitwise(dims):
    # every focus and ordered pair, stacked and single, against np.moveaxis
    n, D = len(dims), math.prod(dims)
    rng = np.random.default_rng(len(dims) * D)
    stack = rng.standard_normal((5, D)) + 1j * rng.standard_normal((5, D))
    firsts = [(p,) for p in range(n)] + [(p, q) for p in range(n) for q in range(n) if p != q]
    for first in firsts:
        for amps in (stack, stack[0]):
            lead = amps.shape[:-1]
            at = [len(lead) + m for m in first]
            t = np.moveaxis(amps.reshape(lead + dims), at, range(len(lead), len(lead) + len(first)))
            want = t.reshape(lead + (math.prod(dims[m] for m in first), -1))
            got = _slices(amps, dims, first)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), first
        index = _gather_index(dims, first)
        assert index is _gather_index(dims, first)  # cached
        with pytest.raises(ValueError):
            index[0] = 0  # read-only
