import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt

from conftest import (
    L3,
    L4,
    differing_count,
    flat_index,
    mixed_state,
    multi_index,
    real_pure,
    uncached_kway_pt,
    uncached_pair_pt,
)


@given(st.integers(0, 2**32 - 1))
def test_global_pt_matches_elementwise_definition(seed):
    rng = np.random.default_rng(seed)
    rho = mixed_state(L3, rng, real=False)
    pt = kt.global_pt(rho, 1)
    for r in range(8):
        mr = list(multi_index(r, L3))
        for c in range(8):
            mc = list(multi_index(c, L3))
            mr2, mc2 = mr.copy(), mc.copy()
            mr2[1], mc2[1] = mc[1], mr[1]
            expect = rho.matrix[flat_index(tuple(mr2), L3), flat_index(tuple(mc2), L3)]
            assert pt[r, c] == expect
    assert np.abs(pt - pt.conj().T).max() < 1e-14


def test_label_tables_are_lean_and_cached():
    from ktangle.transpose import _label_tables

    layout = kt.SubsystemLayout((2, 3, 2))
    dg, diff = _label_tables(layout.dims)
    assert diff.dtype == np.uint8 and not diff.flags.writeable and not dg.flags.writeable
    assert _label_tables(layout.dims)[1] is diff
    for r in range(layout.total_dim):
        assert list(dg[r]) == list(multi_index(r, layout))
        for c in range(layout.total_dim):
            assert diff[r, c] == differing_count(r, c, layout)


@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2)]
)
def test_focus_swap_matches_the_address_route(dims):
    # a stack of several complex states and a single one: every K-way
    # transpose, and for three subsystems every pair-restricted one, bit for
    # bit the gather through flat addresses
    from ktangle.transpose import _kway_pt, _pair_pt

    layout = kt.SubsystemLayout(dims)
    rng = np.random.default_rng(len(dims))
    M = np.stack([mixed_state(layout, rng).matrix for _ in range(3)])
    for p in range(len(dims)):
        for K in range(2, len(dims) + 1):
            assert np.array_equal(_kway_pt(M, dims, K, p), uncached_kway_pt(M, dims, K, p))
            assert np.array_equal(_kway_pt(M[0], dims, K, p), uncached_kway_pt(M[0], dims, K, p))
        for partner in range(len(dims)) if len(dims) == 3 else ():
            if partner != p:
                got = _pair_pt(M, dims, p, partner)
                assert np.array_equal(got, uncached_pair_pt(M, dims, p, partner))


def test_differing_count():
    assert differing_count(5, 5, L3) == 0
    assert differing_count(3, 5, L3) == 2  # 011 vs 101
    assert differing_count(0, 7, L3) == 3
    with pytest.raises(IndexError):
        differing_count(0, 8, L3)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_kway_decomposition_real_three_qubits(seed, pure):
    # transpose-by-disagreement splits the full transpose, checked elementwise
    rng = np.random.default_rng(seed)
    if pure:
        rho = kt.outer(real_pure(L3, rng))
    else:
        rho = mixed_state(L3, rng, real=True)
    total = kt.kway_pt(rho, 2, 0) + kt.kway_pt(rho, 3, 0) - rho.matrix
    assert np.abs(total - kt.global_pt(rho, 0)).max() < 1e-14


@given(st.integers(0, 2**32 - 1))
def test_kway_decomposition_real_four_qubits(seed):
    rng = np.random.default_rng(seed)
    rho = kt.outer(real_pure(L4, rng))
    total = sum(kt.kway_pt(rho, k, 1) for k in (2, 3, 4)) - 2.0 * rho.matrix
    assert np.abs(total - kt.global_pt(rho, 1)).max() < 1e-14


def test_kway_decomposition_fails_for_complex_states():
    # the split above needs a real representation; a generic complex state
    # breaks it by a visible margin, which is why the real restriction exists
    psi = kt.haar_random_pure(L3, 11)
    rho = kt.outer(psi)
    total = kt.kway_pt(rho, 2, 0) + kt.kway_pt(rho, 3, 0) - rho.matrix
    assert np.abs(total - kt.global_pt(rho, 0)).max() > 0.01


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_pair_identity_holds_for_any_state(seed, p):
    # the two-way transpose always splits over partners, complex included
    rng = np.random.default_rng(seed)
    rho = mixed_state(L3, rng, real=False)
    partners = [q for q in range(3) if q != p]
    total = sum(kt.pair_pt(rho, p, q) for q in partners) - rho.matrix
    assert np.abs(total - kt.kway_pt(rho, 2, p)).max() < 1e-14


def test_kway_pt_argument_errors():
    rho = mixed_state(L3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 1, 0)
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 4, 0)
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 2, 3)


def test_pair_pt_argument_errors():
    rho = mixed_state(L3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kt.pair_pt(rho, 0, 0)
    with pytest.raises(ValueError):
        kt.pair_pt(mixed_state(L4, np.random.default_rng(0)), 0, 1)
