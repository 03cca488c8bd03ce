import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt
from ktangle.config import EPS_EIG

from conftest import L2, L3, L4, jacobi_eigensystem, mixed_state, random_form, real_pure


def _closed_vector(form):
    # the single negative eigenvector of the globally transposed form state
    a, b, c, d, f, phi = form.a, form.b, form.c, form.d, form.f, form.phi
    g = form.g
    v = np.zeros(8, dtype=complex)
    v[0] = -b * np.exp(1j * phi)
    v[4] = a + g
    v[2] = -(a + g) * c / g
    v[1] = -(a + g) * d / g
    v[3] = -(a + g) * f / g
    v[6] = -b * np.exp(-1j * phi) * c / g
    v[5] = -b * np.exp(-1j * phi) * d / g
    v[7] = -b * np.exp(-1j * phi) * f / g
    return v / math.sqrt(4 * a * g + 2)


def test_uniform_form_closed_values():
    # all five support amplitudes equal to 1/sqrt(5)
    s = 1 / math.sqrt(5)
    form = kt.CanonicalForm3Q(a=s, b=s, c=s, d=s, f=s, phi=0.0)
    rho = kt.outer(kt.build_canonical_state(form))
    rep = kt.negativity_report(rho, 0)
    g = math.sqrt(3.0 / 5.0)
    assert abs(rep.n_global - 2 * s * g) < 1e-12          # 2*sqrt(3)/5
    assert abs(rep.e_partial[2] - 4 * math.sqrt(3) / 15) < 1e-12
    assert abs(rep.e_partial[3] - 2 * math.sqrt(3) / 15) < 1e-12
    assert abs(rep.e0) < 1e-12
    assert rep.sum_residual < 1e-9
    assert rep.violations == []


@given(st.integers(0, 2**32 - 1))
def test_negative_eigenpair_matches_closed_vector(seed):
    # the closed eigenpair is valid for every phase, not just the real slice
    form = random_form(np.random.default_rng(seed))
    rho = kt.outer(kt.build_canonical_state(form))
    rep = kt.negativity_report(rho, 0)
    assert len(rep.negative_eigenpairs) == 1
    lam, vec = rep.negative_eigenpairs[0]
    assert abs(lam - (-form.a * form.g)) < 1e-10
    overlap = abs(np.vdot(_closed_vector(form), vec))
    assert abs(overlap - 1.0) < 1e-9


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2 * math.pi))
def test_e0_phase_dependence(seed, phi):
    # E0 tracks the complex phase of the second support amplitude
    form = random_form(np.random.default_rng(seed), phases=(phi,))
    rho = kt.outer(kt.build_canonical_state(form))
    e0 = kt.negativity_report(rho, 0).e0
    a, b, g = form.a, form.b, form.g
    expect = -8 * a * a * b * b * math.sin(phi) ** 2 / (4 * a * g + 2)
    assert abs(e0 - expect) < 1e-10


def test_projector_route_agrees_across_eigensolvers():
    form = random_form(np.random.default_rng(42))
    rho = kt.outer(kt.build_canonical_state(form))
    gpt = kt.global_pt(rho, 0)
    rep = kt.negativity_report(rho, 0)

    w, V = jacobi_eigensystem(gpt)
    P = np.zeros((8, 8), dtype=complex)
    for lam, vec in zip(w, V.T):
        if lam < -EPS_EIG:
            P += np.outer(vec, vec.conj())
    for K in (2, 3):
        ek = float(-2.0 * np.trace(P @ kt.kway_pt(rho, K, 0)).real)
        assert abs(ek - rep.e_partial[K]) < 1e-10


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_sum_rule_real_three_qubit(seed, pure):
    rng = np.random.default_rng(seed)
    rho = kt.outer(real_pure(L3, rng)) if pure else mixed_state(L3, rng, real=True)
    rep = kt.negativity_report(rho, 0)
    assert rep.sum_residual <= 1e-9


@given(st.integers(0, 2**32 - 1))
def test_sum_rule_real_four_qubit_pure(seed):
    rho = kt.outer(real_pure(L4, np.random.default_rng(seed)))
    for p in range(4):
        assert kt.negativity_report(rho, p).sum_residual <= 1e-9


def _one_way_pt(rho, p):
    # rho_1^{T_p}: focus swap only where bra and ket differ in one subsystem
    dims = rho.layout.dims
    digits = np.array(np.unravel_index(np.arange(rho.layout.total_dim), dims)).T
    one_way = (digits[:, None, :] != digits[None, :, :]).sum(axis=2) == 1
    return np.where(one_way, kt.global_pt(rho, p), rho.matrix)


@given(st.integers(0, 2**32 - 1), st.sampled_from([L3, L4]), st.booleans())
def test_sum_residual_is_one_way_term(seed, layout, pure):
    # complex input: the residual is exactly the one-way channel, not noise
    rng = np.random.default_rng(seed)
    rho = kt.outer(kt.haar_random_pure(layout, rng)) if pure else mixed_state(layout, rng)
    p = int(rng.integers(layout.n_subsystems))
    rep = kt.negativity_report(rho, p)
    P = np.zeros_like(rho.matrix)
    for _, v in rep.negative_eigenpairs:
        P += np.outer(v, v.conj())
    one_way = float(-2.0 * np.trace(P @ (_one_way_pt(rho, p) - rho.matrix)).real)
    signed = rep.n_global - (sum(rep.e_partial.values()) - rep.e0)
    assert abs(signed - one_way) < 1e-12
    assert abs(rep.sum_residual - abs(one_way)) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_pair_split_sums_exactly(seed, p):
    # exact for complex inputs too, unlike the K-way sum rule
    rho = mixed_state(L3, np.random.default_rng(seed), real=False)
    rep = kt.negativity_report(rho, p)
    assert set(rep.pair_split) == {q for q in range(3) if q != p}
    assert abs(rep.e_partial[2] - sum(rep.pair_split.values())) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_no_violations_for_real_pure(seed):
    rho = kt.outer(real_pure(L3, np.random.default_rng(seed)))
    rep = kt.negativity_report(rho, 0)
    assert abs(rep.e0) <= 1e-9
    assert rep.violations == []


def test_two_subsystem_report_has_no_e0():
    psi = kt.PureState(L2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = kt.outer(psi)
    rep = kt.negativity_report(rho, 0)
    assert rep.e0 == 0.0
    assert abs(rep.n_global - 1.0) < 1e-12
    assert rep.pair_split == {}


def test_negativity_from_pt_rejects_trivial_focus():
    with pytest.raises(ValueError):
        kt.negativity_from_pt(np.eye(2), 1)


def test_positive_pt_gives_zero_negativity():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert abs(kt.negativity_from_pt(rho, 2)) < 1e-12
    assert kt.negativity_report(kt.DensityOperator(L2, rho), 0).negative_eigenpairs == []
