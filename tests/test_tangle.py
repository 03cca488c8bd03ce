import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt

from conftest import (
    L2,
    L3,
    SYSY,
    WOOTTERS_CASES,
    defect_state,
    mixed_state,
    random_form,
    x_concurrence,
    x_state,
    spin_flip,
    sqrt_route_wootters,
)


def test_wootters_reference_states(bell, w_state):
    assert abs(kt.wootters_tangle(kt.outer(bell)) - 1.0) < 1e-12
    rho = kt.outer(w_state)
    pair = kt.partial_trace(rho, [0, 1])
    assert abs(kt.wootters_tangle(pair) - 4.0 / 9.0) < 1e-12
    product = kt.PureState(L2, np.array([1.0, 0, 0, 0]))
    assert kt.wootters_tangle(kt.outer(product)) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_wootters_range(seed):
    rng = np.random.default_rng(seed)
    psi = kt.haar_random_pure(L3, rng)
    pair = kt.partial_trace(kt.outer(psi), [0, 1])
    t = kt.wootters_tangle(pair)
    assert 0.0 <= t <= 1.0 + 1e-12


def test_spin_flip_is_involution():
    rng = np.random.default_rng(5)
    psi = kt.haar_random_pure(L2, rng)
    rho = kt.outer(psi)
    # flipping the flip restores the original matrix
    assert np.abs(spin_flip(spin_flip(rho.matrix)) - rho.matrix).max() < 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
def test_small_lambdas_are_kept(eps):
    # lambda = (1 - 2 eps, eps, eps, 0): tau = (1 - 4 eps)^2.  A clamp on
    # lambda^2 at 1e-12 drops the eps and errs by up to 4 eps
    m = defect_state(eps)
    exact = (1 - 4 * eps) ** 2
    assert abs(kt.wootters_tangle(kt.DensityOperator(L2, m)) - exact) <= 1e-12
    assert abs(sqrt_route_wootters(m) - exact) > eps  # the clamped route


@given(st.integers(0, 2**32 - 1))
def test_x_states_match_closed_form(seed):
    rng = np.random.default_rng(seed)
    diag = rng.dirichlet(np.ones(4))
    outer, inner = (
        math.sqrt(diag[j] * diag[k]) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * math.pi))
        for j, k in ((0, 3), (1, 2))
    )
    m = x_state(diag, outer, inner)
    got = kt.wootters_tangle(kt.DensityOperator(L2, m))
    assert abs(got - x_concurrence(m) ** 2) <= 1e-12


@pytest.mark.parametrize("name", sorted(WOOTTERS_CASES))
def test_wootters_acceptance_states(name):
    m, c = WOOTTERS_CASES[name]
    assert abs(kt.wootters_tangle(kt.DensityOperator(L2, m)) - c * c) <= 1e-12


def test_takagi_factors_t():
    # T = Q diag(sigma) Q^T with Q unitary, for full-rank, low-rank and
    # degenerate factors
    from ktangle.tangle import _factor, _flipped, _takagi

    rng = np.random.default_rng(3)
    mats = [mixed_state(L2, rng, rank=r).matrix for r in (1, 2, 3, 4)]
    mats += [WOOTTERS_CASES[k][0] for k in sorted(WOOTTERS_CASES)]
    Phi = _factor(np.stack(mats))
    sigma, Q = _takagi(Phi)
    T = Phi.swapaxes(-1, -2) @ SYSY @ Phi
    assert np.all(np.diff(sigma, axis=-1) <= 0.0) and np.all(sigma >= 0.0)
    assert np.abs(Q @ (sigma[..., None] * Q.swapaxes(-1, -2)) - T).max() <= 1e-14
    assert np.abs(Q.conj().swapaxes(-1, -2) @ Q - np.eye(4)).max() <= 1e-14
    # the SVD that the concurrences take gives the same values
    assert np.abs(np.linalg.svd(_flipped(Phi), compute_uv=False) - sigma).max() <= 1e-15


@given(st.integers(0, 2**32 - 1))
def test_wootters_matches_sqrt_route_on_full_rank_states(seed):
    # every lambda of a generic rank-4 state sits far above the oracle's clamp
    rho = mixed_state(L2, np.random.default_rng(seed), rank=4)
    assert abs(kt.wootters_tangle(rho) - sqrt_route_wootters(rho.matrix)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_one_tangle_is_squared_global_negativity(seed, p):
    psi = kt.haar_random_pure(L3, np.random.default_rng(seed))
    rho = kt.outer(psi)
    ng = kt.negativity_from_pt(kt.global_pt(rho, p), 2)
    assert abs(kt.one_tangle(psi, p) - ng * ng) < 1e-13


def test_three_tangle_reference_states(ghz, w_state):
    rep = kt.three_tangle(ghz)
    assert abs(rep.tau3 - 1.0) < 1e-12
    assert abs(rep.tau_focus - 1.0) < 1e-12
    assert all(abs(t) < 1e-12 for t in rep.tau_pairs.values())
    wrep = kt.three_tangle(w_state)
    assert abs(wrep.tau3) < 1e-13
    assert all(abs(t - 4.0 / 9.0) < 1e-13 for t in wrep.tau_pairs.values())


def test_three_tangle_focus_independence():
    # residual permutation invariance, a nontrivial property of the measure
    spread = 0.0
    for seed in range(500):
        psi = kt.haar_random_pure(L3, seed)
        vals = [kt.three_tangle(psi, focus=p).tau3 for p in range(3)]
        spread = max(spread, max(vals) - min(vals))
    assert spread < 1e-13


def test_tangles_reject_a_focus_out_of_range():
    # a negative focus must not index from the end
    psi = kt.haar_random_pure(L3, 1)
    for p in (-1, 3):
        with pytest.raises(ValueError, match=f"focus {p} out of range"):
            kt.one_tangle(psi, p)
        with pytest.raises(ValueError, match=f"focus {p} out of range"):
            kt.three_tangle(psi, focus=p)


@given(st.integers(0, 2**32 - 1))
def test_pair_tangles_match_closed_forms(seed):
    # tau_AB = 4 a^2 c^2 and tau_AC = 4 a^2 d^2 hold for every phase
    form = random_form(np.random.default_rng(seed))
    psi = kt.build_canonical_state(form)
    rep = kt.three_tangle(psi, focus=0)
    a, c, d, f, g = form.a, form.c, form.d, form.f, form.g
    assert abs(rep.tau_pairs[1] - 4 * a * a * c * c) < 1e-13
    assert abs(rep.tau_pairs[2] - 4 * a * a * d * d) < 1e-13
    assert abs(rep.tau3 - 4 * a * a * f * f) < 1e-13
    assert abs(rep.tau_focus - 4 * a * a * g * g) < 1e-13


def test_three_tangle_rejects_other_layouts():
    psi = kt.haar_random_pure(L2, 0)
    with pytest.raises(ValueError):
        kt.three_tangle(psi)


def test_one_tangle_rejects_a_non_qubit_focus():
    # 4 det of a 3 x 3 reduced state's leading minor is no one-tangle
    psi = kt.haar_random_pure(kt.SubsystemLayout((3, 2)), 0)
    with pytest.raises(ValueError, match="subsystem 0 has dimension 3"):
        kt.one_tangle(psi, 0)
    assert 0.0 <= kt.one_tangle(psi, 1) <= 1.0


def test_wootters_tangle_rejects_other_layouts():
    for dims in ((2, 3), (2, 2, 2)):
        rho = mixed_state(kt.SubsystemLayout(dims), np.random.default_rng(1))
        with pytest.raises(ValueError, match="two-qubit state"):
            kt.wootters_tangle(rho)
