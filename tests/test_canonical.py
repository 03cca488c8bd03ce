import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt

from conftest import L3, haar_amplitudes, random_form, real_pure, svd_canonicalize3


def _random_lu_triple(rng):
    us = []
    for t in range(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        us.append(kt.LocalUnitary(t, q))
    return us


def _apply_triple(psi, us):
    for u in us:
        psi = kt.apply_local_unitary(psi, u)
    return psi


def test_ghz_is_already_canonical(ghz):
    res = kt.canonicalize3(ghz)
    assert res.residual <= 1e-12
    best = res.forms[0]
    r = 1 / math.sqrt(2)
    assert abs(best.a - r) < 1e-12 and abs(best.f - r) < 1e-12
    assert best.b < 1e-12 and best.c < 1e-12 and best.d < 1e-12


def test_w_state_single_form(w_state):
    res = kt.canonicalize3(w_state)
    form = res.forms[0]
    r = 1 / math.sqrt(3)
    assert abs(form.a - r) < 1e-8
    assert abs(math.hypot(form.c, form.d) - math.sqrt(2.0 / 3.0)) < 1e-8
    assert form.f < 1e-8 and form.b < 1e-8


def test_product_with_bell_pair_is_biseparable():
    # |0> x (|00>+|11>)/sqrt(2): no first-qubit entanglement at all
    v = np.zeros(8)
    v[0] = v[3] = 1 / math.sqrt(2)
    res = kt.canonicalize3(kt.PureState(L3, v))
    rep, tan = kt.canonical_closed_forms(res.forms[0])
    assert abs(rep.n_global) < 1e-10
    assert abs(tan.tau_focus) < 1e-10


def test_forms_sorted_by_amplitude():
    psi = kt.haar_random_pure(L3, 99)
    res = kt.canonicalize3(psi)
    if len(res.forms) == 2:
        fa, fb = res.forms
        assert (fa.a, fa.f) >= (fb.a, fb.f)


@given(st.integers(0, 2**32 - 1))
def test_unitaries_reproduce_forms(seed):
    psi = kt.haar_random_pure(L3, seed)
    res = kt.canonicalize3(psi)
    assert res.residual <= 1e-8
    for form, us in zip(res.forms, res.unitaries):
        for u in us:
            defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(2)).max()
            assert defect <= 1e-12
        out = _apply_triple(psi, us).amplitudes
        target = kt.build_canonical_state(form).amplitudes
        assert np.abs(out - target).max() <= 1e-8


@given(st.integers(0, 2**32 - 1))
def test_orbit_invariants_recovered(seed):
    # scrambling a known form by random local unitaries must not move the
    # closed-form measure values of the recovered representative
    rng = np.random.default_rng(seed)
    form = random_form(rng)
    psi = _apply_triple(kt.build_canonical_state(form), _random_lu_triple(rng))
    res = kt.canonicalize3(psi)
    ref_rep, ref_tan = kt.canonical_closed_forms(form)
    best = min(
        abs(kt.canonical_closed_forms(f)[0].n_global - ref_rep.n_global)
        + abs(kt.canonical_closed_forms(f)[1].tau3 - ref_tan.tau3)
        + abs(kt.canonical_closed_forms(f)[0].e_partial[2] * ref_rep.n_global
              - ref_rep.e_partial[2] * kt.canonical_closed_forms(f)[0].n_global)
        for f in res.forms
    )
    assert best < 1e-8


def test_idempotence_on_uniform_form():
    s = 1 / math.sqrt(5)
    form = kt.CanonicalForm3Q(a=s, b=s, c=s, d=s, f=s, phi=0.0)
    res = kt.canonicalize3(kt.build_canonical_state(form))
    match = min(
        max(abs(f.a - s), abs(f.b - s), abs(f.c - s), abs(f.d - s), abs(f.f - s))
        for f in res.forms
    )
    assert match < 1e-8


def test_residual_small_over_haar_sample():
    worst = 0.0
    for seed in range(500):
        res = kt.canonicalize3(kt.haar_random_pure(L3, seed))
        worst = max(worst, res.residual)
    assert worst <= 1e-8


@given(st.integers(0, 2**32 - 1))
def test_closed_form_tangle_identities(seed):
    # E3*NG = tau3 and E2*NG = tau_AB + tau_AC, exact on the closed forms
    form = random_form(np.random.default_rng(seed))
    rep, tan = kt.canonical_closed_forms(form)
    assert abs(rep.e_partial[3] * rep.n_global - tan.tau3) <= 1e-12
    assert abs(rep.e_partial[2] * rep.n_global - sum(tan.tau_pairs.values())) <= 1e-12
    assert abs(rep.pair_split[1] * rep.n_global - tan.tau_pairs[1]) <= 1e-12
    assert rep.sum_residual <= 1e-12


@given(st.integers(0, 2**32 - 1))
def test_delta_vanishes_on_real_slice(seed):
    form = random_form(np.random.default_rng(seed), phases=(0.0, math.pi))
    psi = kt.build_canonical_state(form)
    assert abs(kt.coherence_delta(psi)) <= 1e-9


def test_delta_nonzero_off_real_slice():
    # a complex support phase moves weight between 2-way and 3-way channels
    form = kt.CanonicalForm3Q(
        a=0.55, b=0.45, c=0.4, d=0.35,
        f=math.sqrt(1 - 0.55**2 - 0.45**2 - 0.4**2 - 0.35**2),
        phi=math.pi / 2,
    )
    psi = kt.build_canonical_state(form)
    assert abs(kt.coherence_delta(psi)) > 1e-3


def test_delta_for_rotated_ghz():
    r = 1 / math.sqrt(2)
    v = np.zeros(8)
    v[0] = v[7] = r
    psi = kt.PureState(L3, v)
    assert abs(kt.coherence_delta(psi)) < 1e-12
    rotated = kt.apply_local_unitary(psi, kt.third_qubit_rotation(math.pi / 2))
    assert abs(kt.coherence_delta(rotated) - (-0.5)) < 1e-10


def test_rotation_profile_closed_forms():
    a = 0.8
    e3_0, e2_0 = kt.ghz_rotation_profile(a, 0.0)
    ng = 2 * a * math.sqrt(1 - a * a)
    assert abs(e3_0 - ng) < 1e-15
    assert e2_0 == 0.0
    # the two channels trade weight at constant total
    total0 = e3_0 + e2_0
    for alpha in np.linspace(0.0, math.pi, 11):
        e3, e2 = kt.ghz_rotation_profile(a, float(alpha))
        assert abs((e3 + e2) - total0) < 1e-12


def test_rotation_profile_matches_pipeline():
    a = 0.8
    v = np.zeros(8)
    v[0], v[7] = a, math.sqrt(1 - a * a)
    psi = kt.PureState(L3, v)
    for alpha in np.linspace(0.0, math.pi, 7):
        rot = kt.apply_local_unitary(psi, kt.third_qubit_rotation(float(alpha)))
        rep = kt.negativity_report(kt.outer(rot), 0)
        e3, e2 = kt.ghz_rotation_profile(a, float(alpha))
        assert abs(rep.e_partial[3] - e3) < 1e-10
        assert abs(rep.e_partial[2] - e2) < 1e-10


def test_rotation_profile_domain():
    with pytest.raises(ValueError):
        kt.ghz_rotation_profile(0.0, 0.1)
    with pytest.raises(ValueError):
        kt.ghz_rotation_profile(1.0, 0.1)
    # the rotation is a public constructor: its unitarity check rejects NaN
    with pytest.raises(kt.ValidationError):
        kt.third_qubit_rotation(math.nan)


def test_canonical_phase_stays_below_two_pi():
    # canonicalize3 builds its forms unchecked; a b phase just below 0
    # reduces to 2 pi itself under one %, which real states hit often
    rng = np.random.default_rng(0)
    for _ in range(200):
        for form in kt.canonicalize3(real_pure(L3, rng)).forms:
            assert 0.0 <= form.phi < 2 * math.pi, form


def test_form_validation():
    with pytest.raises(kt.ValidationError):
        kt.CanonicalForm3Q(a=-0.5, b=0.5, c=0.5, d=0.5, f=0.0, phi=0.0)
    with pytest.raises(kt.ValidationError):
        kt.CanonicalForm3Q(a=0.9, b=0.9, c=0.0, d=0.0, f=0.0, phi=0.0)
    form = kt.CanonicalForm3Q(a=1.0, b=0.0, c=0.0, d=0.0, f=0.0, phi=-math.pi)
    assert abs(form.phi - math.pi) < 1e-15


@pytest.mark.parametrize("phi", [-1e-17, -5e-324, -0.0, 0.0, 2 * math.pi, 4 * math.pi, -2 * math.pi])
def test_form_phase_lands_in_half_open_range(phi):
    # one % maps a phase just below 0 to 2 pi itself, outside [0, 2 pi)
    form = kt.CanonicalForm3Q(a=1.0, b=0.0, c=0.0, d=0.0, f=0.0, phi=phi)
    assert 0.0 <= form.phi < 2 * math.pi


def test_canonicalize_rejects_other_layouts():
    psi = kt.haar_random_pure(kt.qubit_layout(2), 0)
    with pytest.raises(kt.ValidationError):
        kt.canonicalize3(psi)
    with pytest.raises(ValueError, match="three-qubit"):
        kt.coherence_delta(psi)


def _pattern_form(rng, pattern):
    """Random form whose b, c, d, f vanish where pattern holds a 0, with a
    random phi."""
    amps = rng.uniform(0.2, 1.0, size=5) * np.array((1, *pattern))
    amps /= np.linalg.norm(amps)
    a, b, c, d, f = amps.tolist()
    return kt.CanonicalForm3Q(a=a, b=b, c=c, d=d, f=f, phi=float(rng.uniform(0.0, 2 * math.pi)))


def _invariants(form):
    """N_G, tau3 and E2 N_G of a form: local-unitary invariants."""
    rep, tan = kt.canonical_closed_forms(form)
    return np.array([rep.n_global, tan.tau3, rep.e_partial[2] * rep.n_global])


def _assert_round_trip(psi, res, source):
    for form, us in zip(res.forms, res.unitaries):
        out = _apply_triple(psi, us).amplitudes
        assert np.abs(out - kt.build_canonical_state(form).amplitudes).max() <= 1e-12
    ref = _invariants(source)
    assert min(np.abs(_invariants(f) - ref).max() for f in res.forms) <= 1e-12


@pytest.mark.parametrize(
    "pattern", list(itertools.product((0, 1), repeat=4)),
    ids=lambda p: "bcdf=" + "".join(map(str, p)),
)
def test_sparse_forms_round_trip(pattern):
    # every zero pattern of (b, c, d, f) takes its own branch of the root
    # and phase gauge steps; a scrambled form must come back exactly
    rng = np.random.default_rng(int("".join(map(str, pattern)), 2))
    for _ in range(5):
        form = _pattern_form(rng, pattern)
        psi = _apply_triple(kt.build_canonical_state(form), _random_lu_triple(rng))
        _assert_round_trip(psi, kt.canonicalize3(psi), form)


def test_product_state_takes_the_zero_quadratic():
    # |000> has three vanishing slice determinants: any rotation is a root
    v = np.zeros(8)
    v[0] = 1.0
    psi = kt.PureState(L3, v)
    res = kt.canonicalize3(psi)
    source = kt.CanonicalForm3Q(a=1.0, b=0.0, c=0.0, d=0.0, f=0.0, phi=0.0)
    assert res.forms == (source,) and res.residual == 0.0
    _assert_round_trip(psi, res, source)


@given(st.integers(0, 2**32 - 1))
def test_closed_negative_eigenpair_matches_the_report(seed):
    form = random_form(np.random.default_rng(seed))
    ((lam, vec),) = kt.canonical_closed_forms(form)[0].negative_eigenpairs
    rep = kt.negativity_report(kt.outer(kt.build_canonical_state(form)), 0)
    ((lam_n, vec_n),) = rep.negative_eigenpairs
    assert abs(lam - lam_n) <= 1e-14
    assert abs(abs(np.vdot(vec, vec_n)) - 1.0) <= 1e-12


def _form_gap(f, g):
    """Largest difference of two forms, with b taken as b e^{i phi} (so that
    a phase near 0 and one near 2 pi, or the phase of a vanishing b, are
    close), less the rounding phi inherits near the tangle zero.

    phi takes the phase of the smallest of c, d and f (_phase_gauge), so
    rounding of order 1e-16 in that amplitude moves b e^{i phi} by about
    1e-16 b / min(c, d, f): 8.5e-12 between the two reductions at
    q* - 1e-11 on the GHZ+W minus branch, where f = 4.4e-6.
    """
    m = min(g.c, g.d, g.f)
    slack = 1e-15 * g.b / m if m > 1e-12 else 0.0
    moduli = max(abs(f.a - g.a), abs(f.b - g.b), abs(f.c - g.c), abs(f.d - g.d), abs(f.f - g.f))
    phased = abs(f.b * cmath.exp(1j * f.phi) - g.b * cmath.exp(1j * g.phi))
    return max(moduli, phased - slack)


def _assert_matches_the_oracle(psi, tol=1e-13):
    got, want = kt.canonicalize3(psi), svd_canonicalize3(psi)
    assert len(got.forms) == len(want.forms)
    # two forms whose a and f agree to rounding (a conjugate pair of the
    # GHZ+W minus branch) may sort either way, so each form meets its nearest
    for f in got.forms:
        assert min(_form_gap(f, g) for g in want.forms) <= tol, (got.forms, want.forms)
    for g in want.forms:
        assert min(_form_gap(f, g) for f in got.forms) <= tol, (got.forms, want.forms)
    assert abs(got.residual - want.residual) <= tol


def _kron_state(*factors):
    v = factors[0]
    for w in factors[1:]:
        v = np.kron(v, w)
    return kt.PureState(L3, v)


def _special_states():
    """States whose roots, slices or rotations are degenerate, by name."""
    rng = np.random.default_rng(11)
    eps = 1e-9
    special = {
        "ghz": [2**-0.5, 0, 0, 0, 0, 0, 0, 2**-0.5],
        "w": [0, 3**-0.5, 3**-0.5, 0, 3**-0.5, 0, 0, 0],
        "product": [1, 0, 0, 0, 0, 0, 0, 0],
        # eps (|000> + |011>): the quadratic vanishes, and its root's first
        # slice is a multiple of 1, whose singular vectors are any
        "unitary_first_slice": [eps, 0, 0, eps, 0, math.sqrt(1 - 2 * eps**2), 0, 0],
    }
    states = {k: kt.PureState(L3, np.array(v, dtype=complex)) for k, v in special.items()}
    for i in range(3):
        bc = haar_amplitudes((4,), rng)
        states[f"zero_first_slice_{i}"] = _kron_state(np.array([0.0, 1.0]), bc)
        states[f"zero_second_slice_{i}"] = _kron_state(np.array([1.0, 0.0]), bc)
        states[f"ab_c_{i}"] = _kron_state(haar_amplitudes((4,), rng), haar_amplitudes((2,), rng))
    return states


SPECIAL = _special_states()
QSTAR_OFFSETS = (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11, 1e-10, -1e-10,
                 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7, 1e-6, -1e-6)


def test_forms_match_the_svd_oracle_on_haar_states():
    worst = 0.0
    for seed in range(2000):
        psi = kt.haar_random_pure(L3, seed)
        _assert_matches_the_oracle(psi)
        worst = max(worst, kt.canonicalize3(psi).residual)
    assert worst <= 1e-14


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_forms_match_the_svd_oracle_on_degenerate_states(name):
    _assert_matches_the_oracle(SPECIAL[name])


@pytest.mark.parametrize("sign", (1, -1), ids=("plus", "minus"))
def test_forms_match_the_svd_oracle_around_the_tangle_zero(sign):
    # on the minus branch the two roots merge into one form within about
    # 1e-12 of q*, where the slice keeps a second singular value near 1e-12
    q_star = kt.tau3_minus_zero()
    merged = []
    for dq in QSTAR_OFFSETS:
        psi = kt.build_ghzw(kt.GhzwParams(q=q_star + dq, sign=sign))
        _assert_matches_the_oracle(psi)
        merged.append(len(kt.canonicalize3(psi).forms) == 1)
    assert any(merged) == (sign == -1)


def test_a_generic_a_bc_product_keeps_its_invariants():
    # the rotated first slice of alpha (x) psi vanishes only to rounding, so
    # its singular vectors, and with them the form, are not unique: a is 0
    # and the second slice carries the Schmidt coefficients of psi
    rng = np.random.default_rng(12)
    for _ in range(20):
        bc = haar_amplitudes((4,), rng)
        psi = _kron_state(haar_amplitudes((2,), rng), bc)
        schmidt = np.linalg.svd(bc.reshape(2, 2), compute_uv=False)
        (form,) = kt.canonicalize3(psi).forms
        second = np.array([[form.b * cmath.exp(1j * form.phi), form.d], [form.c, form.f]])
        assert form.a <= 1e-15
        assert np.abs(np.linalg.svd(second, compute_uv=False) - schmidt).max() <= 1e-13


def _gauge_defects(us):
    """The gauge rules of the canonical module docstring that a triple of
    unitaries breaks, by name."""
    ua, ub, uc = (u.matrix for u in us)
    bad = []
    big = ua[0, 0] if abs(ua[0, 0]) >= abs(ua[0, 1]) else ua[0, 1]
    if not (big.imag == 0.0 and big.real > 0.0):
        bad.append("U_A first row: larger entry real and positive")
    lead = uc[0, 0] if uc[0, 0] != 0 else uc[0, 1]
    if not (lead.imag == 0.0 and lead.real > 0.0):
        bad.append("U_C first row: first nonzero entry real and positive")
    for name, u in (("U_A", ua), ("U_B", ub), ("U_C", uc)):
        if np.abs(u.conj().T @ u - np.eye(2)).max() > 1e-15:
            bad.append(f"{name} unitary")
    return bad


def test_unitaries_follow_the_stated_gauge():
    states = [kt.haar_random_pure(L3, seed) for seed in range(300)]
    states += list(SPECIAL.values())
    q_star = kt.tau3_minus_zero()
    states += [kt.build_ghzw(kt.GhzwParams(q=q_star + dq, sign=s))
               for dq in QSTAR_OFFSETS for s in (1, -1)]
    for psi in states:
        res = kt.canonicalize3(psi)
        for form, us in zip(res.forms, res.unitaries):
            assert _gauge_defects(us) == []
            # the unitaries leave no more than the residual outside the support
            out = _apply_triple(psi, us).amplitudes
            gap = np.abs(out - kt.build_canonical_state(form).amplitudes).max()
            assert gap <= 1e-12 + res.residual


def test_the_reduction_calls_no_lapack_and_no_einsum(monkeypatch):
    states = [kt.haar_random_pure(L3, seed) for seed in range(50)] + list(SPECIAL.values())
    params = [kt.GhzwParams(q=q, sign=s) for q in (0.3, kt.tau3_minus_zero(), 0.9) for s in (1, -1)]

    def refuse(*args, **kwargs):
        raise AssertionError("canonicalize3 called numpy.linalg or numpy.einsum")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    for psi in states:
        kt.canonicalize3(psi)
    for p in params:
        kt.ghzw_canonical_params(p)
