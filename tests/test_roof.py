import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt

from conftest import (
    L2, L3, L4, WOOTTERS_CASES, eigen_members, mixed_state, rotation_draw, sequential_roof,
)
from ktangle.config import ROOF_DRAW_STEPS, ROOF_MEMBER_CUTOFF, ROOF_ROUND_ROWS, STACK_CHUNK
from ktangle.roof import _draws, _member_value, _search, _support, _values

# the most restarts whose rounds still prefetch two steps each; one more
# restart makes every round a single lockstep step
TWO_STEP_RESTARTS = ROOF_ROUND_ROWS // 4


def _basis_state(layout, k):
    v = np.zeros(layout.total_dim)
    v[k] = 1.0
    return kt.PureState(layout, v)


def _separable_mixture():
    # classical mixture of product basis states, exactly PPT
    members = ((0.5, _basis_state(L2, 0)), (0.3, _basis_state(L2, 1)), (0.2, _basis_state(L2, 3)))
    return kt.Ensemble(members=members).density()


SMALL = kt.RoofBudget(restarts=6, iterations=150, seed=0)


def _lockstep(rho, p, measure, budget):
    """The search itself, which roof_negativity skips for a two-qubit global roof."""
    lam, vec = _support(rho)
    return _search(rho.layout, _member_value(measure, p, rho.layout), lam, vec, budget)


def test_separable_mixture_has_zero_roof():
    res = kt.roof_negativity(_separable_mixture(), 0, "global", SMALL)
    assert res.value <= 1e-6
    assert res.bound == "exact"


def test_roof_beats_eigenbasis_when_it_should():
    # an equal mixture of the four Bell states is maximally mixed, hence
    # separable, but every eigen-member is maximally entangled: the
    # optimizer must rotate the ensemble to reach ~0
    rho = kt.DensityOperator(L2, np.eye(4) / 4.0)
    res = kt.roof_negativity(rho, 0, "global", SMALL)
    assert res.value <= 1e-6
    avg = sum(
        p * kt.negativity_from_pt(kt.global_pt(kt.outer(s), 0), 2) for p, s in eigen_members(rho)
    )
    assert res.value < avg or avg <= 1e-9


def test_pure_state_short_circuits():
    # a rank-one state is its only decomposition, so its value is exact
    for layout, measure in ((L2, "global"), (L3, "global"), (L3, "k2")):
        rho = kt.outer(kt.haar_random_pure(layout, 4))
        report = kt.negativity_report(rho, 0)
        res = kt.roof_negativity(rho, 0, measure, SMALL)
        assert res.bound == "exact"
        assert res.restarts_used == 0
        assert res.converged
        assert len(res.certificate.members) == 1
        if measure == "k2":
            # the channel of the state itself, bit for bit on the pure route
            # of its one member; the density route agrees to rounding
            member = res.certificate.members[0][1]
            assert res.value == kt.negativity_report(member, 0).e_partial[2]
            assert abs(res.value - report.e_partial[2]) <= 1e-13
        else:
            assert abs(res.value - report.n_global) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_roof_is_upper_bounded_by_eigen_average(seed):
    rng = np.random.default_rng(seed)
    rho = mixed_state(L2, rng, rank=2)
    budget = kt.RoofBudget(restarts=3, iterations=100, seed=1)
    res = kt.roof_negativity(rho, 0, "global", budget)
    avg = sum(
        p * kt.negativity_from_pt(kt.global_pt(kt.outer(s), 0), 2)
        for p, s in eigen_members(rho)
    )
    assert res.value <= avg + 1e-9


def test_certificate_reconstructs_and_averages():
    rng = np.random.default_rng(8)
    rho = mixed_state(L2, rng, rank=3)
    res = kt.roof_negativity(rho, 0, "global", SMALL)
    recon = res.certificate.density()
    assert np.abs(recon.matrix - rho.matrix).max() < 1e-8
    avg = sum(
        p * kt.negativity_from_pt(kt.global_pt(kt.outer(s), 0), 2)
        for p, s in res.certificate.members
    )
    assert abs(avg - res.value) < 1e-9


def test_determinism_and_restart_monotonicity():
    # the two-qubit global case runs the search itself; the three-qubit k2
    # case runs it through the public entry point
    cases = [
        (mixed_state(L2, np.random.default_rng(2), rank=3), 0, "global", _lockstep),
        (mixed_state(L3, np.random.default_rng(4), rank=2), 1, "k2", kt.roof_negativity),
    ]
    for rho, p, measure, roof in cases:
        b1 = kt.RoofBudget(restarts=4, iterations=120, seed=7)
        v1 = roof(rho, p, measure, b1).value
        v2 = roof(rho, p, measure, b1).value
        assert v1 == v2
        # more restarts extend the same stream, so the value cannot get worse
        b2 = kt.RoofBudget(restarts=8, iterations=120, seed=7)
        v3 = roof(rho, p, measure, b2).value
        assert v3 <= v1 + 1e-15


def test_wootters_crosscheck_on_reduced_pair(printed_qstar_state):
    # squared roof of the reduced pair equals the Wootters tangle of the
    # same reduction: two independent routes to one number
    rho2 = kt.partial_trace(kt.outer(printed_qstar_state), [0, 1])
    budget = kt.RoofBudget(restarts=14, iterations=500, seed=5)
    roof = kt.roof_negativity(rho2, 0, "global", budget)
    woot = kt.wootters_tangle(rho2)
    assert abs(roof.value**2 - woot) < 1e-9
    assert abs(roof.value - 0.643658) < 2e-4
    # the direct (unminimized) reduction value is a different, larger number
    direct = kt.negativity_from_pt(kt.global_pt(rho2, 0), 2)
    assert abs(direct - 0.402242) < 1e-5
    assert roof.value >= direct - 1e-9


def test_w_state_pair_roof(w_state):
    rho2 = kt.partial_trace(kt.outer(w_state), [0, 1])
    direct = kt.negativity_from_pt(kt.global_pt(rho2, 0), 2)
    assert abs(direct - (math.sqrt(5) - 1) / 3) < 1e-9
    budget = kt.RoofBudget(restarts=10, iterations=400, seed=3)
    roof = kt.roof_negativity(rho2, 0, "global", budget)
    assert abs(roof.value - 2.0 / 3.0) < 1e-9
    assert roof.value >= direct - 1e-9


def _certificate_states():
    rng = np.random.default_rng(40)
    states = {name: m for name, (m, _) in WOOTTERS_CASES.items()}
    for k in range(12):
        rank = 2 + k % 3
        states[f"random_rank{rank}_{k}"] = mixed_state(L2, rng, rank=rank, real=k % 4 == 3).matrix
    return states


CERTIFICATE_STATES = _certificate_states()


@pytest.mark.parametrize("name", sorted(CERTIFICATE_STATES))
def test_two_qubit_global_roof_is_wootters_decomposition(name):
    rho = kt.DensityOperator(L2, CERTIFICATE_STATES[name])
    res = kt.roof_negativity(rho, 1, "global", SMALL)
    c = res.value
    assert (res.bound, res.converged, res.restarts_used) == ("exact", True, 0)
    assert c * c == kt.wootters_tangle(rho)
    if name in WOOTTERS_CASES:
        assert abs(c - WOOTTERS_CASES[name][1]) <= 1e-12
    assert np.abs(res.certificate.density().matrix - rho.matrix).max() <= 1e-12
    for _, psi in res.certificate.members:
        # each member's global negativity by the public route is C
        member = kt.negativity_from_pt(kt.global_pt(kt.outer(psi), 0), 2)
        assert abs(member - c) <= 1e-12
    # the exact value is a lower bound of every search
    assert c <= _lockstep(rho, 1, "global", kt.RoofBudget(restarts=2, iterations=60)).value + 1e-12


def test_two_qubit_global_roof_ignores_the_budget():
    rho = mixed_state(L2, np.random.default_rng(6), rank=3)
    runs = [kt.roof_negativity(rho, p, "global", kt.RoofBudget(restarts=r, seed=s))
            for p, r, s in ((0, 1, 0), (1, 32, 9), (0, 5, 123))]
    for res in runs[1:]:
        assert res.value == runs[0].value
        for (p1, s1), (p2, s2) in zip(res.certificate.members, runs[0].certificate.members,
                                      strict=True):
            assert p1 == p2 and np.array_equal(s1.amplitudes, s2.amplitudes)
    with pytest.raises(ValueError):
        kt.roof_negativity(rho, 2, "global")


def test_ensemble_validation():
    psi = _basis_state(L2, 0)
    with pytest.raises(kt.ValidationError):
        kt.Ensemble(members=())
    with pytest.raises(kt.ValidationError):
        kt.Ensemble(members=((0.0, psi), (1.0, psi)))
    with pytest.raises(kt.ValidationError):
        kt.Ensemble(members=((0.4, psi), (0.4, psi)))
    with pytest.raises(kt.ValidationError):
        kt.Ensemble(members=((0.5, psi), (0.5, _basis_state(L3, 0))))


def test_budget_and_measure_validation():
    with pytest.raises(kt.ValidationError):
        kt.RoofBudget(restarts=0)
    with pytest.raises(kt.ValidationError):
        kt.RoofBudget(iterations=0)
    with pytest.raises(kt.ValidationError, match="seed -1"):
        kt.RoofBudget(seed=-1)
    # two-qubit states of rank 3, 1 and 2 reach the search, the rank-one
    # route and the exact global route: each checks the measure and the focus
    rank_one = kt.outer(kt.haar_random_pure(L2, 4))
    pair = ((0.4, kt.haar_random_pure(L2, 5)), (0.6, kt.haar_random_pure(L2, 6)))
    rank_two = kt.Ensemble(members=pair).density()
    for rho in (_separable_mixture(), rank_one, rank_two):
        for measure in ("k7", "spectral", "k3"):
            with pytest.raises(kt.ValidationError):
                kt.roof_negativity(rho, 0, measure, SMALL)
        for measure in ("global", "k2"):
            with pytest.raises(ValueError, match="focus 2 out of range"):
                kt.roof_negativity(rho, 2, measure, SMALL)


def test_two_qubit_ppt_iff_zero_roof():
    # PPT is exact for 2 qubits: positive partial transpose means zero roof,
    # and an NPT state keeps a strictly positive roof
    rho_sep = _separable_mixture()
    assert kt.negativity_from_pt(kt.global_pt(rho_sep, 0), 2) <= 1e-12
    assert kt.roof_negativity(rho_sep, 0, "global", SMALL).value <= 1e-6

    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho_npt = kt.DensityOperator(
        L2, 0.9 * np.outer(bell, bell) + 0.1 * np.eye(4) / 4.0
    )
    direct = kt.negativity_from_pt(kt.global_pt(rho_npt, 0), 2)
    assert direct > 0.1
    roof = kt.roof_negativity(rho_npt, 0, "global", SMALL)
    assert roof.value > 0.1


@pytest.mark.parametrize(
    "layout, measure, rank",
    [(L2, "global", 2), (L2, "global", 3), (L2, "global", 4),
     (L3, "k2", 2), (L3, "k2", 3), (L3, "k3", 2), (L3, "k3", 3), (L4, "k2", 2)],
)
@pytest.mark.parametrize(
    "restarts, iterations",
    [pytest.param(r, i, id=str(r) if i == 40 else f"{r}-{i}")
     for r, i in ((1, 40), (2, 40), (5, 40), (2, 400), (3, 400),
                  (TWO_STEP_RESTARTS, 40), (TWO_STEP_RESTARTS + 1, 40))],
)
def test_lockstep_matches_sequential_oracle(layout, measure, rank, restarts, iterations):
    # restart 0 starts from the identity isometry, whose rows past the rank
    # have zero weight, so the member cutoff branch runs in every case; the
    # default budget of 400 iterations runs the rounds as the CLI does, and
    # the restart counts straddle the depth rule
    for seed in (0, 11, 2024) if iterations < 400 else (2024,):
        rng = np.random.default_rng(1000 * rank + seed)
        rho = mixed_state(layout, rng, rank=rank)
        p = int(rng.integers(layout.n_subsystems))
        budget = kt.RoofBudget(restarts=restarts, iterations=iterations, seed=seed)
        roof = _lockstep if layout is L2 and measure == "global" else kt.roof_negativity
        got = roof(rho, p, measure, budget)
        want = sequential_roof(rho, p, measure, budget)
        assert got.value == want.value
        assert got.converged == want.converged
        assert got.restarts_used == want.restarts_used
        assert len(got.certificate.members) == len(want.certificate.members)
        for (p1, s1), (p2, s2) in zip(got.certificate.members, want.certificate.members):
            assert np.array_equal(p1, p2)
            assert np.array_equal(s1.amplitudes, s2.amplitudes)


@pytest.mark.parametrize("measure", ["global", "k2", "k3"])
def test_member_values_drop_zero_weight_rows_only(measure):
    # a stack with every row live is evaluated whole; a row of zero weight,
    # or of weight at the cutoff, reads 0.0 and leaves the other rows' bits
    rng = np.random.default_rng(4)
    value_of = _member_value(measure, 1, L3)
    rows = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    probs = np.einsum("jd,jd->j", rows, rows.conj()).real
    want = np.array([value_of(r[None] / np.sqrt(q))[0] for r, q in zip(rows, probs)])
    assert _values(value_of, rows, probs).tobytes() == want.tobytes()
    rows[2], probs[2] = 0.0, 0.0
    probs[4] = ROOF_MEMBER_CUTOFF
    got = _values(value_of, rows, probs)
    assert got[2] == got[4] == 0.0
    keep = [0, 1, 3, 5]
    assert got[keep].tobytes() == want[keep].tobytes()
    assert not _values(value_of, rows[[2]], probs[[2]]).any()


def _rotation(j, k, t, ph):
    """The pair and the coefficients (c, se, sc) of one step, as the
    sequential search forms them."""
    c, s = math.cos(t), math.sin(t)
    ei = cmath.exp(1j * ph)
    return (j, k), (c, s * ei, -s * np.conj(ei))


def _stepwise(g, m, iters):
    """iters steps drawn one g.random(4) call at a time, as the sequential
    search draws them."""
    steps, theta = [], 0.5
    for _ in range(iters):
        steps.append(_rotation(*rotation_draw(g, m, theta)))
        theta *= 0.995
    return np.array([s[0] for s in steps]), np.array([s[1] for s in steps])


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_draws_match_live_generator_calls(m):
    # every restart after the first draws its isometry before its steps
    for seed in range(50):
        for warm in (False, True):
            got, want = (np.random.default_rng(seed) for _ in range(2))
            if warm:
                for g in (got, want):
                    g.standard_normal((m, 3)), g.standard_normal((m, 3))
            pairs, coefs = _draws(got, m, 64)
            want_pairs, want_coefs = _stepwise(want, m, 64)
            assert np.array_equal(pairs, want_pairs)
            assert coefs.tobytes() == want_coefs.tobytes()


@pytest.mark.parametrize("m", [4, 6, 10])
def test_draws_in_chunks_match_one_draw_and_the_live_calls(m):
    # a search longer than ROOF_DRAW_STEPS draws each stream in chunks
    for seed in range(20):
        whole, chunked, live = (np.random.default_rng(seed) for _ in range(3))
        pairs, coefs = _draws(whole, m, 150)
        parts, start = [], 0
        for n in (37, 1, 62, 50):
            parts.append(_draws(chunked, m, n, start))
            start += n
        assert np.array_equal(np.concatenate([x for x, _ in parts]), pairs)
        assert np.concatenate([y for _, y in parts]).tobytes() == coefs.tobytes()
        _stepwise(live, m, 150)
        state = whole.bit_generator.state
        assert chunked.bit_generator.state == live.bit_generator.state == state


@pytest.mark.parametrize("m", [4, 6, 8])
def test_draws_pick_every_ordered_pair_evenly(m):
    iters = 20000
    pairs, _ = _draws(np.random.default_rng(m), m, iters)
    g, theta, steps = np.random.default_rng(m), 0.5, []
    for _ in range(iters):
        steps.append((*rotation_draw(g, m, theta), theta))
        theta *= 0.995
    j, k, t, ph, theta = np.array(steps).T
    assert np.array_equal(pairs, np.stack((j, k), 1))
    assert (j != k).all() and pairs.min() >= 0 and pairs.max() < m
    counts = np.zeros((m, m), dtype=int)
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    q = 1.0 / (m * (m - 1))
    off = ~np.eye(m, dtype=bool)
    assert np.all(np.abs(counts[off] - iters * q) <= 5 * math.sqrt(iters * q * (1 - q)))
    assert np.all(np.abs(t) <= theta)
    assert np.all((ph >= 0.0) & (ph < 2 * math.pi))


def test_prefetching_rounds_evaluate_several_steps_per_stack():
    # at the default budget of two restarts a round must advance the search
    # by more than two steps on average; one stack per step makes 401
    rho = mixed_state(L3, np.random.default_rng(4), rank=2)
    lam, vec = _support(rho)
    value_of = _member_value("k2", 1, L3)
    stacks = []

    def counted(amps):
        stacks.append(len(amps))
        return value_of(amps)

    budget = kt.RoofBudget(restarts=2, seed=3)
    got = _search(L3, counted, lam, vec, budget)
    assert len(stacks) < budget.iterations / 2
    assert max(stacks) <= max(ROOF_ROUND_ROWS, 2 * 4)  # the first stack holds 2 x m members
    assert got.value == sequential_roof(rho, 1, "k2", budget).value


def test_roof_memory_does_not_grow_with_restarts():
    # the restarts run in groups of STACK_CHUNK // m, so eight groups peak
    # where one does
    rho = mixed_state(L3, np.random.default_rng(4), rank=2)  # m = 4 members
    group = STACK_CHUNK // 4

    def peak(restarts):
        tracemalloc.start()
        try:
            kt.roof_negativity(rho, 0, "k2", kt.RoofBudget(restarts=restarts, iterations=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm the caches
    one, eight = peak(group), peak(8 * group)
    assert eight <= 1.1 * one, (one, eight)


def test_roof_memory_does_not_grow_with_iterations():
    # each restart holds at most ROOF_DRAW_STEPS drawn steps, so a search of
    # 2000 iterations peaks where one of 400 does
    rho = mixed_state(L3, np.random.default_rng(4), rank=2)  # m = 4

    def peak(iterations):
        tracemalloc.start()
        try:
            kt.roof_negativity(rho, 0, "k2", kt.RoofBudget(restarts=16, iterations=iterations))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm the caches
    short, long = peak(ROOF_DRAW_STEPS), peak(2000)
    assert long <= 1.25 * short, (short, long)


def test_a_search_of_the_default_budget_draws_once_per_restart(monkeypatch):
    from ktangle import roof

    calls = []

    def counted(g, m, iters, start=0, _draws=roof._draws):
        calls.append((iters, start))
        return _draws(g, m, iters, start)

    monkeypatch.setattr(roof, "_draws", counted)
    rho = mixed_state(L3, np.random.default_rng(4), rank=2)
    kt.roof_negativity(rho, 0, "k2", kt.RoofBudget(restarts=3))
    assert calls == [(kt.RoofBudget().iterations, 0)] * 3


def test_a_longer_search_draws_each_segment_once_per_restart(monkeypatch):
    # every restart draws segment [seg, end) at its start, after all the
    # initial isometries, and only then the next segment
    from ktangle import roof

    calls = []

    def counted(g, m, iters, start=0, _draws=roof._draws):
        calls.append((g, iters, start))
        return _draws(g, m, iters, start)

    monkeypatch.setattr(roof, "_draws", counted)
    rho = mixed_state(L3, np.random.default_rng(4), rank=2)
    kt.roof_negativity(rho, 0, "k2", kt.RoofBudget(restarts=3, iterations=2 * ROOF_DRAW_STEPS + 37))
    schedule = [(ROOF_DRAW_STEPS, 0), (ROOF_DRAW_STEPS, ROOF_DRAW_STEPS), (37, 2 * ROOF_DRAW_STEPS)]
    assert [c[1:] for c in calls] == [s for s in schedule for _ in range(3)]
    gens = [g for g, _, _ in calls[:3]]
    assert len({id(g) for g in gens}) == 3
    for g in gens:
        assert [c[1:] for c in calls if c[0] is g] == schedule


def test_lockstep_past_one_draw_window_matches_sequential_oracle():
    # three restarts advance by different numbers of steps in each round,
    # and the search crosses two segment boundaries, where every restart
    # draws the steps of its next segment
    rng = np.random.default_rng(77)
    rho = mixed_state(L3, rng, rank=2)
    budget = kt.RoofBudget(restarts=3, iterations=2 * ROOF_DRAW_STEPS + 37, seed=5)
    got = kt.roof_negativity(rho, 1, "k2", budget)
    want = sequential_roof(rho, 1, "k2", budget)
    assert got.value == want.value and got.converged == want.converged
    for (p1, s1), (p2, s2) in zip(got.certificate.members, want.certificate.members, strict=True):
        assert p1 == p2 and np.array_equal(s1.amplitudes, s2.amplitudes)


def _member_stack(layout, rng, b):
    z = rng.standard_normal((b, layout.total_dim)) + 1j * rng.standard_normal((b, layout.total_dim))
    return z / np.linalg.norm(z, axis=1)[:, None]


@pytest.mark.parametrize(
    "layout, measure", [(L2, "global"), (L3, "global"), (L3, "k2"), (L3, "k3")]
)
def test_stacked_member_value_matches_density_route(layout, measure):
    vecs = _member_stack(layout, np.random.default_rng(5), 9)
    # a product member has no negative eigenvalue, so its P_minus columns
    # are all masked in the stack
    vecs[4] = 0.0
    vecs[4, 0] = 1.0
    for p in range(layout.n_subsystems):
        got = _member_value(measure, p, layout)(vecs)
        assert got.shape == (9,)
        for v, g in zip(vecs, got):
            # bit for bit the public pure route, which the members take, and
            # the density route (eigh of the global transpose) to 1e-13
            rep = kt.negativity_report(kt.PureState(layout, v), p)
            rho = kt.DensityOperator(layout, np.outer(v, v.conj()))
            if measure == "global":
                pure = rep.n_global
                want = kt.negativity_from_pt(kt.global_pt(rho, p), layout.dims[p])
            else:
                pure = rep.e_partial[int(measure[1:])]
                want = kt.negativity_report(rho, p).e_partial[int(measure[1:])]
            assert np.array_equal(g, pure)
            assert abs(g - want) <= 1e-13
