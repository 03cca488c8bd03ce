"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  Randomized criteria use
fixed seeds so the suite is reproducible byte for byte.
"""

import json
import math

import numpy as np

import ktangle as kt
from ktangle.cli import main

from conftest import L3, L4, eigen_members, mixed_state, random_form, real_pure


def test_criterion_01_canonical_closed_form_suite():
    # nine closed-form values vs the full numeric pipeline on 1000 random
    # forms; sampled on the real slice phi in {0, pi} where the E-channel
    # identities are exact (complex phases shift weight between the 2-way
    # and 3-way channels; that regime is pinned down at the end)
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(1000):
        form = random_form(rng, phases=(0.0, math.pi))
        psi = kt.build_canonical_state(form)
        rep = kt.negativity_report(kt.outer(psi), 0)
        tan = kt.three_tangle(psi, 0)
        crep, ctan = kt.canonical_closed_forms(form)
        diffs = [
            rep.n_global - crep.n_global,
            rep.e_partial[2] - crep.e_partial[2],
            rep.e_partial[3] - crep.e_partial[3],
            rep.pair_split[1] - crep.pair_split[1],
            rep.pair_split[2] - crep.pair_split[2],
            tan.tau_focus - ctan.tau_focus,
            tan.tau_pairs[1] - ctan.tau_pairs[1],
            tan.tau_pairs[2] - ctan.tau_pairs[2],
            tan.tau3 - ctan.tau3,
        ]
        worst = max(worst, max(abs(d) for d in diffs))
    assert worst <= 1e-9

    # disclosure: off the real slice the tangle and N_G rows still hold but
    # the E split does not; the difference is the coherence delta
    form = random_form(np.random.default_rng(7), phases=(math.pi / 2,))
    psi = kt.build_canonical_state(form)
    rep = kt.negativity_report(kt.outer(psi), 0)
    tan = kt.three_tangle(psi, 0)
    crep, ctan = kt.canonical_closed_forms(form)
    assert abs(rep.n_global - crep.n_global) <= 1e-10
    assert abs(tan.tau3 - ctan.tau3) <= 1e-10
    assert abs(rep.e_partial[3] - crep.e_partial[3]) > 1e-3


def test_criterion_02_transpose_identity_suite():
    # decomposition identities, elementwise <= 1e-14, on 200 real-valued
    # random states (100 pure + 100 mixed); the pair identity additionally
    # holds for complex states and is checked there too
    rng = np.random.default_rng(11)
    for i in range(200):
        if i % 2 == 0:
            rho = kt.outer(real_pure(L3, rng))
        else:
            rho = mixed_state(L3, rng, rank=4, real=True)
        lhs = kt.global_pt(rho, 0)
        rhs = kt.kway_pt(rho, 3, 0) + kt.kway_pt(rho, 2, 0) - rho.matrix
        assert np.abs(lhs - rhs).max() <= 1e-14
        two = kt.kway_pt(rho, 2, 0)
        split = kt.pair_pt(rho, 0, 1) + kt.pair_pt(rho, 0, 2) - rho.matrix
        assert np.abs(two - split).max() <= 1e-14
    for _ in range(50):
        rho = mixed_state(L3, rng, rank=3, real=False)
        two = kt.kway_pt(rho, 2, 0)
        split = kt.pair_pt(rho, 0, 1) + kt.pair_pt(rho, 0, 2) - rho.matrix
        assert np.abs(two - split).max() <= 1e-14


def test_criterion_03_sum_rule():
    rng = np.random.default_rng(23)
    for i in range(200):
        if i % 2 == 0:
            rho = kt.outer(real_pure(L3, rng))
        else:
            rho = mixed_state(L3, rng, rank=4, real=True)
        for p in range(3):
            assert kt.negativity_report(rho, p).sum_residual <= 1e-9
    for _ in range(50):
        rho = kt.outer(real_pure(L4, rng))
        for p in range(4):
            assert kt.negativity_report(rho, p).sum_residual <= 1e-9


def test_criterion_04_pure_state_one_tangle_identity():
    for seed in range(1000):
        psi = kt.haar_random_pure(L3, seed)
        p = seed % 3
        ng = kt.negativity_from_pt(kt.global_pt(kt.outer(psi), p), 2)
        assert abs(ng * ng - kt.one_tangle(psi, p)) <= 1e-9


def test_criterion_05_inequality_audit(capsys):
    rc = main(["audit", "--random", "10000", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[-1] == "10000,3,7,0,0,0"


def test_criterion_06_ghz_and_w_points():
    r = 1 / math.sqrt(2)
    v = np.zeros(8)
    v[0] = v[7] = r
    ghz = kt.PureState(L3, v)
    rep = kt.negativity_report(kt.outer(ghz), 0)
    tan = kt.three_tangle(ghz)
    assert abs(rep.n_global - 1.0) <= 1e-12
    assert abs(rep.e_partial[3] - 1.0) <= 1e-12
    assert abs(rep.e_partial[2]) <= 1e-12
    assert abs(tan.tau3 - 1.0) <= 1e-12

    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / math.sqrt(3)
    wst = kt.PureState(L3, w)
    wrep = kt.negativity_report(kt.outer(wst), 0)
    wtan = kt.three_tangle(wst)
    ref = 2 * math.sqrt(2) / 3
    assert abs(wtan.tau3) <= 1e-12
    assert abs(wrep.n_global - ref) <= 1e-10
    assert abs(wrep.e_partial[2] - ref) <= 1e-10


def test_criterion_07_rotation_profile():
    for a in (0.3, 1 / math.sqrt(2), 0.9):
        v = np.zeros(8)
        v[0], v[7] = a, math.sqrt(1 - a * a)
        psi = kt.PureState(L3, v)
        ng = 2 * a * math.sqrt(1 - a * a)
        for alpha in np.linspace(0.0, math.pi, 11):
            e3c, e2c = kt.ghz_rotation_profile(a, float(alpha))
            rot = kt.apply_local_unitary(psi, kt.third_qubit_rotation(float(alpha)))
            rep = kt.negativity_report(kt.outer(rot), 0)
            assert abs(rep.e_partial[3] - e3c) <= 1e-10
            assert abs(rep.e_partial[2] - e2c) <= 1e-10
        _, e2_half = kt.ghz_rotation_profile(a, math.pi / 2)
        assert abs(e2_half * ng - ng * ng / 2) <= 1e-10


def test_criterion_08_ghzw_family():
    # closed tangle vs canonical-route e3 * ng on a 101-point grid, both signs
    for sign in (1, -1):
        for row in kt.sweep_family(sign, 0.0, 1.0, 101):
            assert abs(row.e3_times_ng - row.tau3_formula) <= 1e-6

    z = kt.tau3_minus_zero()
    assert abs(z - 0.62685) <= 1e-4

    params = kt.GhzwParams(q=z, sign=-1)
    res = kt.ghzw_canonical_params(params)
    crep, _ = kt.canonical_closed_forms(res.forms[0])
    assert abs(crep.n_global - 0.9103) <= 5e-4
    assert abs(crep.e_partial[2] - 0.9103) <= 5e-4
    assert crep.e_partial[3] <= 1e-3
    ua = res.unitaries[0][0].matrix
    alpha, beta = sorted((abs(ua[0, 0]), abs(ua[0, 1])), reverse=True)
    assert abs(alpha - 0.78327) <= 5e-5
    assert abs(beta - 0.62169) <= 5e-5

    # squared pair negativities of the degenerate-point state, roof route
    v = np.zeros(8, dtype=complex)
    v[2] = -0.56731
    v[4] = -0.56731
    v[6] = 0.18578
    v[7] = 0.56731
    v /= np.linalg.norm(v)
    psi = kt.PureState(L3, v)
    budget = kt.RoofBudget(restarts=14, iterations=500, seed=5)
    squares = []
    for pair in ((0, 1), (0, 2)):
        rho2 = kt.partial_trace(kt.outer(psi), list(pair))
        roof = kt.roof_negativity(rho2, 0, "global", budget)
        squares.append(roof.value**2)
        assert abs(roof.value**2 - 0.4143) <= 5e-4
    assert abs(sum(squares) - 0.8286) <= 1e-3


def test_criterion_09_convex_roof():
    budget = kt.RoofBudget(restarts=6, iterations=150, seed=0)

    psi = kt.haar_random_pure(L3, 17)
    rho = kt.outer(psi)
    direct = kt.negativity_from_pt(kt.global_pt(rho, 0), 2)
    res = kt.roof_negativity(rho, 0, "global", budget)
    assert res.restarts_used == 0
    # pure input short-circuits to the direct value of its one member, which
    # takes the Schmidt route; the density route agrees to rounding
    (_, member), = res.certificate.members
    assert res.value == kt.negativity_report(member, 0).n_global
    assert abs(res.value - direct) <= 1e-13

    half = np.zeros((4, 4))
    half[0, 0] = half[3, 3] = 0.5
    sep = kt.DensityOperator(kt.qubit_layout(2), half)
    assert kt.roof_negativity(sep, 0, "global", budget).value <= 1e-6

    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = mixed_state(kt.qubit_layout(2), rng, rank=3)
        res = kt.roof_negativity(rho, 0, "global", budget)
        avg = sum(
            p * kt.negativity_from_pt(kt.global_pt(kt.outer(s), 0), 2)
            for p, s in eigen_members(rho)
        )
        assert res.value <= avg + 1e-9


def test_criterion_10_determinism(capsys, tmp_path):
    def run(argv):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return out

    audit = ["audit", "--random", "200", "--seed", "11"]
    assert run(audit) == run(audit)

    sweep = ["sweep", "--family", "ghzw", "--sign", "minus", "--q", "0:1:21"]
    assert run(sweep) == run(sweep)

    doc = {
        "dims": [2, 2],
        "ensemble": [
            {"p": 0.5, "amplitudes": [{"re": 1.0, "im": 0.0}] + [{"re": 0.0, "im": 0.0}] * 3},
            {"p": 0.5, "amplitudes": [{"re": 0.0, "im": 0.0}] * 3 + [{"re": 1.0, "im": 0.0}]},
        ],
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    roof = ["roof", str(path), "--focus", "A", "--measure", "global", "--restarts", "5", "--seed", "2"]
    first = run(roof)
    second = run(roof)
    assert first == second
    json.loads(first)  # output is well-formed JSON
