"""The stacked (B, D, D) pipeline against its batches of one.

The public scalar functions call the stacked code with a stack of one
matrix, so these tests compare a stack of several states, row by row, with
the public result for each state on its own.
"""

import io
import contextlib

import numpy as np
import pytest

import ktangle as kt
from ktangle import cli, negativity
from ktangle.config import EPS_EIG, EPS_NORM, STACK_CHUNK
from ktangle.core import _check_density, _check_norm, _eigh, _haar_amplitudes, _outer, _partial_trace
from ktangle.negativity import _report_arrays, _schmidt
from ktangle.tangle import _factor, _pair_tangle, _tangles
from ktangle.transpose import _kway_pt

from conftest import L3, L4, mixed_state, sqrt_route_wootters


def _haar_stack(layout, seed, b=6):
    rng = np.random.default_rng(seed)
    return np.stack([kt.outer(kt.haar_random_pure(layout, rng)).matrix for _ in range(b)])


def _mixed_stack(layout, seed, b=6):
    rng = np.random.default_rng(seed)
    return np.stack([mixed_state(layout, rng, rank=1 + k % 4).matrix for k in range(b)])


STACKS = {
    "haar3": lambda: (L3, _haar_stack(L3, 1)),
    "haar4": lambda: (L4, _haar_stack(L4, 2)),
    "mixed3": lambda: (L3, _mixed_stack(L3, 3)),
    "mixed4": lambda: (L4, _mixed_stack(L4, 4)),
}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_report_arrays_match_batch_of_one(name):
    layout, M = STACKS[name]()
    for p in range(layout.n_subsystems):
        a = _report_arrays(M, layout.dims, p)
        n_kway = {
            K: kt.negativity_from_pt(_kway_pt(M, layout.dims, K, p), layout.dims[p])
            for K in range(2, layout.n_subsystems + 1)
        }
        for b in range(M.shape[0]):
            rep = kt.negativity_report(kt.DensityOperator(layout, M[b]), p)
            # same LAPACK calls on the same matrix: bit for bit
            assert a.n_global[b] == rep.n_global
            w = a.eigenvalues[b]
            assert list(w[w < -EPS_EIG]) == [lam for lam, _ in rep.negative_eigenpairs]
            vecs = a.negative_vectors[b].T[: len(rep.negative_eigenpairs)]
            for vec, (_, ref) in zip(vecs, rep.negative_eigenpairs, strict=True):
                assert np.abs(vec - ref).max() <= 1e-14
            # the stack has no n_kway; the report takes it from the stacked route
            assert {K: v[b] for K, v in n_kway.items()} == rep.n_kway
            for field in ("e_partial", "pair_split"):
                row = getattr(a, field)
                ref = getattr(rep, field)
                assert set(row) == set(ref)
                for k in ref:
                    assert abs(row[k][b] - ref[k]) <= 1e-14, (field, k)
            assert abs(a.e0[b] - rep.e0) <= 1e-14
            assert abs(a.sum_residual[b] - rep.sum_residual) <= 1e-14
            flagged = [K for K in a.violates if a.violates[K][b]]
            named = " ".join(rep.violations)
            assert flagged == [K for K in rep.e_partial if f"e_partial[{K}]" in named]


@pytest.mark.parametrize("layout", [L3, L4], ids=["3q", "4q"])
def test_pure_report_arrays_match_batch_of_one(layout):
    # amplitude rows take the Schmidt route, as audit's stacks do
    amps = _haar_amplitudes(layout.total_dim, np.random.default_rng(len(layout.dims)), 6)
    amps[2] = 0.0
    amps[2, 0] = 1.0  # a product row: its columns are masked in the stack
    for p in range(layout.n_subsystems):
        a = _report_arrays(amps, layout.dims, p)
        for b in range(amps.shape[0]):
            rep = kt.negativity_report(kt.PureState(layout, amps[b]), p)
            # the same SVD of the same matrix: bit for bit
            assert a.n_global[b] == rep.n_global
            w = a.eigenvalues[b]
            assert list(w[w < -EPS_EIG]) == [lam for lam, _ in rep.negative_eigenpairs]
            vecs = a.negative_vectors[b].T[: len(rep.negative_eigenpairs)]
            for vec, (_, ref) in zip(vecs, rep.negative_eigenpairs, strict=True):
                assert np.array_equal(vec, ref)
            for field in ("e_partial", "pair_split"):
                row, ref = getattr(a, field), getattr(rep, field)
                assert set(row) == set(ref)
                for k in ref:
                    assert abs(row[k][b] - ref[k]) <= 1e-14, (field, k)
            assert abs(a.e0[b] - rep.e0) <= 1e-14
            assert abs(a.sum_residual[b] - rep.sum_residual) <= 1e-14


@pytest.mark.parametrize("name", ["haar3", "haar4"])
def test_tangles_match_batch_of_one(name):
    layout, seed = {"haar3": (L3, 1), "haar4": (L4, 2)}[name]
    rng = np.random.default_rng(seed)
    psis = [kt.haar_random_pure(layout, rng) for _ in range(6)]
    amps = np.stack([psi.amplitudes for psi in psis])
    n = layout.n_subsystems
    for focus in range(n):
        n_global = _schmidt(amps, layout.dims, focus)[0]
        tau_f, pairs, resid = _tangles(n_global, amps, layout.dims, focus)
        assert sorted(pairs) == [q for q in range(n) if q != focus]
        for b, psi in enumerate(psis):
            rho = kt.outer(psi)
            assert tau_f[b] == kt.one_tangle(psi, focus)
            for partner, tau in pairs.items():
                # the amplitude slices against the eigensolved reduction
                red = kt.partial_trace(rho, [focus, partner])
                assert abs(tau[b] - kt.wootters_tangle(red)) <= 1e-14
                assert abs(tau[b] - sqrt_route_wootters(red.matrix)) <= 1e-12
            if n == 3:
                rep = kt.three_tangle(psi, focus)
                assert tau_f[b] == rep.tau_focus
                for partner, tau in pairs.items():
                    assert tau[b] == rep.tau_pairs[partner]
                assert resid[b] == rep.tau3


def test_wootters_stack_matches_batch_of_one():
    # mixed two-qubit stack, including rank-deficient members near the clamp
    rng = np.random.default_rng(9)
    L2 = kt.qubit_layout(2)
    M = np.stack([mixed_state(L2, rng, rank=1 + k % 4).matrix for k in range(8)])
    tau = _pair_tangle(_factor(M))
    for b in range(M.shape[0]):
        assert abs(tau[b] - kt.wootters_tangle(kt.DensityOperator(L2, M[b]))) <= 1e-14


def test_partial_trace_stack_matches_per_matrix():
    layout, M = STACKS["mixed4"]()
    for keep in ([0], [1, 3], [0, 1, 2]):
        red = _partial_trace(M, layout.dims, keep)
        for b in range(M.shape[0]):
            ref = kt.partial_trace(kt.DensityOperator(layout, M[b]), keep).matrix
            assert np.array_equal(red[b], ref)


def test_haar_stacks_straddle_the_chunk():
    n = STACK_CHUNK + 3
    stacks = list(cli._haar_stacks(L3, n, np.random.default_rng(5)))
    assert [s.shape[0] for s in stacks] == [STACK_CHUNK, 3]
    rng = np.random.default_rng(5)
    ref = np.stack([kt.haar_random_pure(L3, rng).amplitudes for _ in range(n)])
    assert np.array_equal(np.concatenate(stacks), ref)


def _reference_audit(n_states, qubits, seed, eps):
    # the audit written state by state over the public functions
    layout = kt.qubit_layout(qubits)
    rng = np.random.default_rng(seed)
    e2 = e3 = ckw = 0
    for _ in range(n_states):
        psi = kt.haar_random_pure(layout, rng)
        rho = kt.outer(psi)
        rep = kt.negativity_report(rho, 0)
        if abs(rep.e0) <= eps:
            e2 += rep.e_partial[2] > rep.n_global + eps
            e3 += rep.e_partial[3] > rep.n_global + eps
        tau_f = kt.one_tangle(psi, 0)
        pairs = sum(kt.wootters_tangle(kt.partial_trace(rho, [0, j])) for j in range(1, qubits))
        ckw += tau_f + eps < pairs
    return f"{n_states},{qubits},{seed},{e2},{e3},{ckw}"


def _audit_line(n_states, qubits, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["audit", "--random", str(n_states), "--seed", str(seed),
                       "--qubits", str(qubits)])
    assert rc == 0
    return out.getvalue().splitlines()[-1]


@pytest.mark.parametrize("offset", [-1, 1])
def test_audit_counts_match_state_by_state_loop(offset):
    n = STACK_CHUNK + offset
    assert _audit_line(n, 3, 8) == _reference_audit(n, 3, 8, EPS_NORM)


@pytest.mark.parametrize("qubits,slack", [(3, -0.1), (4, -0.7)])
def test_audit_counts_match_with_a_shifted_gate(monkeypatch, qubits, slack):
    # with the default gates every count is 0; a negative slack makes the
    # CKW column count the states whose residual tangle is below -slack, so
    # the stacked counting is compared on nonzero counts
    monkeypatch.setattr(cli, "EPS_NORM", slack)
    monkeypatch.setattr(negativity, "EPS_NORM", slack)
    n = STACK_CHUNK + 1
    line = _audit_line(n, qubits, 4)
    assert 0 < int(line.split(",")[-1]) < n
    assert line == _reference_audit(n, qubits, 4, slack)


def _valid_stack():
    return _mixed_stack(L3, 11, b=5)


def _corrupt(kind):
    M = _valid_stack()
    if kind == "hermiticity":
        M[3, 0, 1] += 1e-3
    elif kind == "trace":
        M[3] *= 1.01
    elif kind == "eigenvalue":
        M[3] = np.diag([0.6, 0.5, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    elif kind == "nan":
        M[3, 2, 2] = np.nan
    return M


@pytest.mark.parametrize("kind,match", [
    ("hermiticity", "hermiticity"),
    ("trace", "trace"),
    ("eigenvalue", "eigenvalue"),
    ("nan", "hermiticity defect = nan"),
])
def test_stacked_density_check_names_the_bad_matrix(kind, match):
    _check_density(_valid_stack())
    with pytest.raises(kt.ValidationError, match=match) as exc:
        _check_density(_corrupt(kind))
    assert "stack index 3" in str(exc.value)


def test_stacked_checks_cover_every_matrix():
    M = _corrupt("hermiticity")
    with pytest.raises(kt.ValidationError, match="stack index 3"):
        kt.trace_norm(M)
    # the transposes only move entries; the public one checks its input,
    # here the broken matrix set after construction
    rho = kt.DensityOperator(L3, _valid_stack()[3])
    rho.matrix = M[3]
    with pytest.raises(kt.ValidationError, match="hermiticity defect"):
        kt.global_pt(rho, 0)
    v = np.stack([kt.haar_random_pure(L3, s).amplitudes for s in range(4)])
    _check_norm(v)
    v[2, 0] = np.nan
    with pytest.raises(kt.ValidationError, match="norm = nan.*stack index 2"):
        _check_norm(v)


def test_stacked_eigensystem_and_trace_norm():
    _, M = STACKS["mixed3"]()
    w, V = _eigh(M)
    norms = kt.trace_norm(M)
    assert w.shape == M.shape[:-1] and norms.shape == M.shape[:1]
    for b in range(M.shape[0]):
        w1, V1 = _eigh(M[b])
        assert np.array_equal(w[b], w1)
        assert np.array_equal(V[b], V1)
        assert norms[b] == kt.trace_norm(M[b])
    assert isinstance(kt.trace_norm(M[0]), float)


def test_outer_stack_is_np_outer():
    v = np.stack([kt.haar_random_pure(L4, s).amplitudes for s in range(3)])
    P = _outer(v)
    for b in range(3):
        assert np.array_equal(P[b], np.outer(v[b], v[b].conj()))
