"""The negativity pipeline against its oracles.

Density input: trace norms come from Hermitian spectra and channels from the
negative eigenvectors; conftest keeps the former route (SVD trace norms,
P_minus built as a D x D matrix) as the oracle these tests compare with.
Pure input: the Schmidt route gives the negative eigenpairs in closed form
for a qubit focus and from one SVD for a larger one; the eigh route of the
same state's density operator is its oracle.
"""

import contextlib
import io
import math

import numpy as np
import pytest

import ktangle as kt
from ktangle import cli, negativity
from ktangle.config import EPS_EIG
from ktangle.core import _density_factor, _outer
from ktangle.ghzw import _ghzw_amplitudes
from ktangle.negativity import _kway_channel, _n_kway, _report_arrays
from ktangle.roof import _member_value
from ktangle.tangle import _tangles
from ktangle.transpose import _global_pt

from conftest import (
    L2,
    L3,
    amplitudes_json,
    mixed_state,
    projector_kway_channel,
    projector_report,
    svd_trace_norm,
)

TOL = 1e-13


def _states(n):
    layout = kt.qubit_layout(n)
    rng = np.random.default_rng(100 + n)
    return layout, [kt.outer(kt.haar_random_pure(layout, rng)), mixed_state(layout, rng, rank=3)]


@pytest.mark.parametrize("n", range(2, 9))
def test_report_matches_projector_oracle(n):
    layout, states = _states(n)
    for rho in states:
        # from 7 qubits both states take the factor route (_density_factor),
        # whose eigensolve is its own: there the eigenvalues (each simple)
        # agree to TOL and the printed, gauged vectors entry by entry.  The
        # eigh route, run on the same matrix without a factor, runs the
        # oracle's eigh at every size and matches it bit for bit.
        factor = _density_factor(rho) is not None
        assert factor == (n >= 7), n
        for p in range(n):
            rep = kt.negativity_report(rho, p)
            dense = _report_arrays(rho.matrix[None], layout.dims, p)
            ref = projector_report(rho.matrix[None], layout.dims, p)
            for name in ("n_global", "e0", "sum_residual"):
                assert abs(getattr(rep, name) - ref[name][0]) <= TOL, (n, p, name)
                assert abs(getattr(dense, name)[0] - ref[name][0]) <= TOL, (n, p, name)
            for name in ("n_kway", "e_partial", "pair_split"):
                got, want = getattr(rep, name), ref[name]
                assert set(got) == set(want), (n, p, name)
                for k in want:
                    assert abs(got[k] - want[k][0]) <= TOL, (n, p, name, k)
            w, V = ref["eigenvalues"][0], ref["negative_vectors"][0]
            neg = [(lam, vec) for lam, vec in zip(w, V.T) if lam < -EPS_EIG]
            eigh = negativity._negative_pairs(dense.eigenvalues[0], dense.negative_vectors[0])
            assert len(rep.negative_eigenpairs) == len(eigh) == len(neg)
            for (lam, vec), (lam_d, vec_d), (lam_ref, vec_ref) in zip(rep.negative_eigenpairs, eigh, neg):
                assert lam_d == lam_ref and np.array_equal(vec_d, vec_ref)
                if factor:
                    assert abs(lam - lam_ref) <= TOL, (n, p)
                    assert np.abs(cli._gauged(vec) - cli._gauged(vec_ref)).max() <= TOL, (n, p)
                else:
                    assert lam == lam_ref and np.array_equal(vec, vec_ref)
            flagged = [K for K in sorted(ref["violates"]) if ref["violates"][K][0]]
            assert len(rep.violations) == len(flagged)


def _roof_members(layout, seed, rank=3, m=6):
    # unit member vectors of random decompositions, as the roof search makes them
    rng = np.random.default_rng(seed)
    lam, vec = np.linalg.eigh(mixed_state(layout, rng, rank=rank).matrix)
    base = (vec[:, -rank:] * np.sqrt(lam[-rank:])).T
    rows = []
    for _ in range(4):
        z = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        rows.extend(np.linalg.qr(z)[0] @ base)
    rows = np.array(rows)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


@pytest.mark.parametrize("layout", [L3, kt.qubit_layout(4)], ids=["3q", "4q"])
def test_kway_channel_matches_projector_oracle_on_roof_members(layout):
    M = _outer(_roof_members(layout, seed=len(layout.dims)))
    for p in range(layout.n_subsystems):
        for K in range(2, layout.n_subsystems + 1):
            got = _kway_channel(M, layout.dims, K, p)
            want = projector_kway_channel(M, layout.dims, K, p)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= TOL, (p, K)


CHANNEL_DIMS = [(2, 2, 2), (2, 2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2, 2)]


def _channel_stacks(dims):
    # a pure (B, D) stack and a density (B, D, D) stack of the layout
    layout = kt.SubsystemLayout(dims)
    rng = np.random.default_rng(sum(dims) * len(dims))
    amps = np.stack([kt.haar_random_pure(layout, rng).amplitudes for _ in range(4)])
    rhos = np.stack([mixed_state(layout, rng, rank=1 + k).matrix for k in range(3)])
    return {"pure": amps, "density": rhos}


def _channel_error(state, dims, p):
    """Largest deviation of e_partial, e0 and pair_split of a stack from
    projector_report, with the fields of each side."""
    got = _report_arrays(state, dims, p)
    want = projector_report(_outer(state) if state.ndim == 2 else state, dims, p)
    assert set(got.e_partial) == set(want["e_partial"]) == set(range(2, len(dims) + 1))
    assert set(got.pair_split) == set(want["pair_split"])
    pairs = [(got.e0, want["e0"])]
    for name in ("e_partial", "pair_split"):
        pairs += [(getattr(got, name)[k], want[name][k]) for k in want[name]]
    return max(np.abs(g - w).max() for g, w in pairs)


@pytest.mark.parametrize("dims", CHANNEL_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_channels_match_the_projector_oracle(dims):
    # a focus of dimension 3 sums three off-diagonal blocks; a qubit focus
    # next to a qutrit reads a label table over mixed dimensions
    for route, state in _channel_stacks(dims).items():
        for p in range(len(dims)):
            assert _channel_error(state, dims, p) <= TOL, (route, p)


@pytest.mark.parametrize("bug", ["swapped_pairs", "diff3_as_diff2"])
@pytest.mark.parametrize("route", ["pure", "density"])
def test_a_seeded_label_table_bug_fails_the_oracle(monkeypatch, route, bug):
    dims = (2, 2, 2)
    state = _channel_stacks(dims)[route]
    plan = negativity._channel_plan

    def seeded(dims, p):
        split, table = plan(dims, p)
        labels = table.copy()
        if bug == "swapped_pairs":
            labels[table == 2], labels[table == 4] = 4, 2
        else:
            labels.flat[np.flatnonzero(table == 3)[0]] = 2
        return split, labels

    assert all(_channel_error(state, dims, p) <= TOL for p in range(3))
    monkeypatch.setattr(negativity, "_channel_plan", seeded)
    assert all(_channel_error(state, dims, p) > 1e-6 for p in range(3))


@pytest.mark.parametrize("layout", [L3, kt.qubit_layout(4)], ids=["3q", "4q"])
def test_kway_channel_of_pure_roof_members_matches_the_oracle(layout):
    # the roof evaluates its members as amplitude stacks: the Schmidt route
    amps = _roof_members(layout, seed=len(layout.dims))
    for p in range(layout.n_subsystems):
        for K in range(2, layout.n_subsystems + 1):
            got = _kway_channel(amps, layout.dims, K, p)
            want = projector_kway_channel(_outer(amps), layout.dims, K, p)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= TOL, (p, K)


def test_pure_channel_sums_do_not_depend_on_the_stack_size():
    # each state's class sums are added in a fixed order, so a stack and its
    # rows one by one agree bit for bit (the roof's prefetched search relies
    # on it)
    for dims in CHANNEL_DIMS:
        amps = _channel_stacks(dims)["pure"]
        for p in range(len(dims)):
            V, S = negativity._global_spectrum(amps, dims, p)[2:]
            t_id, s = negativity._channels(S, dims, p, V)
            for b in range(len(amps)):
                V, S = negativity._global_spectrum(amps[b : b + 1], dims, p)[2:]
                one = negativity._channels(S, dims, p, V)
                assert one[0][0] == t_id[b], (dims, p, b)
                assert one[1][0].tobytes() == s[b].tobytes(), (dims, p, b)


@pytest.mark.parametrize("D", [2, 4, 8, 16, 64])
def test_trace_norm_matches_svd_on_hermitian_stacks(D):
    rng = np.random.default_rng(D)
    z = rng.standard_normal((5, D, D)) + 1j * rng.standard_normal((5, D, D))
    h = z + z.conj().swapaxes(-1, -2)
    h /= np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)[:, None, None]  # trace norm about 1
    got, want = kt.trace_norm(h), svd_trace_norm(h)
    assert got.shape == want.shape == (5,)
    assert np.abs(got - want).max() <= TOL
    assert abs(kt.trace_norm(h[0]) - svd_trace_norm(h[0])) <= TOL


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(kt.ValidationError, match="hermiticity defect"):
        kt.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = np.stack([np.eye(3) / 3, np.eye(3) / 3])
    h[1, 0, 2] = 0.5
    with pytest.raises(kt.ValidationError, match="stack index 1"):
        kt.trace_norm(h)


def _eigensolver_inputs(monkeypatch):
    """Every array passed to np.linalg.eigh or eigvalsh from now on."""
    seen = []
    for name in ("eigh", "eigvalsh"):

        def record(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            seen.append(np.array(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return seen


def _sees(seen, G):
    """Whether a recorded array holds one of the D x D matrices of G."""
    D = G.shape[-1]
    G = G.reshape(1, -1, D, D)
    for a in seen:
        if a.shape[-2:] == (D, D):
            diff = np.abs(a.reshape(-1, 1, D, D) - G).max(axis=(-2, -1))
            if (diff <= 1e-12).any():
                return True
    return False


def test_no_eigensolve_sees_a_global_transpose_of_pure_input(monkeypatch, capsys, write_state):
    seen = _eigensolver_inputs(monkeypatch)

    def transposes(amps, dims, p):
        return _global_pt(_outer(np.atleast_2d(amps)), dims, p)

    # the check is not vacuous: density input solves its global transpose
    psi = kt.haar_random_pure(kt.qubit_layout(4), 3)
    G = transposes(psi.amplitudes, psi.layout.dims, 1)
    kt.negativity_report(kt.outer(psi), 1)
    assert _sees(seen, G)

    seen.clear()
    kt.negativity_report(psi, 1)
    path = write_state("pure4.json", {"dims": [2] * 4, "amplitudes": amplitudes_json(psi.amplitudes)})
    assert cli.main(["analyze", path, "--focus", "B"]) == 3
    assert capsys.readouterr().out.startswith("{")
    assert seen and not _sees(seen, G)  # the half-size K-way eigh calls still run

    seen.clear()
    assert cli.main(["audit", "--random", "10", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("states,")
    drawn = np.concatenate(list(cli._haar_stacks(L3, 10, np.random.default_rng(7))))
    assert not _sees(seen, transposes(drawn, L3.dims, 0))

    seen.clear()
    psi3 = kt.haar_random_pure(L3, 4)
    kt.coherence_delta(psi3)
    assert not _sees(seen, transposes(psi3.amplitudes, L3.dims, 0))

    # a pure file reaches the roof as a rank-one density operator; its one
    # member takes the Schmidt route
    path3 = write_state("pure3.json", {"dims": [2] * 3, "amplitudes": amplitudes_json(psi3.amplitudes)})
    for measure in ("global", "k2"):
        seen.clear()
        assert cli.main(["roof", path3, "--focus", "A", "--measure", measure]) == 0
        assert '"bound": "exact"' in capsys.readouterr().out
        assert seen and not _sees(seen, transposes(psi3.amplitudes, L3.dims, 0))

    three, two = _roof_members(L3, seed=1), _roof_members(L2, seed=2, rank=2, m=3)
    for layout, members, measure, p in (
        (L3, three, "global", 0), (L3, three, "k2", 1), (L3, three, "k3", 2), (L2, two, "global", 1)
    ):
        seen.clear()
        assert _member_value(measure, p, layout)(members).shape == (len(members),)
        assert not _sees(seen, transposes(members, layout.dims, p))


def _product(dims, rng):
    v = np.ones(1, dtype=complex)
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = np.kron(v, z / np.linalg.norm(z))
    return v


def _ghz(dims):
    v = np.zeros(math.prod(dims), dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)  # |0...0> and the all-top-label state
    return v


def _w(dims):
    v = np.zeros(math.prod(dims), dtype=complex)
    for m in range(len(dims)):
        v[math.prod(dims[m + 1 :])] = 1 / math.sqrt(len(dims))  # label 1 on subsystem m
    return v


def _zero_bell(dims):
    """|0...0> on all but the last two subsystems, times (|00> + |11>)/sqrt(2)
    on those: the first focus of three or more has s_1 = 0 exactly."""
    v = np.zeros(math.prod(dims), dtype=complex)
    v[0] = v[dims[-1] + 1] = 1 / math.sqrt(2)
    return v


def _two_term(dims, prod):
    """cos t |0...0> + sin t |1...1> with cos t sin t = prod: across every
    cut its one negative eigenvalue is -prod."""
    t = math.asin(2 * prod) / 2
    v = np.zeros(math.prod(dims), dtype=complex)
    v[0] = math.cos(t)
    v[sum(math.prod(dims[m + 1 :]) for m in range(len(dims)))] = math.sin(t)
    return v


_PURE_LAYOUTS = [(2, 2), (2, 2, 2), (3, 2, 2), (2, 3), (4, 2), (2,) * 5, (2,) * 7]


def _pure_cases(dims):
    rng = np.random.default_rng(sum(dims) * len(dims))
    layout = kt.SubsystemLayout(dims)
    return {
        "haar": kt.haar_random_pure(layout, rng).amplitudes,
        "product": _product(dims, rng),
        "zero": np.eye(1, math.prod(dims), dtype=complex)[0],
        "zero_bell": _zero_bell(dims),
        "ghz": _ghz(dims),
        "w": _w(dims),
        "above_eps_eig": _two_term(dims, 2 * EPS_EIG),
        "below_eps_eig": _two_term(dims, EPS_EIG / 2),
    }


@pytest.mark.parametrize("dims", _PURE_LAYOUTS, ids=lambda d: "x".join(map(str, d)))
def test_schmidt_route_matches_the_eigh_oracle(dims):
    layout = kt.SubsystemLayout(dims)
    for name, amps in _pure_cases(dims).items():
        psi = kt.PureState(layout, amps)
        for p in range(len(dims)):
            got = kt.negativity_report(psi, p)
            want = kt.negativity_report(kt.outer(psi), p)  # the eigh route
            where = (name, p)
            assert abs(got.n_global - want.n_global) <= 1e-13, where
            assert abs(got.e0 - want.e0) <= 1e-13, where
            for field in ("e_partial", "pair_split", "n_kway"):
                g, w = getattr(got, field), getattr(want, field)
                assert set(g) == set(w), where
                for k in w:
                    assert abs(g[k] - w[k]) <= 1e-13, (where, field, k)
            assert len(got.negative_eigenpairs) == len(want.negative_eigenpairs), where
            lam_got = [lam for lam, _ in got.negative_eigenpairs]
            lam_want = [lam for lam, _ in want.negative_eigenpairs]
            assert np.abs(np.subtract(lam_got, lam_want)).max(initial=0.0) <= 1e-13, where

            def projector(rep):
                P = np.zeros((layout.total_dim,) * 2, dtype=complex)
                for _, vec in rep.negative_eigenpairs:
                    P += np.outer(vec, vec.conj())
                return P

            assert np.abs(projector(got) - projector(want)).max() <= 1e-12, where
        if name == "above_eps_eig":
            assert len(got.negative_eigenpairs) == 1
        if name in ("product", "below_eps_eig"):
            assert got.negative_eigenpairs == []


@pytest.mark.parametrize("n", [4, 9])
def test_qubit_route_edge_cases_match_the_eigh_oracle(n):
    # the cases of _pure_cases: s_1 = 0 exactly (zero; zero_bell but at its
    # last two foci), G = 1/2 (ghz) and s_0 s_1 on either side of EPS_EIG.
    # Three qubits run them in test_schmidt_route_matches_the_eigh_oracle;
    # at 9 qubits the first and last focus, without the K-way eigensolves
    dims = (2,) * n
    counts = {"zero": 0, "product": 0, "below_eps_eig": 0, "ghz": 1, "above_eps_eig": 1}
    for name, amps in _pure_cases(dims).items():
        for p in range(n) if n < 9 else (0, n - 1):
            got = _report_arrays(amps[None], dims, p)
            want = _report_arrays(_outer(amps[None]), dims, p)  # the eigh route
            where = (name, p)
            for field in ("n_global", "e0", "sum_residual"):
                g, w = getattr(got, field), getattr(want, field)
                assert np.isfinite(g).all() and abs(g[0] - w[0]) <= 1e-13, (where, field)
            for field in ("e_partial", "pair_split"):
                g, w = getattr(got, field), getattr(want, field)
                assert set(g) == set(w), where
                for k in w:
                    assert np.isfinite(g[k]).all() and abs(g[k][0] - w[k][0]) <= 1e-13, (where, k)
            assert np.isfinite(got.eigenvalues).all() and np.isfinite(got.negative_vectors).all()
            neg_got = got.eigenvalues[0][got.eigenvalues[0] < -EPS_EIG]
            neg_want = want.eigenvalues[0][want.eigenvalues[0] < -EPS_EIG]
            assert len(neg_got) == len(neg_want), where
            assert len(neg_got) == counts.get(name, int(name != "zero_bell" or p >= n - 2)), where
            assert np.abs(neg_got - neg_want).max(initial=0.0) <= 1e-13, where
            Vg, Vw = got.negative_vectors[0], want.negative_vectors[0]
            P = Vg @ Vg.conj().T - Vw @ Vw.conj().T
            assert np.abs(P).max(initial=0.0) <= 1e-12, where
    # local unitaries make the rows of the near-product amplitude matrices
    # overlap, where |a|^2 |b|^2 - |<a, b>|^2 would cancel to an N_G error of
    # about 1e-8; N_G = 2 prod is invariant
    rng = np.random.default_rng(n)
    for prod in (2 * EPS_EIG, EPS_EIG / 2):
        psi = kt.PureState(kt.SubsystemLayout(dims), _two_term(dims, prod))
        for m in range(n):
            u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            psi = kt.apply_local_unitary(psi, kt.LocalUnitary(m, u))
        for p in range(n) if n < 9 else (0, n - 1):
            n_global = _report_arrays(psi.amplitudes[None], dims, p).n_global[0]
            assert abs(n_global - 2 * prod) <= 1e-14, (prod, p)


def _edge_stack(dims):
    """A Haar state, a product state (s_1 = 0), GHZ and two-term states
    with s_0 s_1 at 2 EPS_EIG and EPS_EIG / 2 as one stack, so that the
    stack keeps a negative column that the EPS_EIG mask zeroes in three of
    its rows."""
    rng = np.random.default_rng(len(dims) * sum(dims))
    layout = kt.SubsystemLayout(dims)
    return np.stack([
        kt.haar_random_pure(layout, rng).amplitudes,
        _product(dims, rng),
        _ghz(dims),
        _two_term(dims, 2 * EPS_EIG),
        _two_term(dims, EPS_EIG / 2),
    ])


@pytest.mark.parametrize("dims", CHANNEL_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_pure_focus_blocks_match_the_projector_oracle(dims):
    # the Schmidt route builds P_minus in focus blocks and lays it out flat
    # only for negative_vectors; projector_report builds the D x D P_minus
    # of the density route
    amps = _edge_stack(dims)
    ghz = 2
    for p in range(len(dims)):
        got = _report_arrays(amps, dims, p)
        want = projector_report(_outer(amps), dims, p)
        for name in ("n_global", "e0", "sum_residual"):
            assert np.abs(getattr(got, name) - want[name]).max() <= TOL, (p, name)
        for name in ("e_partial", "pair_split"):
            g, w = getattr(got, name), want[name]
            assert set(g) == set(w), (p, name)
            for k in w:
                assert np.abs(g[k] - w[k]).max() <= TOL, (p, name, k)
        for K, flags in want["violates"].items():
            assert np.array_equal(got.violates[K], flags), (p, K)
        # GHZ has only n-way coherence: its exact zeros stay exactly 0
        zeros = [got.e0] + [got.e_partial[K] for K in range(2, len(dims))] + list(got.pair_split.values())
        assert all(z[ghz] == 0.0 for z in zeros), p
        assert got.e_partial[len(dims)][ghz] != 0.0, p
        for b in range(len(amps)):
            w_got, w_want = got.eigenvalues[b], want["eigenvalues"][b]
            neg = w_got[w_got < -EPS_EIG]
            assert len(neg) == (w_want < -EPS_EIG).sum(), (p, b)
            assert np.abs(neg - w_want[: len(neg)]).max(initial=0.0) <= TOL, (p, b)
            Vg, Vw = got.negative_vectors[b], want["negative_vectors"][b]
            Vw = Vw[:, w_want[: Vw.shape[1]] < -EPS_EIG]  # the oracle's columns are not masked
            assert Vg.shape[0] == Vw.shape[0] == math.prod(dims)
            P = Vg @ Vg.conj().T - Vw @ Vw.conj().T
            assert np.abs(P).max(initial=0.0) <= 1e-12, (p, b)
        # the product and the EPS_EIG / 2 rows have no negative eigenvalue;
        # their masked columns are exactly zero
        assert not got.negative_vectors[[1, 4]].any(), p


def _member_rows(n, b, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((b, 2**n)) + 1j * rng.standard_normal((b, 2**n))
    return z / np.linalg.norm(z, axis=1)[:, None]


@pytest.mark.parametrize("n", [3, 4])
def test_kway_channel_rows_equal_batches_of_one(n):
    # the prefetching roof search evaluates 32-row member stacks, the
    # sequential oracle one member at a time: the lockstep search returns
    # the oracle's bits only if each row's value does not depend on the
    # stack around it
    dims = (2,) * n
    amps = _member_rows(n, 32, n)
    amps[5] = _two_term(dims, EPS_EIG / 2)  # a masked column in the stack
    for p in range(n):
        for K in range(2, n + 1):
            stack = _kway_channel(amps, dims, K, p)
            ones = np.concatenate([_kway_channel(amps[b : b + 1], dims, K, p) for b in range(32)])
            assert stack.tobytes() == ones.tobytes(), (p, K)


def test_kway_channel_call_budget():
    # a roof member stack is small, so its cost is the number of calls: a
    # three-qubit 32-row k2 member makes fewer Python-level and C calls
    # than the flat eigenvector round trip did (61 and 51)
    import sys

    amps = _member_rows(3, 32, 7)
    _kway_channel(amps, L3.dims, 2, 1)  # fills the cached plans
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        _kway_channel(amps, L3.dims, 2, 1)
    finally:
        sys.setprofile(None)
    assert counts["call"] <= 58 and counts["c_call"] <= 44, counts


def _linalg_calls(monkeypatch):
    """The names of the np.linalg factorizations called from now on."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):

        def record(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_three_qubit_pure_stacks_call_no_factorization(monkeypatch):
    rng = np.random.default_rng(18)
    three = np.stack([kt.haar_random_pure(L3, rng).amplitudes for _ in range(50)])
    four = np.stack([kt.haar_random_pure(kt.qubit_layout(4), rng).amplitudes for _ in range(5)])
    qutrit = kt.haar_random_pure(kt.SubsystemLayout((3, 2, 2)), rng).amplitudes[None]
    n_four = _report_arrays(four, (2,) * 4, 0).n_global
    calls = _linalg_calls(monkeypatch)
    for p in range(3):
        _tangles(_report_arrays(three, L3.dims, p).n_global, three, L3.dims, p)
    assert calls == []
    # the counter sees the routes that keep a factorization
    _tangles(n_four, four, (2,) * 4, 0)
    assert calls == ["svd"]  # the three pairs as one stack
    calls.clear()
    _report_arrays(qutrit, (3, 2, 2), 0)
    assert calls == ["svd"]


@pytest.mark.parametrize("n", [3, 4])
def test_only_qudit_and_density_reports_build_the_n_kway_transposes(monkeypatch, n):
    # a pure report with a qubit focus and qubits at the rest takes n_kway
    # from one stacked eigh of the odd-K blocks and one stacked SVD of the
    # even-K blocks (_pure_kway_norms); a qudit focus and density input
    # transpose and eigvalsh each of the n - 1 K-way ones
    from ktangle import transpose

    dims, qudit = (2,) * n, (3,) + (2,) * (n - 1)
    rng = np.random.default_rng(n)
    amps = np.stack([kt.haar_random_pure(kt.qubit_layout(n), rng).amplitudes for _ in range(20)])
    amps3 = np.stack([kt.haar_random_pure(kt.SubsystemLayout(qudit), rng).amplitudes for _ in range(3)])
    rho = _outer(amps[:3])
    calls = []

    def counted(*args, _swap=transpose._swap):
        calls.append("swap")
        return _swap(*args)

    monkeypatch.setattr(transpose, "_swap", counted)
    linalg = _linalg_calls(monkeypatch)
    for p in range(n):
        calls.clear()
        linalg.clear()
        _report_arrays(amps, dims, p)
        _n_kway(amps, dims, [p])
        assert calls == [] and linalg == ["eigh", "svd"], p
        _report_arrays(amps, dims, p)
        assert calls == [] and linalg == ["eigh", "svd"], p
    calls.clear()
    linalg.clear()
    _report_arrays(amps3, qudit, 0)
    _n_kway(amps3, qudit, [0])
    # the qutrit focus runs one SVD for its Schmidt step
    assert len(calls) == n - 1 and linalg == ["svd"] + ["eigvalsh"] * (n - 1)
    for p in (0, n - 1):
        calls.clear()
        linalg.clear()
        _report_arrays(rho, dims, p)
        _n_kway(rho, dims, [p])
        # the global transpose and its eigh come first
        assert len(calls) == n and linalg == ["eigh"] + ["eigvalsh"] * (n - 1), p


def test_audit_runs_the_schmidt_step_once_per_stack(monkeypatch):
    from ktangle.config import STACK_CHUNK

    calls = []

    def counted(S, _closed=negativity._qubit_schmidt):
        calls.append(S.shape[0])
        return _closed(S)

    monkeypatch.setattr(negativity, "_qubit_schmidt", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["audit", "--random", str(STACK_CHUNK + 10), "--seed", "3"]) == 0
    assert calls == [STACK_CHUNK, 10]


def test_a_nine_qubit_pure_report_holds_at_most_two_dense_matrices():
    import tracemalloc

    dims = (2,) * 9
    amps = kt.haar_random_pure(kt.qubit_layout(9), 9).amplitudes[None]
    _report_arrays(amps, dims, 0)  # builds the cached tables
    tracemalloc.start()
    try:
        _report_arrays(amps, dims, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 512 * 512 * 16, peak


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _pure_kway_case(kind, n):
    """(dims, amplitude stack) of one case of the K-way oracle test: n
    qubits, or dims (2, 3, 2) for the kind qudit_rest."""
    rng = np.random.default_rng(sum(map(ord, kind)) + n)
    layout = kt.qubit_layout(n) if kind != "qudit_rest" else kt.SubsystemLayout((2, 3, 2))
    D = layout.total_dim
    if kind in ("haar", "qudit_rest"):
        rows = [kt.haar_random_pure(layout, rng).amplitudes for _ in range(1 if n == 9 else 3)]
    elif kind == "ghz_w_uniform":
        rows = [_ghz(layout.dims), _w(layout.dims), _unit(np.ones(D, complex))]
    elif kind == "real_sparse":
        sparse = np.zeros(D, complex)
        sparse[rng.choice(D, 3, replace=False)] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rows = [_unit(rng.standard_normal(D)).astype(complex), _unit(sparse)]
    elif kind == "near_product":
        rows = [
            _unit(_product(layout.dims, rng) + eps * kt.haar_random_pure(layout, rng).amplitudes)
            for eps in (1e-3, 1e-6, 1e-9, 1e-12)
        ]
    else:  # the GHZ+W family on one branch, q* of the minus branch included
        near = kt.tau3_minus_zero() + np.array([-1e-6, -1e-13, 0.0, 1e-13, 1e-6])
        qs = np.concatenate([np.linspace(0.0, 1.0, 11), near])
        rows = list(_ghzw_amplitudes(qs, 1 if kind == "ghzw_plus" else -1))
    return layout.dims, np.stack(rows)


PURE_KWAY_CASES = (
    [("haar", n) for n in range(3, 10)]
    + [("ghz_w_uniform", n) for n in (3, 5, 8)]
    + [("real_sparse", n) for n in (4, 6)]
    + [("near_product", n) for n in (3, 5, 7)]
    + [("ghzw_plus", 3), ("ghzw_minus", 3), ("qudit_rest", 3)]
)


@pytest.mark.parametrize("kind, n", PURE_KWAY_CASES, ids=[f"{k}{n}" for k, n in PURE_KWAY_CASES])
def test_pure_n_kway_matches_the_projector_oracle(kind, n):
    # the half-size route against SVD trace norms of the D x D transposes
    dims, amps = _pure_kway_case(kind, n)
    for p in (0, len(dims) - 1):
        assert dims[p] == 2
        n_kway = _n_kway(amps, dims, [p])[0]
        want = projector_report(_outer(amps), dims, p)["n_kway"]
        assert sorted(n_kway) == sorted(want) == list(range(2, len(dims) + 1))
        for K in want:
            err = np.abs(n_kway[K] - want[K])
            assert err.max() <= TOL, (p, K, err)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_pure_n_kway_of_a_stack_matches_its_batches_of_one(n):
    layout = kt.qubit_layout(n)
    rng = np.random.default_rng(40 + n)
    amps = np.stack([kt.haar_random_pure(layout, rng).amplitudes for _ in range(7)])
    for p in (0, n - 1):
        alone = [kt.negativity_report(kt.PureState(layout, v), p).n_kway for v in amps]
        for size in (1, 2, 7):
            n_kway = _n_kway(amps[:size], layout.dims, [p])[0]
            for b in range(size):
                # the same eigh and matmuls per state: bit for bit
                assert {K: v[b] for K, v in n_kway.items()} == alone[b], (p, size, b)


def test_a_nine_qubit_pure_negativity_report_holds_at_most_two_dense_matrices():
    import tracemalloc

    psi = kt.haar_random_pure(kt.qubit_layout(9), 9)
    kt.negativity_report(psi, 0)  # builds the cached tables
    tracemalloc.start()
    try:
        rep = kt.negativity_report(psi, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.n_kway) == 8
    assert peak <= 2 * 512 * 512 * 16, peak


@pytest.mark.parametrize(
    "y_scale, q_scale, message", [(1.0, 3.0, "from 2 sum"), (0.01, 0.1, "is below 1")]
)
def test_pure_n_kway_raises_past_its_bounds(monkeypatch, y_scale, q_scale, message):
    # any orthonormal Q and real y meet both bounds; eigenvectors scaled up
    # carry a rank-one term of norm 9 past the triangle inequality, and a
    # spectrum and eigenvectors scaled down a norm below Tr = 1.  The odd K
    # take their eigenpairs from eigh and the even K from the SVD, so each
    # half is scaled on its own and must raise
    psi = kt.haar_random_pure(kt.qubit_layout(5), 3)
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def scaled_eigh(a, *args, **kwargs):
        y, Q = eigh(a, *args, **kwargs)
        return y * y_scale, Q * q_scale

    def scaled_svd(a, *args, **kwargs):
        U, s, Vh = svd(a, *args, **kwargs)
        return U * q_scale, s * y_scale, Vh * q_scale

    kt.negativity_report(psi, 0)
    for name, scaled in (("eigh", scaled_eigh), ("svd", scaled_svd)):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, name, scaled)
            with pytest.raises(kt.NumericalError, match=f"K-way trace norm .*{message}"):
                kt.negativity_report(psi, 0)


@pytest.mark.parametrize("n", range(2, 10))
def test_kway_plan_blocks_cover_the_masks(n):
    # the premise of the parity blocks: with qubits at the rest, H_K has no
    # entry between the classes for odd K and none inside them for even K,
    # so the blocks of the plan are all of H_K
    from ktangle.transpose import _label_tables

    dims = (2,) * n
    dg, diff = _label_tables(dims[1:])
    parity = dg.sum(axis=1) % 2
    for p in range(n):
        rows, cols, (diag, Hd), (off, Ho) = negativity._kway_plan(dims, p)
        E, O = rows
        assert not parity[E].any() and parity[O].all(), p
        assert (np.diff(E) > 0).all() and (np.diff(O) > 0).all(), p
        assert np.array_equal(cols[0], rows) and np.array_equal(cols[1], rows[::-1]), p
        Ks = list(range(2, n + 1))
        assert Ks[diag] == Ks[1::2] and Ks[off] == Ks[0::2], p
        assert Hd.shape == (len(Ks[1::2]), 2, 2 ** (n - 2), 2 ** (n - 2)), p
        assert Ho.shape == (len(Ks[0::2]), 1, 2 ** (n - 2), 2 ** (n - 2)), p
        for K in Ks:
            H = diff == K - 1  # the rest labels of every focus are n - 1 qubits
            if K % 2:
                assert not H[np.ix_(E, O)].any() and not H[np.ix_(O, E)].any(), (p, K)
                j = Ks[diag].index(K)
                assert np.array_equal(Hd[j, 0], H[np.ix_(E, E)]), (p, K)
                assert np.array_equal(Hd[j, 1], H[np.ix_(O, O)]), (p, K)
            else:
                assert not H[np.ix_(E, E)].any() and not H[np.ix_(O, O)].any(), (p, K)
                assert np.array_equal(Ho[Ks[off].index(K), 0], H[np.ix_(E, O)]), (p, K)


def test_kway_plan_of_a_qudit_rest_is_one_class():
    from ktangle.transpose import _label_tables

    dims = (2, 3, 2)
    for p in (0, 2):
        rows, cols, (diag, Hd), (off, Ho) = negativity._kway_plan(dims, p)
        diff = _label_tables(dims[:p] + dims[p + 1 :])[1]
        assert np.array_equal(rows, np.arange(6)[None]) and Ho.shape[0] == 0
        assert list(range(2, 4))[diag] == [2, 3]
        for j, K in enumerate((2, 3)):
            assert np.array_equal(Hd[j, 0], diff == K - 1), (p, K)


@pytest.mark.parametrize("n", range(3, 8))
def test_pure_n_kway_is_exactly_zero_where_y_k_vanishes(n):
    # Y_K = 0 leaves rho_K^{T_p} = rho: |0...0> at every K, GHZ below
    # K = n (its only coherence is n-way) and W_3 at K = 3
    dims = (2,) * n
    zero = np.zeros(2**n, complex)
    zero[0] = 1.0
    cases = [(zero, range(2, n + 1)), (_ghz(dims), range(2, n))]
    if n == 3:
        cases.append((_w(dims), [3]))
    for v, zeros in cases:
        for p in range(n):
            n_kway = _n_kway(v[None], dims, [p])[0]
            for K in zeros:
                assert n_kway[K][0] == 0.0, (p, K)
    # GHZ keeps its n-way negativity
    n_kway = _n_kway(_ghz(dims)[None], dims, [0])[0]
    assert abs(n_kway[n][0] - 1.0) <= TOL


def test_pure_kway_norms_call_budget():
    # a three-qubit report is small, so its cost is the number of calls:
    # one stacked eigh (K = 3), one SVD (K = 2) and the quadrature; the
    # numpy wrappers of the two factorizations make 23 of the Python-level
    # calls
    import sys

    S = kt.haar_random_pure(L3, 7).amplitudes[None, negativity._gather_index(L3.dims, (1,))]
    negativity._pure_kway_norms(S, L3.dims, 1)  # fills the cached plan
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        negativity._pure_kway_norms(S, L3.dims, 1)
    finally:
        sys.setprofile(None)
    assert counts["call"] <= 31 and counts["c_call"] <= 51, counts


def test_schmidt_route_raises_on_a_bad_reconstruction(monkeypatch):
    # a qutrit focus runs the SVD
    svd = np.linalg.svd

    def off(a, *args, **kwargs):
        U, s, Wh = svd(a, *args, **kwargs)
        return U, s * (1 + 1e-6), Wh

    monkeypatch.setattr(np.linalg, "svd", off)
    with pytest.raises(kt.NumericalError, match="Schmidt reconstruction residual"):
        kt.negativity_report(kt.haar_random_pure(kt.SubsystemLayout((3, 2, 2)), 1), 0)


def test_qubit_schmidt_route_raises_on_a_bad_reconstruction(monkeypatch):
    closed = negativity._qubit_schmidt

    def off(S):
        U, s, Wh = closed(S)
        return U, s * (1 + 1e-6), Wh

    monkeypatch.setattr(negativity, "_qubit_schmidt", off)
    with pytest.raises(kt.NumericalError, match="Schmidt reconstruction residual"):
        kt.negativity_report(kt.haar_random_pure(L3, 1), 0)


def test_both_routes_reject_a_focus_out_of_range():
    # a negative focus must not index from the end; the 7-qubit outer
    # product takes the factor route
    psi, psi7 = kt.haar_random_pure(L3, 1), kt.haar_random_pure(kt.qubit_layout(7), 1)
    assert _density_factor(kt.outer(psi7)) is not None
    for state in (psi, kt.outer(psi), kt.outer(psi7)):
        n = state.layout.n_subsystems
        for p in (-1, n):
            with pytest.raises(ValueError, match=f"focus {p} out of range"):
                kt.negativity_report(state, p)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_eigh_per_report(monkeypatch, n):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    _, states = _states(n)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for rho in states:
        calls.clear()
        rep = kt.negativity_report(rho, n - 1)
        assert len(calls) == 1
        assert math.isfinite(rep.n_global) and len(rep.n_kway) == n - 1
