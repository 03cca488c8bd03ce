"""The spectral negativity pipeline against the SVD and D x D projector route.

Trace norms come from Hermitian spectra and channels from the negative
eigenvectors; conftest keeps the former route (SVD trace norms, P_minus
built as a D x D matrix) as the oracle these tests compare with.
"""

import math

import numpy as np
import pytest

import ktangle as kt
from ktangle import cli
from ktangle.config import EPS_EIG
from ktangle.core import _outer
from ktangle.negativity import _kway_channel
from ktangle.roof import _member_value

from conftest import L2, L3, mixed_state, projector_kway_channel, projector_report, svd_trace_norm

TOL = 1e-13


def _states(n):
    layout = kt.qubit_layout(n)
    rng = np.random.default_rng(100 + n)
    return layout, [kt.outer(kt.haar_random_pure(layout, rng)), mixed_state(layout, rng, rank=3)]


@pytest.mark.parametrize("n", range(2, 9))
def test_report_matches_projector_oracle(n):
    layout, states = _states(n)
    for rho in states:
        for p in range(n):
            rep = kt.negativity_report(rho, p)
            ref = projector_report(rho.matrix[None], layout.dims, p)
            for name in ("n_global", "e0", "sum_residual"):
                assert abs(getattr(rep, name) - ref[name][0]) <= TOL, (n, p, name)
            for name in ("n_kway", "e_partial", "pair_split"):
                got, want = getattr(rep, name), ref[name]
                assert set(got) == set(want), (n, p, name)
                for k in want:
                    assert abs(got[k] - want[k][0]) <= TOL, (n, p, name, k)
            w, V = ref["eigenvalues"][0], ref["negative_vectors"][0]
            neg = [(lam, vec) for lam, vec in zip(w, V.T) if lam < -EPS_EIG]
            assert len(rep.negative_eigenpairs) == len(neg)
            for (lam, vec), (lam_ref, vec_ref) in zip(rep.negative_eigenpairs, neg):
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


def test_no_svd_anywhere_in_the_negativity_pipeline(monkeypatch, capsys):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for n in (2, 3, 4):
        _, states = _states(n)
        for rho in states:
            kt.negativity_report(rho, 0)
            kt.negativity_from_pt(kt.global_pt(rho, 0), 2)
    members = _roof_members(L3, seed=1)
    assert _member_value("global", 0, L3)(members).shape == (len(members),)
    assert _member_value("k2", 1, L3)(members).shape == (len(members),)
    two = _roof_members(L2, seed=2, rank=2, m=3)
    assert _member_value("global", 0, L2)(two).shape == (len(two),)
    assert cli.main(["audit", "--random", "10", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("states,")


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
