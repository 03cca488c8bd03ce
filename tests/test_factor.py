"""The factor route of low-rank density input against the eigh oracle.

A density matrix rho = W W^dagger of low rank with a qubit focus takes its
global eigenpairs from one QR and one 4r x 4r eigh, and its K-way trace
norms from the r x r determinant of _pure_kway_norms; the projector oracle
of conftest (SVD trace norms, P_minus as a D x D matrix) checks both.
Density validation keeps its spectrum, from which the first report that
takes the route builds the factor W, and that report runs no D x D
eigensolve but the validation's eigvalsh.  The K-way
negativities of all foci come from one call per plan, and both routes give
exactly 0 where rho_K^{T_p} equals rho.
"""

import math

import numpy as np
import pytest

import ktangle as kt
from ktangle import cli, negativity
from ktangle.config import EPS_EIG
from ktangle.core import _density_factor, _outer
from ktangle.negativity import _n_kway, _report_arrays

from conftest import amplitudes_json, projector_report

TOL = 1e-13


def _unit(v):
    return v / np.linalg.norm(v)


def _ghz(n):
    v = np.zeros(2**n, complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def _w(n):
    v = np.zeros(2**n, complex)
    v[[2**m for m in range(n)]] = 1 / math.sqrt(n)
    return v


def _random_factor(n, r, seed):
    """The factor rows (r, D) of a random rank-r density matrix."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((r, 2**n)) + 1j * rng.standard_normal((r, 2**n))
    return Z / np.linalg.norm(Z)


def _density(W):
    """sum_j |w_j><w_j| of the factor rows W (r, D)."""
    return W.T @ W.conj()


def _factor_error(W, n, p):
    """The largest difference between the factor route's report of
    rho = W W^dagger at focus p and the projector oracle's: every field, and
    P_minus for the negative eigenpairs."""
    rho = _density(W)[None]
    dims = (2,) * n
    a = _report_arrays(rho, dims, p, factor=W[None])
    n_kway = _n_kway(rho, dims, [p], W[None])[0]
    ref = projector_report(rho, dims, p)
    errs = [a.n_global - ref["n_global"], a.e0 - ref["e0"], a.sum_residual - ref["sum_residual"]]
    assert sorted(n_kway) == sorted(ref["n_kway"]) == list(range(2, n + 1))
    for K in ref["n_kway"]:
        errs += [n_kway[K] - ref["n_kway"][K], a.e_partial[K] - ref["e_partial"][K]]
    errs += [a.pair_split[q] - ref["pair_split"][q] for q in ref["pair_split"]]
    w, V = ref["eigenvalues"], ref["negative_vectors"]
    Vm = V * (w[..., : V.shape[-1]] < -EPS_EIG)[..., None, :]

    def projector(X):
        return X @ X.conj().swapaxes(-1, -2)

    errs.append(projector(a.negative_vectors) - projector(Vm))
    return max(float(np.abs(e).max()) for e in errs)


_RANK_CASES = [(n, r) for n in range(3, 9) for r in range(1, 5)]


@pytest.mark.parametrize("n, r", _RANK_CASES, ids=[f"{n}q_rank{r}" for n, r in _RANK_CASES])
def test_factor_route_matches_the_oracle_on_low_rank_states(n, r):
    W = _random_factor(n, r, 10 * n + r)
    for p in (0, n - 1) if n <= 6 else (0,):
        assert _factor_error(W, n, p) <= TOL, p


@pytest.mark.parametrize("n", [3, 4, 6])
def test_factor_route_matches_the_oracle_on_ensembles(n):
    # members need not be independent: five rows span three directions
    rng = np.random.default_rng(n)
    psi = [_unit(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)) for _ in range(3)]
    members = psi + [_unit(psi[0] + 0.5j * psi[1]), psi[2]]
    probs = rng.dirichlet(np.ones(len(members)))
    W = np.stack([math.sqrt(q) * v for q, v in zip(probs, members)])
    for p in (0, n - 1):
        assert _factor_error(W, n, p) <= TOL, p


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factor_route_matches_the_oracle_on_ghz_w_mixtures(n):
    # rho(q) = q |GHZ><GHZ| + (1 - q) |W><W|, sparse and with degenerate
    # negative eigenvalues
    for q in (0.0, 0.3, 0.5, 0.8, 1.0):
        rows = [math.sqrt(q) * _ghz(n), math.sqrt(1 - q) * _w(n)]
        W = np.stack([v for v in rows if v.any()])
        for p in (0, n - 1):
            assert _factor_error(W, n, p) <= TOL, (q, p)


def test_factor_route_keeps_an_eigenvalue_of_1e_13():
    # validation keeps every eigenvalue above 128 eps lambda_max in the
    # factor
    n, rng = 7, np.random.default_rng(13)
    V = np.linalg.qr(rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3)))[0]
    lam = np.array([0.6, 0.4 - 1e-13, 1e-13])
    rho = kt.DensityOperator(kt.qubit_layout(n), (V * lam) @ V.conj().T)
    W = _density_factor(rho)
    assert W.shape == (3, 128)
    assert np.abs(_density(W) - rho.matrix).max() <= 1e-15
    assert _factor_error(W, n, 0) <= TOL


def test_a_dropped_factor_column_fails_the_oracle():
    # the comparison sees the factor: one column short, rho W W^dagger
    # is another state
    W = _random_factor(5, 3, 7)
    assert _factor_error(W, 5, 0) <= TOL
    short = W[:-1] / np.linalg.norm(W[:-1])
    rho = _density(W)[None]
    a = _report_arrays(rho, (2,) * 5, 0, factor=short[None])
    n_kway = _n_kway(rho, (2,) * 5, [0], short[None])[0]
    ref = projector_report(rho, (2,) * 5, 0)
    assert abs(a.n_global - ref["n_global"]).max() > 1e-3
    assert max(abs(n_kway[K] - ref["n_kway"][K]).max() for K in n_kway) > 1e-3


def test_density_factor_is_built_at_first_use_only_where_it_pays():
    L7 = kt.qubit_layout(7)
    for r in (1, 4):
        W = _random_factor(7, r, r)
        rho = kt.DensityOperator(L7, _density(W))
        # validation keeps the spectrum, not a factor
        assert getattr(rho, "_factor", None) is None and rho._spectrum.shape == (128,)
        F = _density_factor(rho)
        assert rho._factor is F
        assert F.shape == (r, 128) and np.abs(_density(F) - rho.matrix).max() <= 1e-15, r
    # too many columns for D = 128, too small a matrix, no qubit
    assert _density_factor(kt.DensityOperator(L7, _density(_random_factor(7, 5, 5)))) is None
    assert _density_factor(kt.DensityOperator(kt.qubit_layout(6), _density(_random_factor(6, 2, 6)))) is None
    qutrits = kt.SubsystemLayout((3,) * 5)
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((2, 243)) + 1j * rng.standard_normal((2, 243))
    assert _density_factor(kt.DensityOperator(qutrits, _density(Z / np.linalg.norm(Z)))) is None
    # an eigenvalue below minus the roundoff cutoff, though within EPS_NORM
    V = np.linalg.qr(rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3)))[0]
    rho = kt.DensityOperator(L7, (V * [0.6, 0.4 + 1e-12, -1e-12]) @ V.conj().T)
    assert _density_factor(rho) is None
    # a factor is built from the matrix as it is at first use; a matrix
    # reassigned or overwritten after that drops the factor kept for the old
    # one
    new = _density(_random_factor(7, 2, 3))
    rho = kt.DensityOperator(L7, _density(_random_factor(7, 2, 2)))
    rho.matrix = new
    assert np.abs(_density(_density_factor(rho)) - new).max() <= 1e-15
    rho = kt.DensityOperator(L7, _density(_random_factor(7, 2, 2)))
    assert _density_factor(rho) is not None
    rho.matrix = new
    assert _density_factor(rho) is None
    rho = kt.DensityOperator(L7, _density(_random_factor(7, 2, 2)))
    assert _density_factor(rho) is not None
    rho.matrix[...] = new
    assert _density_factor(rho) is None
    # outer and Ensemble.density keep their vectors
    psi = kt.haar_random_pure(L7, 4)
    assert np.array_equal(_density_factor(kt.outer(psi)), psi.amplitudes[None])
    assert _density_factor(kt.outer(kt.haar_random_pure(kt.qubit_layout(3), 4))) is None
    members = tuple((q, kt.haar_random_pure(L7, s)) for s, q in enumerate((0.5, 0.3, 0.2)))
    F = _density_factor(kt.Ensemble(members).density())
    assert np.array_equal(F, np.stack([math.sqrt(q) * s.amplitudes for q, s in members]))


def _matrix_file(write_state, name, rho):
    rows = [amplitudes_json(row) for row in rho]
    return write_state(name, {"dims": [2] * int(math.log2(len(rho))), "matrix": rows})


def _eigensolves(monkeypatch):
    """(name, shape) of every np.linalg.eigh and eigvalsh call from now on."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def record(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_a_low_rank_density_report_makes_one_d_by_d_eigensolve(monkeypatch, write_state, capsys):
    # parse and report: a rank-4 8-qubit file solves only its validation's
    # D x D eigvalsh; a full-rank one keeps the validation, the global eigh
    # and the seven K-way eigvalsh
    low = _matrix_file(write_state, "low8.json", _density(_random_factor(8, 4, 8)))
    rng = np.random.default_rng(9)
    Z = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    full = _matrix_file(write_state, "full8.json", _density(Z / np.linalg.norm(Z)))
    calls = _eigensolves(monkeypatch)
    assert cli.main(["analyze", low, "--focus", "A"]) in (0, 3)
    assert capsys.readouterr().out.startswith("{")
    big = [c for c in calls if c[1][-2:] == (256, 256)]
    assert big == [("eigvalsh", (256, 256))], calls
    assert len(calls) > len(big)  # the small solves of the factor route run
    calls.clear()
    assert cli.main(["analyze", full, "--focus", "A"]) in (0, 3)
    assert capsys.readouterr().out.startswith("{")
    shapes = sorted((name, shape[-2:]) for name, shape in calls)
    assert shapes == [("eigh", (256, 256))] + [("eigvalsh", (256, 256))] * 8, calls


@pytest.mark.parametrize("n", [3, 4, 7])
def test_density_n_kway_is_exactly_zero_where_rho_k_equals_rho(n):
    # GHZ has only n-way coherences: below K = n, rho_K^{T_p} = rho, and the
    # density report prints the pure report's exact 0.0 (at 7 qubits by the
    # factor route, where Y_K = 0)
    layout = kt.qubit_layout(n)
    pure = kt.PureState(layout, _ghz(n))
    for rho in (kt.outer(pure), kt.DensityOperator(layout, _outer(_ghz(n)))):
        assert (_density_factor(rho) is not None) == (n == 7)
        for p in range(n):
            got, want = kt.negativity_report(rho, p).n_kway, kt.negativity_report(pure, p).n_kway
            for K in range(2, n):
                assert got[K] == want[K] == 0.0, (p, K)
            assert abs(got[n] - want[n]) <= TOL


def test_dense_n_kway_takes_the_exact_zero_per_stacked_matrix():
    dims = (2, 2, 2)
    haar = kt.haar_random_pure(kt.qubit_layout(3), 5).amplitudes
    stack = _outer(np.stack([_ghz(3), haar]))
    both = _n_kway(stack, dims, [0])[0]
    alone = _n_kway(stack[1:], dims, [0])[0]
    assert both[2][0] == 0.0 and both[2][1] == alone[2][0] > 0.0


@pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (2, 3, 2)], ids=["3q", "5q", "2x3x2"])
def test_all_foci_kway_stack_equals_the_per_focus_calls(dims):
    # the foci whose rests match share one call; a stack gives each focus
    # the bytes of its own call
    rng = np.random.default_rng(len(dims))
    D = math.prod(dims)
    amps = _unit(rng.standard_normal(D) + 1j * rng.standard_normal(D))[None]
    Z = rng.standard_normal((3, D)) + 1j * rng.standard_normal((3, D))
    W = (Z / np.linalg.norm(Z))[None]
    foci = list(range(len(dims)))
    for state, factor in ((amps, None), (_density(W[0])[None], W)):
        together = _n_kway(state, dims, foci, factor)
        for p in foci:
            alone = _n_kway(state, dims, [p], factor)[0]
            assert sorted(together[p]) == sorted(alone), p
            for K in alone:
                assert np.array_equal(together[p][K], alone[K]), (p, K)


def test_an_all_foci_pure_analyze_makes_one_kway_call(monkeypatch, write_state, capsys):
    shapes = []

    def counted(S, dims, p, _norms=negativity._pure_kway_norms):
        shapes.append(S.shape)
        return _norms(S, dims, p)

    monkeypatch.setattr(negativity, "_pure_kway_norms", counted)
    psi = kt.haar_random_pure(kt.qubit_layout(5), 2)
    path = write_state("pure5.json", {"dims": [2] * 5, "amplitudes": amplitudes_json(psi.amplitudes)})
    assert cli.main(["analyze", path]) in (0, 3)
    assert capsys.readouterr().out.count('"focus"') == 5
    assert shapes == [(5, 1, 1, 2, 16)]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_an_all_foci_kway_step_stays_within_the_nine_qubit_report_bound(n):
    # the foci stacked in one call (config.KWAY_STACK_ENTRIES) hold no more
    # than a 9-qubit report of one focus may: 2 * 512^2 * 16 B
    import tracemalloc

    amps = kt.haar_random_pure(kt.qubit_layout(n), n).amplitudes[None]
    dims, foci = (2,) * n, list(range(n))
    _n_kway(amps, dims, foci)  # builds the cached tables
    tracemalloc.start()
    try:
        _n_kway(amps, dims, foci)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 512 * 512 * 16, peak
