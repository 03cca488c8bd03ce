import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import settings

import ktangle as kt
from ktangle import SubsystemLayout
from ktangle.config import EPS_EIG, EPS_NORM, ROOF_MAX_MEMBERS

settings.register_profile("suite", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("suite")

L2 = kt.qubit_layout(2)
L3 = kt.qubit_layout(3)
L4 = kt.qubit_layout(4)


def real_pure(layout, rng):
    # real amplitudes keep the transpose decomposition identity exact
    v = rng.standard_normal(layout.total_dim)
    return kt.PureState(layout, v / np.linalg.norm(v))


def mixed_state(layout, rng, rank=3, real=False):
    w = rng.dirichlet(np.ones(rank))
    m = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for k in range(rank):
        psi = real_pure(layout, rng) if real else kt.haar_random_pure(layout, rng)
        m += w[k] * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return kt.DensityOperator(layout, m)


def jacobi_eigensystem(M: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Cyclic complex Jacobi diagonalization.

    Convergence: off-diagonal Frobenius norm below tol, at most max_sweeps
    full sweeps.  Each (p, q) step factors the pivot phase out so the 2x2
    subproblem is real symmetric.  The suite's eigensolver oracle,
    independent of LAPACK.
    """
    A = np.array(M, dtype=complex)
    n = A.shape[0]
    V = np.eye(n, dtype=complex)

    def _off():
        # direct sum over off-diagonal entries; subtracting diagonal mass from
        # the total cancels catastrophically once the off-diagonal is tiny
        off = np.abs(A - np.diag(np.diagonal(A)))
        return float(np.sqrt((off**2).sum()))

    converged = False
    for _ in range(max_sweeps):
        if _off() < tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                m = abs(A[p, q])
                if m < 1e-300:
                    continue
                ph = A[p, q] / m
                tau = (A[q, q].real - A[p, p].real) / (2 * m)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1 + tau * tau))
                c = 1 / math.sqrt(1 + t * t)
                s = t * c
                colp = c * A[:, p] - s * np.conj(ph) * A[:, q]
                colq = s * A[:, p] + c * np.conj(ph) * A[:, q]
                A[:, p], A[:, q] = colp, colq
                rowp = c * A[p, :] - s * ph * A[q, :]
                rowq = s * A[p, :] + c * ph * A[q, :]
                A[p, :], A[q, :] = rowp, rowq
                vp = c * V[:, p] - s * np.conj(ph) * V[:, q]
                vq = s * V[:, p] + c * np.conj(ph) * V[:, q]
                V[:, p], V[:, q] = vp, vq
    if not converged and _off() >= tol:
        raise kt.NumericalError(f"jacobi sweep limit {max_sweeps} reached")
    w = np.diagonal(A).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def random_form(rng, phases=None):
    """Valid CanonicalForm3Q with amplitudes bounded away from zero.

    phases: None draws phi uniformly on [0, 2pi); otherwise a tuple of
    allowed phi values (the real slice is phases=(0.0, math.pi)).
    """
    amps = rng.uniform(0.05, 1.0, size=5)
    amps /= np.linalg.norm(amps)
    if phases is None:
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
    else:
        phi = float(phases[rng.integers(len(phases))])
    return kt.CanonicalForm3Q(
        a=float(amps[0]), b=float(amps[1]), c=float(amps[2]), d=float(amps[3]),
        f=float(amps[4]), phi=phi,
    )


@pytest.fixture
def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / math.sqrt(2)
    return kt.PureState(L3, v)


@pytest.fixture
def w_state():
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0 / math.sqrt(3)
    return kt.PureState(L3, v)


@pytest.fixture
def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2)
    return kt.PureState(L2, v)


@pytest.fixture
def printed_qstar_state():
    # support {010, 100, 110, 111}; headline invariants NG=0.9103,
    # squared pair values 0.4143, despite lying outside the 5-slot gauge
    v = np.zeros(8, dtype=complex)
    v[2] = -0.56731
    v[4] = -0.56731
    v[6] = 0.18578
    v[7] = 0.56731
    v /= np.linalg.norm(v)
    return kt.PureState(L3, v)


@pytest.fixture
def write_state(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def amplitudes_json(vec):
    return [{"re": float(z.real), "im": float(z.imag)} for z in np.asarray(vec, complex)]


def haar_amplitudes(dims, rng) -> np.ndarray:
    return kt.haar_random_pure(SubsystemLayout(tuple(dims)), rng).amplitudes


# Layouts of JSON text a state file may take: the keyword arguments of
# document_text.
TEXT_STYLES = {
    "default": {},
    "compact": {"separators": (",", ":")},
    "indent-2": {"indent": 2},
    "tabs-crlf": {"indent": "\t", "newline": "\r\n"},
    "escaped-keys": {"escape_keys": True},
}


def document_text(pairs, indent=None, separators=None, newline="\n", escape_keys=False) -> str:
    """The JSON text of an object of the (key, value) pairs in their order,
    a repeated key written each time, each key's characters written as
    \\u escapes if escape_keys."""
    colon = (separators or (", ", ": "))[1]
    members = []
    for key, value in pairs:
        name = "".join("\\u%04x" % ord(c) for c in key) if escape_keys else key
        members.append(f'"{name}"{colon}' + json.dumps(value, indent=indent, separators=separators))
    if indent is None:
        text = "{" + (separators or (", ", ": "))[0].join(members) + "}"
    else:
        text = "{\n" + ",\n".join(members) + "\n}\n"
    return text.replace("\n", newline)


def eigen_members(rho):
    """The eigen-decomposition of rho as (probability, PureState) members,
    eigenvalues at or below 1e-12 dropped: an upper bound of every roof."""
    lam, vec = np.linalg.eigh(rho.matrix)
    return [
        (float(q), kt.PureState(rho.layout, vec[:, k] / np.linalg.norm(vec[:, k])))
        for k, q in enumerate(lam) if q > 1e-12
    ]


def rotation_draw(g, m, theta):
    """One rotation step of the roof search, from four doubles u = g.random(4):
    the members j = floor(m u_0) and k = floor((m - 1) u_1), plus one if
    k >= j, the angle t = theta (2 u_2 - 1) and the phase ph = 2 pi u_3."""
    u = g.random(4)
    j, k = int(m * u[0]), int((m - 1) * u[1])
    k += k >= j
    return j, k, float(theta * (2.0 * u[2] - 1.0)), float(2.0 * math.pi * u[3])


def sequential_roof(rho, p, measure="global", budget=kt.RoofBudget()):
    """The roof search one restart and one member at a time.

    Each member is evaluated through a validated PureState and the public
    pure route of negativity_report.  The suite's oracle for the prefetching
    search in roof_negativity, which must return the same bits.
    """
    from ktangle.roof import RoofResult, _ensemble, _support

    layout = rho.layout

    def value_of(vec):
        rep = kt.negativity_report(kt.PureState(layout, vec), p)
        return rep.n_global if measure == "global" else rep.e_partial[int(measure[1:])]

    lam, vec = _support(rho)
    r = lam.size
    m = max(r, min(2 * r, ROOF_MAX_MEMBERS))
    base = (vec * np.sqrt(lam)).T  # row k = sqrt(lam_k) e_k
    iters = budget.iterations
    mark = max(1, int(0.8 * iters))
    ss = np.random.SeedSequence(budget.seed)
    best = None  # (value, phis, probs, converged)
    for ridx, child in enumerate(ss.spawn(budget.restarts)):
        g = np.random.default_rng(child)
        if ridx == 0:
            W = np.zeros((m, r), dtype=complex)
            W[:r, :r] = np.eye(r)
        else:
            Z = g.standard_normal((m, r)) + 1j * g.standard_normal((m, r))
            W, _ = np.linalg.qr(Z)
        phis = W @ base
        probs = np.einsum("jd,jd->j", phis, phis.conj()).real
        vals = np.array(
            [
                value_of(phis[j] / math.sqrt(probs[j])) if probs[j] > 1e-14 else 0.0
                for j in range(m)
            ]
        )
        cur = float(probs @ vals)
        at_mark = cur
        theta = 0.5
        for it in range(iters):
            j, k, t, ph = rotation_draw(g, m, theta)
            c, s = math.cos(t), math.sin(t)
            ei = cmath.exp(1j * ph)
            nj = c * phis[j] + s * ei * phis[k]
            nk = -s * np.conj(ei) * phis[j] + c * phis[k]
            pj = float(np.vdot(nj, nj).real)
            pk = float(np.vdot(nk, nk).real)
            vj = value_of(nj / math.sqrt(pj)) if pj > 1e-14 else 0.0
            vk = value_of(nk / math.sqrt(pk)) if pk > 1e-14 else 0.0
            new = cur - probs[j] * vals[j] - probs[k] * vals[k] + pj * vj + pk * vk
            if new < cur - 1e-15:
                cur = new
                phis[j], phis[k] = nj, nk
                probs[j], probs[k] = pj, pk
                vals[j], vals[k] = vj, vk
            theta *= 0.995
            if it == mark - 1:
                at_mark = cur
        converged = (at_mark - cur) < 1e-8
        if best is None or cur < best[0]:
            best = (cur, phis.copy(), probs.copy(), converged)

    return RoofResult(
        value=float(best[0]),
        certificate=_ensemble(layout, best[1], best[2]),
        restarts_used=budget.restarts,
        converged=best[3],
    )


def sequential_sweep(sign, q_start, q_end, steps):
    """The GHZ+W sweep one grid point at a time.

    Each point builds its state from math.sqrt amplitudes as a validated
    PureState and takes N_G and E_3 from negativity_report and tau3 from
    three_tangle, each a batch of one.  The suite's oracle for the stacked
    sweep_family, which must return the same bits.
    """
    rows = []
    for q in np.linspace(q_start, q_end, steps):
        params = kt.GhzwParams(q=float(q), sign=sign)
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = math.sqrt(params.q / 2.0)
        v[4] = v[2] = v[1] = sign * math.sqrt((1.0 - params.q) / 3.0)
        psi = kt.PureState(L3, v)
        rep = kt.negativity_report(psi, 0)
        n_global = rep.n_global
        delta = rep.e_partial[3] * n_global - kt.three_tangle(psi, 0).tau3
        neg_closed, _ = kt.canonical_closed_forms(kt.ghzw_canonical_params(params).forms[0])
        e3 = neg_closed.e_partial[3]
        rows.append(
            kt.SweepRow(
                q=float(q),
                n_global=n_global,
                e2=neg_closed.e_partial[2],
                e3=e3,
                tau3_formula=kt.tau3_closed_form(params),
                e3_times_ng=e3 * n_global,
                delta=delta,
            )
        )
    return rows


def svd_trace_norm(M):
    """Sum of singular values of a matrix (or stack).

    The suite's trace-norm oracle for the Hermitian spectrum in
    kt.trace_norm.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("trace_norm needs a square matrix")
    s = np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    return float(s) if M.ndim == 2 else s


def _projector_of(M, dims, p):
    """Global transposes g of a stack, their spectra w, the leading
    eigenvector columns that hold every eigenvalue < -EPS_EIG, and P_minus
    per matrix, built as a D x D matrix."""
    from ktangle.core import _eigh, _outer
    from ktangle.transpose import _global_pt

    g = _global_pt(M, dims, p)
    w, V = _eigh(g)
    neg = w < -EPS_EIG
    c = int(neg.sum(axis=-1).max(initial=0))
    V = V[..., :c].copy()
    P = np.zeros(M.shape, dtype=complex)
    for j in range(c):
        P += _outer(V[..., j] * neg[..., j, None])
    return g, w, V, P


def _projector_trace_with(P, M):
    """Re Tr(P M) for each stacked pair."""
    return np.trace(P @ M, axis1=-2, axis2=-1).real


def _projector_channel(P, M, d_p):
    return -(2.0 / (d_p - 1)) * _projector_trace_with(P, M)


def projector_kway_channel(M, dims, K, p):
    """E_K^p of each matrix of a stack through the D x D projector."""
    from ktangle.transpose import _kway_pt

    return _projector_channel(_projector_of(M, dims, p)[3], _kway_pt(M, dims, K, p), dims[p])


def projector_report(M, dims, p):
    """Every NegativityReport field of focus p for a stack M of shape (B, D, D),
    one array per field (dicts of arrays for the per-K and per-partner ones).

    The suite's oracle for negativity_report: trace norms by SVD and channels
    by the D x D projector P_minus, Tr(P_minus M).
    """
    from ktangle.transpose import _kway_pt, _pair_pt

    n, d_p = len(dims), dims[p]
    g, w, V, P = _projector_of(M, dims, p)

    n_global = (svd_trace_norm(g) - 1.0) / (d_p - 1)
    n_kway = {}
    e_partial = {}
    for K in range(2, n + 1):
        rk = _kway_pt(M, dims, K, p)
        n_kway[K] = (svd_trace_norm(rk) - 1.0) / (d_p - 1)
        e_partial[K] = _projector_channel(P, rk, d_p)
    t_id = _projector_trace_with(P, M)
    e0 = -(2.0 * (n - 2) / (d_p - 1)) * t_id if n > 2 else np.zeros_like(t_id)

    pair_split = {}
    if n == 3:
        for partner in range(3):
            if partner != p:
                t_pair = _projector_trace_with(P, _pair_pt(M, dims, p, partner))
                pair_split[partner] = (-2.0 * t_pair + t_id) / (d_p - 1)

    gate = np.abs(e0) <= EPS_NORM
    return {
        "n_global": n_global,
        "n_kway": n_kway,
        "e_partial": e_partial,
        "e0": e0,
        "pair_split": pair_split,
        "sum_residual": np.abs(n_global - (sum(e_partial.values()) - e0)),
        "violates": {K: gate & (ek > n_global + EPS_NORM) for K, ek in e_partial.items()},
        "eigenvalues": w,
        "negative_vectors": V,
    }


SYSY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def spin_flip(M):
    """Wootters' spin flip (sy x sy) M* (sy x sy) of a two-qubit matrix (or stack)."""
    return SYSY @ np.conj(M) @ SYSY


def sqrt_route_wootters(M):
    """Squared concurrence of each stacked two-qubit matrix by two eigensolves.

    The spectrum of rho rho_tilde is taken from the Hermitian similar matrix
    sqrt(rho) rho_tilde sqrt(rho), and eigenvalues below 1e-12 are zeroed
    before the square roots, so every lambda below 1e-6 is lost.  The
    suite's oracle for the Takagi route of kt.wootters_tangle, accurate on
    states whose lambdas are all 0 or well above 1e-6.
    """
    w, V = np.linalg.eigh(M)
    sq = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ V.conj().swapaxes(-1, -2)
    lam2 = np.linalg.eigvalsh(sq @ spin_flip(M) @ sq)
    lam2 = np.where(np.abs(lam2) < 1e-12, 0.0, np.clip(lam2, 0.0, None))
    lam = np.sqrt(lam2)[..., ::-1]
    c = np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0)
    return c * c


def flat_index(multi, layout: SubsystemLayout) -> int:
    """Row-major flat index of a basis label, last subsystem fastest."""
    if len(multi) != layout.n_subsystems:
        raise IndexError("label length does not match layout")
    k = 0
    for i, d in zip(multi, layout.dims):
        if not 0 <= int(i) < d:
            raise IndexError(f"component {i} out of range for dimension {d}")
        k = k * d + int(i)
    return k


def multi_index(k: int, layout: SubsystemLayout) -> tuple:
    """Inverse of flat_index."""
    if not 0 <= k < layout.total_dim:
        raise IndexError(f"flat index {k} out of range")
    out = []
    for d in reversed(layout.dims):
        out.append(k % d)
        k //= d
    return tuple(reversed(out))


def differing_count(r: int, c: int, layout: SubsystemLayout) -> int:
    """Number of subsystems whose labels differ between bra index r and ket index c."""
    D = layout.total_dim
    if not (0 <= r < D and 0 <= c < D):
        raise IndexError("basis index out of range")
    n = 0
    for d in reversed(layout.dims):
        n += int(r % d != c % d)
        r //= d
        c //= d
    return n


def masked_swap(M, dims, p, mask):
    """Focus-p swap of the elements of a stack where mask[r, c] holds, by a
    gather through flat addresses computed from the label table.  The suite's
    oracle for the select-from-the-swapped-view route of the K-way and
    pair-restricted transposes."""
    from ktangle.transpose import _label_tables

    dg, _ = _label_tables(dims)
    stride = int(np.prod(dims[p + 1 :]))
    out = M.copy()
    R, C = np.nonzero(mask)
    out[..., R, C] = M[..., R + (dg[C, p] - dg[R, p]) * stride, C + (dg[R, p] - dg[C, p]) * stride]
    return out


def uncached_kway_pt(M, dims, K, p):
    from ktangle.transpose import _label_tables

    return masked_swap(M, dims, p, _label_tables(dims)[1] == K)


def uncached_pair_pt(M, dims, p, partner):
    from ktangle.transpose import _label_tables

    dg, diff = _label_tables(dims)
    third = next(m for m in range(3) if m not in (p, partner))
    return masked_swap(M, dims, p, (diff == 2) & (dg[:, None, third] == dg[None, :, third]))


def defect_state(eps):
    # (1 - 2 eps) |Phi+><Phi+| + eps |01><01| + eps |10><10|
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = (1 - 2 * eps) / 2
    m[1, 1] = m[2, 2] = eps
    return m


def x_concurrence(m):
    # Yu & Eberly, QIC 7, 459 (2007)
    return 2 * max(
        0.0,
        abs(m[0, 3]) - math.sqrt(m[1, 1].real * m[2, 2].real),
        abs(m[1, 2]) - math.sqrt(m[0, 0].real * m[3, 3].real),
    )


def x_state(diag, outer, inner):
    """The X state with the given diagonal and |00><11|, |01><10| coherences."""
    m = np.diag(diag).astype(complex)
    m[0, 3], m[1, 2] = outer, inner
    m[3, 0], m[2, 1] = np.conj(outer), np.conj(inner)
    return m


def _bell_diagonal(w):
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
    return sum(wk * np.outer(b, b) for wk, b in zip(w, bells))


# Two-qubit states with known concurrence C, as name: (matrix, C).  Their
# Takagi values are all equal, pairwise equal, two of them zero, or all zero.
WOOTTERS_CASES = {
    "identity": (np.eye(4) / 4, 0.0),
    "bell_diag": (_bell_diagonal([0.4, 0.3, 0.2, 0.1]), 0.0),
    "bell_diag_entangled": (_bell_diagonal([0.7, 0.1, 0.1, 0.1]), 0.4),
    "werner_below": (_bell_diagonal([0.475, 0.175, 0.175, 0.175]), 0.0),  # p = 0.3
    "werner_at": (_bell_diagonal([0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3]), 0.0),  # p = 1/3
    "werner_above": (_bell_diagonal([0.55, 0.15, 0.15, 0.15]), 0.1),  # p = 0.4
    "t_zero": (np.diag([0.5, 0.5, 0.0, 0.0]), 0.0),  # T = 0: every sigma is 0
    "defect_1e-6": (defect_state(1e-6), 1 - 4e-6),
    "defect_1e-7": (defect_state(1e-7), 1 - 4e-7),
    "x_state": (x_state([0.3, 0.1, 0.2, 0.4], 0.25j, 0.05), 2 * (0.25 - math.sqrt(0.02))),
}
