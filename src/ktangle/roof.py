"""Convex-roof extended negativities over pure-state decompositions.

The roof of a measure over a mixed state is the minimum ensemble average
over all decompositions.  Decompositions of a rank-r state into m members
are parameterized by m x r matrices with orthonormal columns acting on the
weighted eigenvectors, so the search runs over that isometry manifold with
random restarts and accept-if-better two-member rotations under a cooling
schedule.  Its values are upper bounds on the true roof (bound "upper").
The proposal draws do not depend on the search state, so each restart
draws its rotation steps ahead of the search, four doubles of its generator
a step (_draws), one segment of ROOF_DRAW_STEPS steps at a time for the
whole group of restarts, and the search prefetches its proposals (Brockwell,
J. Comput. Graph. Stat. 15, 246, 2006): each round evaluates several steps
of every restart as one member stack, speculating that they are rejected,
and replays the accept rule in draw order (_descend).

The global roof of a two-qubit state is known in closed form: it is
Wootters' concurrence (Lee, Kim, Park & Lee, J. Phys. A 36, 2003), and its
optimal decomposition comes from the Takagi factorization of the T whose
singular values give the tangles (tangle._takagi).  That case is returned
exactly (bound "exact"), with no search, and so is rank-one input of every
measure, which is its own only decomposition.

Every member is pure, so the measures take pure stacks only: N_G and E_K
come from the Schmidt route of negativity (_member_value).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    EPS_NORM,
    ROOF_ACCEPT_MARGIN,
    ROOF_CONVERGED_DROP,
    ROOF_DRAW_STEPS,
    ROOF_MAX_MEMBERS,
    ROOF_MEMBER_CUTOFF,
    ROOF_RANK_CUTOFF,
    ROOF_ROUND_ROWS,
    STACK_CHUNK,
    ValidationError,
)
from .core import DensityOperator, PureState, _derived, _eigh, _outer
from .negativity import _kway_channel, _schmidt
from .tangle import _concurrence, _density_concurrence, _takagi
from .transpose import _check_focus


@dataclass(frozen=True)
class Ensemble:
    members: tuple  # of (probability, PureState)

    def __post_init__(self):
        if not self.members:
            raise ValidationError("ensemble needs at least one member")
        total = 0.0
        layout = self.members[0][1].layout
        for p, psi in self.members:
            if not (p > 0):
                raise ValidationError(f"ensemble probability {p} must be positive")
            if psi.layout.dims != layout.dims:
                raise ValidationError("ensemble members live on different layouts")
            total += p
        if not (abs(total - 1.0) <= EPS_NORM):
            raise ValidationError(f"ensemble probabilities sum to {total}, must be 1")

    def density(self) -> DensityOperator:
        """sum_j p_j |psi_j><psi_j|, which keeps the rows sqrt(p_j) psi_j as
        its factor (core._density_factor)."""
        layout = self.members[0][1].layout
        m = sum(p * _outer(s.amplitudes) for p, s in self.members)
        factor = np.stack([math.sqrt(p) * s.amplitudes for p, s in self.members])
        return _derived(DensityOperator, layout=layout, matrix=m, _factor=factor)


@dataclass(frozen=True)
class RoofBudget:
    restarts: int = 32
    iterations: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValidationError("roof budget must allow at least one restart and iteration")
        if self.seed < 0:
            raise ValidationError(f"roof seed {self.seed} must be non-negative")


@dataclass
class RoofResult:
    value: float
    certificate: Ensemble
    restarts_used: int
    converged: bool
    bound: str = field(default="upper")  # reported value is an upper bound on the roof


def _support(rho: DensityOperator):
    """Eigenvalues above ROOF_RANK_CUTOFF and their eigenvectors."""
    lam, vec = _eigh(rho.matrix)
    keep = lam > ROOF_RANK_CUTOFF
    return lam[keep], vec[:, keep]


def _ensemble(layout, phis: np.ndarray, probs) -> Ensemble:
    """Members phis[j]/sqrt(probs[j]) with weight probs[j], dropping weights
    <= ROOF_MEMBER_CUTOFF."""
    members = tuple(
        (float(q), _derived(PureState, layout=layout, amplitudes=row / math.sqrt(q)))
        for row, q in zip(phis, probs)
        if q > ROOF_MEMBER_CUTOFF
    )
    return _derived(Ensemble, members=members)


def _member_value(measure: str, p: int, layout):
    """The named measure of focus p as a function of a (b, D) stack of
    normalized member vectors, one value each.  Checks the measure and the
    focus before any member is evaluated."""
    dims = layout.dims
    if measure == "global":
        value = lambda amps: _schmidt(amps, dims, p)[0]
    elif measure.startswith("k") and measure[1:].isdigit():
        k = int(measure[1:])
        if not 2 <= k <= layout.n_subsystems:
            raise ValidationError(f"k-way order {k} out of range for {layout.n_subsystems} parts")
        value = lambda amps: _kway_channel(amps, dims, k, p)
    else:
        raise ValidationError(f"unknown roof measure {measure!r} (use global, k2, k3)")
    _check_focus(p, len(dims))
    return value


def _values(value_of, rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """value_of each row of a (b, D) stack of weight probs, evaluated as one
    stack of the rows over the square roots of their weights; 0.0 for a row
    of weight <= ROOF_MEMBER_CUTOFF, which is dropped."""
    live = probs > ROOF_MEMBER_CUTOFF
    if live.all():  # the usual round: no row to drop
        return value_of(rows / np.sqrt(probs)[:, None])
    out = np.zeros(len(probs))
    if live.any():
        out[live] = value_of(rows[live] / np.sqrt(probs[live])[:, None])
    return out


def _draws(g, m: int, iters: int, start: int = 0) -> tuple:
    """Steps start .. start + iters - 1 of the two-member rotations of g,
    four doubles u = g.random(4) a step: the members j = floor(m u_0) and
    k = floor((m - 1) u_1), plus one if k >= j; the angle
    t = theta (2 u_2 - 1), theta starting at 0.5 at step 0 and shrinking by
    0.995 after every step; the phase ph = 2 pi u_3.  Returns the (iters, 2)
    members j != k and the (iters, 3) coefficients (c, se, sc) of
    new j = c j + se k and new k = sc j + c k.

    g.random draws every double on its own, so a stream drawn in chunks,
    each call starting where the last one stopped, is the stream drawn at
    once, and both leave g in the same state.
    """
    u = g.random((iters, 4))
    j = (m * u[:, 0]).astype(np.intp)  # m u < m for every double u < 1
    k = ((m - 1) * u[:, 1]).astype(np.intp)
    k += k >= j
    theta = np.cumprod(np.r_[0.5, np.full(start + iters - 1, 0.995)])[start:]
    t = theta * (2.0 * u[:, 2] - 1.0)
    ph = 2.0 * math.pi * u[:, 3]
    # math's cos and sin, as the sequential search takes them: numpy's
    # vectorized ones may round differently
    c, s = (np.array(list(map(f, t.tolist()))) for f in (math.cos, math.sin))
    ei = np.empty(iters, dtype=complex)
    ei.real, ei.imag = (list(map(f, ph.tolist())) for f in (math.cos, math.sin))
    return np.stack((j, k), 1), np.stack((c, s * ei, -s * ei.conj()), 1)


def _zero_diagonal(M: np.ndarray) -> np.ndarray:
    """Real orthogonal O with diag(O M O^T) = 0, for a real symmetric M of
    trace zero: a Givens sweep that zeroes one diagonal entry per rotation,
    always pairing the largest with the smallest remaining entry."""
    M = M.copy()
    O = np.eye(len(M))
    active = list(range(len(M)))
    while len(active) > 1:
        j = max(active, key=lambda i: M[i, i])
        k = min(active, key=lambda i: M[i, i])
        if not M[j, j] > 0.0 > M[k, k]:
            break
        # new M[j, j] = cos^2 (M_jj + 2 t M_jk + t^2 M_kk) for t = tan; the
        # roots have opposite signs, take the smaller one stably
        a, b, c = M[k, k], 2.0 * M[j, k], M[j, j]
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        t = c / q
        cs = 1.0 / math.sqrt(1.0 + t * t)
        G = np.eye(len(M))
        G[j, j] = G[k, k] = cs
        G[j, k], G[k, j] = t * cs, -t * cs
        M = G @ M @ G.T
        O = G @ O
        active.remove(j)
    return O


def _closing_phases(sigma: np.ndarray) -> np.ndarray:
    """Unit phases z with sum z_j sigma_j = 0 for descending sigma_1..4 with
    sigma_1 <= sigma_2 + sigma_3 + sigma_4: a triangle (sigma_1, sigma_2, s)
    whose side s splits into sigma_3 and sigma_4."""
    s1, s2, s3, s4 = (float(x) for x in sigma)
    s = max(s1 - s2, s3 - s4)

    def turn(a, b):  # the angle t with |a + b e^{it}| = s
        if a * b == 0.0:
            return 0.0
        return math.acos(min(1.0, max(-1.0, (s * s - a * a - b * b) / (2 * a * b))))

    z2 = cmath.exp(1j * turn(s1, s2))
    rest = -(s1 + s2 * z2)  # what sigma_3 and sigma_4 must add up to, |rest| = s
    z4 = cmath.exp(1j * turn(s3, s4))
    pair = s3 + s4 * z4
    rot = (rest / abs(rest)) / (pair / abs(pair)) if abs(rest) > 0 and abs(pair) > 0 else 1.0
    return np.array([1.0, z2, rot, rot * z4])


# Real orthogonal 4 x 4 with equal squared entries: each row averages the diagonal.
_HADAMARD4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


def _wootters_roof(rho: DensityOperator, lam: np.ndarray, vec: np.ndarray) -> RoofResult:
    """Wootters' optimal decomposition of a two-qubit state of support
    (lam, vec), every member of concurrence C (Wootters, PRL 80, 2245, 1998).

    For rho = Phi Phi^dagger the members are the rows of U Phi^T for a
    unitary U, with the concurrences |(U T U^T)_jj| / p_j.  U = Y Q^dagger
    from the Takagi factorization T = Q Sigma Q^T gives U T U^T =
    Y Sigma Y^T.  If C > 0, Y = diag(1, i, i, i) makes it diag(d) with
    d = (sigma_1, -sigma_2, -sigma_3, -sigma_4) of trace C, and a real
    rotation O that zeroes the diagonal of diag(d) - c Re G (G the members'
    Gram matrix, c = C / tr rho, trace zero) leaves every member at
    concurrence c.  If C = 0, phases with sum e^{i theta_j} sigma_j = 0 and a
    4 x 4 Hadamard give every member concurrence 0.

    The value is the concurrence of rho itself, the square root of
    wootters_tangle bit for bit.  The members are built on the support: an
    eigenvalue at or below ROOF_RANK_CUTOFF is roundoff whose eigenvector
    column would only spawn members of negligible weight and arbitrary
    concurrence.
    """
    value = float(_density_concurrence(rho.matrix[None])[0])
    base = np.zeros((4, 4), dtype=complex)
    base[: lam.size] = (vec * np.sqrt(lam)).T  # row k = sqrt(lam_k) e_k
    sigma, Q = (x[0] for x in _takagi(base.T[None]))
    c = float(_concurrence(sigma))
    if c > 0.0:
        phis = (np.array([1.0, 1j, 1j, 1j])[:, None] * Q.conj().T) @ base
        G = phis.conj() @ phis.T
        d = np.array([sigma[0], -sigma[1], -sigma[2], -sigma[3]])
        phis = _zero_diagonal(np.diag(d) - (c / np.trace(G).real) * G.real) @ phis
    else:
        phis = _HADAMARD4 @ ((np.sqrt(_closing_phases(sigma))[:, None] * Q.conj().T) @ base)
    probs = np.einsum("jd,jd->j", phis, phis.conj()).real
    return RoofResult(
        value=value,
        certificate=_ensemble(rho.layout, phis, probs),
        restarts_used=0,
        converged=True,
        bound="exact",
    )


def roof_negativity(
    rho: DensityOperator, p: int, measure: str = "global", budget: RoofBudget = RoofBudget()
) -> RoofResult:
    """Minimize the ensemble-averaged measure over decompositions of rho.

    A rank-one rho is its only decomposition, so its value is exact for every
    measure.  The global roof of a two-qubit state is Wootters' concurrence,
    returned exactly with its optimal decomposition (_wootters_roof).  The
    budget enters neither.  Every other
    measure and layout runs the search (_search), whose value is an upper
    bound.
    """
    layout = rho.layout
    lam, vec = _support(rho)
    if lam.size == 1:
        # rank one: the only decomposition is the state itself
        psi = _derived(PureState, layout=layout, amplitudes=vec[:, 0] / np.linalg.norm(vec[:, 0]))
        return RoofResult(
            value=float(_member_value(measure, p, layout)(psi.amplitudes[None])[0]),
            certificate=_derived(Ensemble, members=((1.0, psi),)),
            restarts_used=0,
            converged=True,
            bound="exact",
        )
    if measure == "global" and layout.dims == (2, 2):
        _check_focus(p, 2)
        return _wootters_roof(rho, lam, vec)
    return _search(layout, _member_value(measure, p, layout), lam, vec, budget)


def _search(layout, value_of, lam: np.ndarray, vec: np.ndarray, budget: RoofBudget) -> RoofResult:
    """The decomposition search over a support (lam, vec) of rank >= 2, with
    value_of the member measure (_member_value).

    Restart i draws only from its own generator, child i of a prefix-stable
    spawn of budget.seed, so the result equals, bit for bit, a search that
    runs the restarts and their steps one at a time, and is deterministic and
    monotone nonincreasing in restarts.  The restarts run in groups of at most
    STACK_CHUNK // m (_descend), so memory does not grow with restarts; the
    first strict minimum over the groups is the first of equal values.
    """
    r = lam.size
    m = max(r, min(2 * r, ROOF_MAX_MEMBERS))
    base = (vec * np.sqrt(lam)).T  # row k = sqrt(lam_k) e_k
    seeds = np.random.SeedSequence(budget.seed)
    size = STACK_CHUNK // m
    best = None
    for first in range(0, budget.restarts, size):
        children = seeds.spawn(min(size, budget.restarts - first))
        got = _descend(value_of, base, m, children, first == 0, budget.iterations)
        if best is None or got[0] < best[0]:
            best = got
    value, phis, probs, converged = best
    return RoofResult(
        value=float(value),
        certificate=_ensemble(layout, phis, probs),
        restarts_used=budget.restarts,
        converged=converged,
    )


def _descend(value_of, base: np.ndarray, m: int, children, identity_first: bool, iters: int):
    """Search one group of restarts, one per SeedSequence in children, for
    iters accept-if-better two-member rotations each; restart 0 starts from
    the identity isometry if identity_first.  Returns the value, member rows,
    weights and converged flag of the first best restart.

    The search runs in segments of ROOF_DRAW_STEPS steps.  At the start of a
    segment every restart draws its steps of the segment (_draws) into (G,
    window) arrays of pairs and coefficients, about 64 bytes a step, which
    each segment refills, so memory does not grow with iters.  A generator
    draws its initial isometry first and its steps in order, so no stream
    changes.  The group shares one (G, m, D) array of member rows and runs
    each segment in rounds.  A round slices the next depth steps of every
    restart (depth = ROOF_ROUND_ROWS // 2G, at least 1, none past the
    segment) from those arrays, builds every proposed pair of rows as if all
    earlier steps of the round were rejected, and evaluates them all as one
    stack.  The accept rule then replays each restart's proposals in draw
    order and stops at the first one that reads a row an accepted step of
    the round changed; that step and the later ones are rebuilt from the
    updated rows next round.  Most steps are rejected, so a round advances
    each restart by several steps.
    """
    r, D = base.shape
    G = len(children)
    phis = np.empty((G, m, D), dtype=complex)
    # the weights are the real part of a complex array, as in the sequential
    # search: BLAS sums the strided probs @ vals in another order than a
    # contiguous one
    probs = np.empty((G, m), dtype=complex)
    gens = []
    for i, child in enumerate(children):
        g = np.random.default_rng(child)
        if i == 0 and identity_first:
            W = np.zeros((m, r), dtype=complex)
            W[:r, :r] = np.eye(r)
        else:
            Z = g.standard_normal((m, r)) + 1j * g.standard_normal((m, r))
            W, _ = np.linalg.qr(Z)
        phis[i] = W @ base
        probs[i] = np.einsum("jd,jd->j", phis[i], phis[i].conj())
        gens.append(g)
    probs = probs.real
    vals = _values(value_of, phis.reshape(-1, D), probs.ravel()).reshape(G, m)
    cur = [float(P @ V) for P, V in zip(probs, vals)]
    at_mark = list(cur)
    mark = max(1, int(0.8 * iters))
    depth = max(1, ROOF_ROUND_ROWS // (2 * G))
    window = min(iters, ROOF_DRAW_STEPS)
    pairs = np.empty((G, window, 2), dtype=np.intp)
    coefs = np.empty((G, window, 3), dtype=complex)
    done = [0] * G  # steps replayed per restart
    for seg in range(0, iters, window):
        end = min(iters, seg + window)
        for i, g in enumerate(gens):
            pairs[i, : end - seg], coefs[i, : end - seg] = _draws(g, m, end - seg, seg)
        while min(done) < end:
            count = [min(depth, end - d) for d in done]
            # the round holds restart i's steps done[i] .. done[i] + count[i] - 1
            # from its place first[i] on
            first = np.cumsum(count) - count
            at = np.repeat(np.arange(G), count)
            step = np.arange(len(at)) + np.repeat(np.array(done) - seg - first, count)
            jk, coef = pairs[at, step], coefs[at, step]
            pair = phis[at[:, None], jk]  # rows j and k of each step's restart
            a, b = pair[:, 0], pair[:, 1]
            c = coef[:, :1]
            rows = np.stack((c * a + coef[:, 1:2] * b, coef[:, 2:] * a + c * b), axis=1)
            rows = rows.reshape(-1, D)
            # one stacked matmul: zdotu of the conjugate, the bits of np.vdot
            w = (rows.conj()[:, None, :] @ rows[:, :, None]).real.ravel()
            v = _values(value_of, rows, w)
            # each replayed step reads rows unchanged since the round began
            old = (probs * vals)[at[:, None], jk].tolist()
            gain = (w * v).tolist()
            w, v, jk = w.tolist(), v.tolist(), jk.tolist()
            for i, (x0, n) in enumerate(zip(first.tolist(), count)):
                moved = set()
                for x in range(x0, x0 + n):
                    j, k = jk[x]
                    if j in moved or k in moved:
                        break
                    new = cur[i] - old[x][0] - old[x][1] + gain[2 * x] + gain[2 * x + 1]
                    if new < cur[i] - ROOF_ACCEPT_MARGIN:
                        cur[i] = new
                        phis[i, j], phis[i, k] = rows[2 * x], rows[2 * x + 1]
                        probs[i, j], probs[i, k] = w[2 * x], w[2 * x + 1]
                        vals[i, j], vals[i, k] = v[2 * x], v[2 * x + 1]
                        moved.update((j, k))
                    done[i] += 1
                    if done[i] == mark:
                        at_mark[i] = cur[i]

    best = min(range(G), key=cur.__getitem__)  # the first of equal values
    converged = (at_mark[best] - cur[best]) < ROOF_CONVERGED_DROP
    return cur[best], phis[best].copy(), probs[best].copy(), converged
