"""Convex-roof extended negativities over pure-state decompositions.

The roof of a measure over a mixed state is the minimum ensemble average
over all decompositions.  Decompositions of a rank-r state into m members
are parameterized by m x r matrices with orthonormal columns acting on the
weighted eigenvectors, so the search runs over that isometry manifold with
random restarts and accept-if-better two-member rotations under a cooling
schedule.  Its values are upper bounds on the true roof (bound "upper").

The global roof of a two-qubit state is known in closed form: it is
Wootters' concurrence (Lee, Kim, Park & Lee, J. Phys. A 36, 2003), and its
optimal decomposition comes from the Takagi factorization that also gives
the tangles (tangle._takagi).  That case is returned exactly (bound
"exact"), with no search, and so is rank-one input of every measure, which
is its own only decomposition.

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
    ROOF_MAX_MEMBERS,
    ROOF_MEMBER_CUTOFF,
    ROOF_RANK_CUTOFF,
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
        layout = self.members[0][1].layout
        m = sum(p * _outer(s.amplitudes) for p, s in self.members)
        return _derived(DensityOperator, layout=layout, matrix=m)


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


def _values(value_of, members) -> list:
    """value_of each (row, weight) member, evaluated as one stack of the rows
    over the square roots of their weights; 0.0 for a member of weight <=
    ROOF_MEMBER_CUTOFF, which is dropped."""
    live = [row / math.sqrt(q) for row, q in members if q > ROOF_MEMBER_CUTOFF]
    got = iter(value_of(np.array(live)).tolist() if live else ())
    return [next(got) if q > ROOF_MEMBER_CUTOFF else 0.0 for _, q in members]


def _rotate(g, theta: float, phis: np.ndarray):
    """Draw a two-member rotation from g and apply it to rows j, k of phis.

    Returns j, k, the rotated rows and their weights.
    """
    j, k = g.choice(len(phis), size=2, replace=False)
    t = g.uniform(-theta, theta)
    ph = g.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(t), math.sin(t)
    ei = cmath.exp(1j * ph)
    nj = c * phis[j] + s * ei * phis[k]
    nk = -s * np.conj(ei) * phis[j] + c * phis[k]
    return j, k, nj, nk, float(np.vdot(nj, nj).real), float(np.vdot(nk, nk).real)


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

    The restarts run in lockstep: each iteration evaluates the proposed
    members of every restart as one stack.  Restart i draws only from its own
    generator, a prefix-stable spawn of budget.seed, so the result equals a
    sequential search and is deterministic and monotone nonincreasing in
    restarts.
    """
    r = lam.size

    m = max(r, min(2 * r, ROOF_MAX_MEMBERS))
    base = (vec * np.sqrt(lam)).T  # row k = sqrt(lam_k) e_k
    iters = budget.iterations
    mark = max(1, int(0.8 * iters))
    R = budget.restarts
    gens, phis, probs = [], [], []
    for ridx, child in enumerate(np.random.SeedSequence(budget.seed).spawn(R)):
        g = np.random.default_rng(child)
        if ridx == 0:
            W = np.zeros((m, r), dtype=complex)
            W[:r, :r] = np.eye(r)
        else:
            Z = g.standard_normal((m, r)) + 1j * g.standard_normal((m, r))
            W, _ = np.linalg.qr(Z)
        gens.append(g)
        phis.append(W @ base)
        probs.append(np.einsum("jd,jd->j", phis[-1], phis[-1].conj()).real)

    got = _values(value_of, [(row, q) for i in range(R) for row, q in zip(phis[i], probs[i])])
    vals = [np.array(got[i * m : (i + 1) * m]) for i in range(R)]
    cur = [float(probs[i] @ vals[i]) for i in range(R)]
    at_mark = list(cur)
    theta = 0.5
    for it in range(iters):
        steps = [_rotate(g, theta, phi) for g, phi in zip(gens, phis)]
        proposed = [pair for _, _, nj, nk, pj, pk in steps for pair in ((nj, pj), (nk, pk))]
        got = iter(_values(value_of, proposed))
        for i, (j, k, nj, nk, pj, pk) in enumerate(steps):
            vj, vk = next(got), next(got)
            P, V = probs[i], vals[i]
            new = cur[i] - P[j] * V[j] - P[k] * V[k] + pj * vj + pk * vk
            if new < cur[i] - ROOF_ACCEPT_MARGIN:
                cur[i] = new
                phis[i][j], phis[i][k] = nj, nk
                P[j], P[k] = pj, pk
                V[j], V[k] = vj, vk
        theta *= 0.995
        if it == mark - 1:
            at_mark = list(cur)

    best = min(range(R), key=cur.__getitem__)  # the first of equal values
    return RoofResult(
        value=float(cur[best]),
        certificate=_ensemble(layout, phis[best], probs[best]),
        restarts_used=R,
        converged=(at_mark[best] - cur[best]) < ROOF_CONVERGED_DROP,
    )

