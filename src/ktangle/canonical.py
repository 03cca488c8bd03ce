"""Canonical three-qubit forms: construction, closed forms, numeric reduction.

A canonical representative is supported on {|000>, |100>, |110>, |101>,
|111>} with nonnegative amplitudes a, b, c, d, f and a single phase phi on
the |100> term.  The reduction picks a rotation of the first qubit that makes
the first slice of the amplitude tensor singular (a scalar quadratic
condition), diagonalizes that slice with singular-value rotations of the
other two qubits, and then fixes the remaining phase freedom.  The quadratic
generically has two roots, so two inequivalent-looking representatives of the
same orbit are returned.

Phase range note: phi is stored in [0, 2*pi).  When all five amplitudes are
nonzero the phase is rigid modulo 2*pi along the local-unitary orbit (the
six local Z phases that preserve the support impose a forced zero shift on
the |100> term), so a half-range convention is not reachable in general.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import (
    CANONICAL_AMP_EPS,
    CANONICAL_COEF_EPS,
    CANONICAL_DISC_EPS,
    CANONICAL_DIVISOR_EPS,
    CANONICAL_NEWTON_EPS,
    CANONICAL_RESIDUAL,
    CANONICAL_ROOT_RTOL,
    EPS_NORM,
    NumericalError,
    ValidationError,
)
from .core import LocalUnitary, PureState, _derived, qubit_layout
from .negativity import NegativityReport, _report_arrays
from .tangle import TangleReport, _tangles

_L3 = qubit_layout(3)


def _phase(phi) -> float:
    """phi reduced to [0, 2 pi).  A phase just below 0 reduces to 2 pi itself
    under one %, which the second maps to 0."""
    return float(phi) % math.tau % math.tau


@dataclass(frozen=True)
class CanonicalForm3Q:
    a: float
    b: float
    c: float
    d: float
    f: float
    phi: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "f"):
            v = float(getattr(self, name))
            if v < -CANONICAL_AMP_EPS:
                raise ValidationError(f"amplitude {name} = {v} must be nonnegative")
            object.__setattr__(self, name, max(v, 0.0))
        nrm2 = self.a**2 + self.b**2 + self.c**2 + self.d**2 + self.f**2
        if abs(nrm2 - 1.0) > EPS_NORM:
            raise ValidationError(f"squared amplitudes sum to {nrm2}, must be 1")
        object.__setattr__(self, "phi", _phase(self.phi))

    @property
    def g(self) -> float:
        return math.sqrt(self.c**2 + self.d**2 + self.f**2)


@dataclass
class CanonicalizationResult:
    """One or two canonical forms with the local unitaries that produce them.

    residual is the largest amplitude magnitude outside the canonical
    support over all returned forms (imaginary leftovers on the real
    amplitudes included).
    """

    forms: tuple
    unitaries: tuple  # per form: (LocalUnitary on A, on B, on C)
    residual: float


def build_canonical_state(form: CanonicalForm3Q) -> PureState:
    v = np.zeros(8, dtype=complex)
    v[0] = form.a
    v[4] = form.b * cmath.exp(1j * form.phi)
    v[6] = form.c
    v[5] = form.d
    v[7] = form.f
    return _derived(PureState, layout=_L3, amplitudes=v)


def _closed_negative_eigenpair(form: CanonicalForm3Q):
    # single negative eigenvalue -a g of the globally transposed state, with
    # eigenvector (-b e^{i phi}, a+g, -(a+g), -b e^{-i phi})/sqrt(4ag+2) in
    # the basis (|000>, |100>, |0 Phi1>, |1 Phi1>), Phi1 = (c,d,f)/g on BC
    a, b, g, phi = form.a, form.b, form.g, form.phi
    if a * g <= 0.0:
        return []
    v = np.zeros(8, dtype=complex)
    nrm = math.sqrt(4 * a * g + 2)
    v[0] = -b * cmath.exp(1j * phi)
    v[4] = a + g
    head = -(a + g) / g
    tail = -b * cmath.exp(-1j * phi) / g
    v[2] = head * form.c
    v[1] = head * form.d
    v[3] = head * form.f
    v[6] = tail * form.c
    v[5] = tail * form.d
    v[7] = tail * form.f
    return [(-a * g, v / nrm)]


def canonical_closed_forms(form: CanonicalForm3Q):
    """Analytic measure values of a canonical form.

    Returns (NegativityReport, TangleReport).  The tangle entries hold for
    every phi; the E entries coincide with the projector pipeline on the
    real slice phi in {0, pi} (complex b phases move weight between the
    2-way and 3-way channels, which is exactly the delta measure).  K-way
    trace-norm negativities have no printed closed form and are left empty.
    """
    a, c, d, f, g = form.a, form.c, form.d, form.f, form.g
    n_g = 2 * a * g
    if n_g > 0:
        e3 = 4 * a * a * f * f / n_g
        e2 = 4 * a * a * (c * c + d * d) / n_g
        pair = {1: 4 * a * a * c * c / n_g, 2: 4 * a * a * d * d / n_g}
    else:
        e3 = e2 = 0.0
        pair = {1: 0.0, 2: 0.0}
    neg = NegativityReport(
        focus=0,
        n_global=n_g,
        n_kway={},
        e_partial={2: e2, 3: e3},
        e0=0.0,
        pair_split=pair,
        negative_eigenpairs=_closed_negative_eigenpair(form),
        sum_residual=abs(n_g - (e2 + e3)),
    )
    tan = TangleReport(
        tau_focus=4 * a * a * g * g,
        tau_pairs={1: 4 * a * a * c * c, 2: 4 * a * a * d * d},
        tau3=4 * a * a * f * f,
    )
    return neg, tan


def _quadratic_roots(a0: complex, b0: complex, c0: complex):
    """Projective roots (x, y) of a0 mu^2 + b0 mu + c0 with mu = y/x.

    Returns a single chart point on a near-double root.  Root extraction is
    sign-stabilized (the sqrt branch is chosen to avoid cancellation in q).
    """
    scale = max(abs(a0), abs(b0), abs(c0))
    if scale < CANONICAL_COEF_EPS:
        return [(1.0 + 0j, 0.0 + 0j)]
    disc = b0 * b0 - 4 * a0 * c0
    if abs(disc) < CANONICAL_DISC_EPS:
        if abs(a0) >= abs(c0):
            if abs(a0) > CANONICAL_COEF_EPS:
                return [(1.0 + 0j, -b0 / (2 * a0))]
            return [(0.0 + 0j, 1.0 + 0j)]
        return [(-b0 / (2 * c0), 1.0 + 0j)]
    sq = cmath.sqrt(disc)
    if (b0.conjugate() * sq).real < 0:
        sq = -sq
    qq = -0.5 * (b0 + sq)
    r1 = (
        (1.0 + 0j, qq / a0)
        if abs(a0) > abs(qq) * CANONICAL_ROOT_RTOL and abs(a0) > CANONICAL_DIVISOR_EPS
        else (0.0 + 0j, 1.0 + 0j)
    )
    r2 = (1.0 + 0j, c0 / qq) if abs(qq) > CANONICAL_DIVISOR_EPS else (1.0 + 0j, 0.0 + 0j)
    return [r1, r2]


def _polish(root, a0, b0, c0):
    # one Newton step in the better-conditioned affine chart
    x, y = root
    if x != 0 and abs(y / x) <= 1.0:
        mu = y / x
        der = 2 * a0 * mu + b0
        if abs(der) > CANONICAL_NEWTON_EPS:
            mu = mu - (a0 * mu * mu + b0 * mu + c0) / der
        return (1.0 + 0j, mu)
    nu = x / y if y != 0 else 0.0 + 0j
    der = 2 * c0 * nu + b0
    if abs(der) > CANONICAL_NEWTON_EPS:
        nu = nu - (c0 * nu * nu + b0 * nu + a0) / der
    return (nu, 1.0 + 0j)


def _phase_gauge(amps: np.ndarray):
    """Z-phase angles (delta, beta1, gamma1) that zero the c, d, f phases.

    When one or more of c, d, f vanish the leftover freedom is spent on the
    b phase instead, so the form degrades gracefully to a real state.
    """
    bt, dt, ct, ft = amps[4], amps[5], amps[6], amps[7]
    tb, tc, td, tf = (float(np.angle(z)) for z in (bt, ct, dt, ft))
    zc, zd, zf = (abs(z) < CANONICAL_AMP_EPS for z in (ct, dt, ft))
    if not (zc or zd or zf):
        delta = tf - tc - td
        return delta, -tc - delta, -td - delta
    delta = -tb if abs(bt) > CANONICAL_AMP_EPS else 0.0
    if not zc and not zd:
        return delta, -tc - delta, -td - delta
    if not zc and not zf:
        beta1 = -tc - delta
        return delta, beta1, -tf - delta - beta1
    if not zd and not zf:
        gamma1 = -td - delta
        return delta, -tf - delta - gamma1, gamma1
    if not zc:
        return delta, -tc - delta, 0.0
    if not zd:
        return delta, 0.0, -td - delta
    if not zf:
        return delta, 0.0, -tf - delta
    return delta, 0.0, 0.0


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, bit for bit: the same products, without
    np.kron's general-rank set-up."""
    (m, n), (k, l) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, n * l)


def canonicalize3(psi: PureState) -> CanonicalizationResult:
    """Reduce a three-qubit pure state to canonical form(s).

    Both quadratic roots are returned when distinct (ordered by larger a,
    tie-broken by larger f); a near-double root yields a single form.
    """
    if psi.layout.dims != (2, 2, 2):
        raise ValidationError("canonicalization needs a three-qubit pure state")
    T = psi.amplitudes.reshape(2, 2, 2)
    T0, T1 = T[0], T[1]
    c0 = complex(np.linalg.det(T0))
    a0 = complex(np.linalg.det(T1))
    b0 = complex(np.linalg.det(T0 + T1)) - c0 - a0

    entries = []
    for root in _quadratic_roots(a0, b0, c0):
        x, y = _polish(root, a0, b0, c0)
        nrm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        x, y = x / nrm, y / nrm
        UA = np.array([[x, y], [-np.conj(y), np.conj(x)]])
        W, _, Vh = np.linalg.svd(x * T0 + y * T1)
        UB = W.conj().T
        UC = Vh.conj()
        amps = _kron(UA, _kron(UB, UC)) @ psi.amplitudes
        delta, beta1, gamma1 = _phase_gauge(amps)
        UA2 = UA.copy()
        UA2[1, :] *= cmath.exp(1j * delta)
        UB2 = UB.copy()
        UB2[1, :] *= cmath.exp(1j * beta1)
        UC2 = UC.copy()
        UC2[1, :] *= cmath.exp(1j * gamma1)
        amps = _kron(UA2, _kron(UB2, UC2)) @ psi.amplitudes

        b = float(abs(amps[4]))
        phi = _phase(np.angle(amps[4])) if b > CANONICAL_AMP_EPS else 0.0
        resid = max(
            abs(amps[1]),
            abs(amps[2]),
            abs(amps[3]),
            abs(amps[0].imag),
            abs(amps[5].imag),
            abs(amps[6].imag),
            abs(amps[7].imag),
        )
        a, c, d, f = (float(abs(amps[k])) for k in (0, 6, 5, 7))
        form = _derived(CanonicalForm3Q, a=a, b=b, c=c, d=d, f=f, phi=phi)
        us = tuple(_derived(LocalUnitary, target=m, matrix=U)
                   for m, U in enumerate((UA2, UB2, UC2)))
        entries.append((form, us, float(resid)))

    entries.sort(key=lambda e: (-e[0].a, -e[0].f))
    residual = max(e[2] for e in entries)
    if residual > CANONICAL_RESIDUAL:
        raise NumericalError(f"canonicalization residual {residual} exceeds {CANONICAL_RESIDUAL}")
    return CanonicalizationResult(
        forms=tuple(e[0] for e in entries),
        unitaries=tuple(e[1] for e in entries),
        residual=residual,
    )


def _global_and_delta(amps: np.ndarray):
    """N_G of focus A and coherence_delta of each state of a (B, 8) stack of
    normalized three-qubit amplitude vectors, from one report and one tangle
    call for the whole stack."""
    a = _report_arrays(amps, _L3.dims, 0)
    tau_f, pairs = _tangles(amps, _L3.dims, 0)
    return a.n_global, a.e_partial[3] * a.n_global - (tau_f - sum(pairs.values()))


def coherence_delta(psi: PureState) -> float:
    """E_3 N_G - tau3 of the state as given (not canonicalized).

    Zero on real-slice canonical representatives; along a local-unitary
    orbit it tracks how much three-way coherence has been rotated into or
    out of two-way coherences.
    """
    if psi.layout.dims != (2, 2, 2):
        raise ValueError("coherence delta needs a three-qubit pure state")
    return float(_global_and_delta(psi.amplitudes[None])[1][0])


def third_qubit_rotation(alpha: float) -> LocalUnitary:
    """Real rotation of the third qubit by half angle, the coherence-transfer knob."""
    h = alpha / 2.0
    return LocalUnitary(
        2, np.array([[math.cos(h), math.sin(h)], [-math.sin(h), math.cos(h)]])
    )


def ghz_rotation_profile(a: float, alpha: float):
    """Closed-form (e3, e2) of the rotated GHZ-like state a|000> + sqrt(1-a^2)|111>."""
    if not 0.0 < a < 1.0:
        raise ValueError("amplitude a must lie strictly inside (0, 1)")
    base = a * math.sqrt(1.0 - a * a) / 2.0
    return base * (3.0 + math.cos(2 * alpha)), base * (1.0 - math.cos(2 * alpha))
