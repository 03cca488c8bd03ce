"""Canonical three-qubit forms: construction, closed forms, numeric reduction.

A canonical representative is supported on {|000>, |100>, |110>, |101>,
|111>} with nonnegative amplitudes a, b, c, d, f and a single phase phi on
the |100> term.  The reduction picks a rotation of the first qubit that makes
the first slice of the amplitude tensor singular (a scalar quadratic
condition), diagonalizes that slice with singular-value rotations of the
other two qubits, and then fixes the remaining phase freedom.  The quadratic
generically has two roots, so two inequivalent-looking representatives of the
same orbit are returned; its discriminant test is the one rule that merges
them into one form near a double root.

Each root is reduced in closed form, on Python complex scalars, with no
LAPACK call (Python complex values are faster than numpy scalars at this
size).  The quadratic's coefficients are 2x2 determinants and its roots are
projective points (nothing is divided).  The root's rotation of the first
qubit gives the slices M = x T0 + y T1, singular by construction, and
N = -y* T0 + x* T1.  The leading singular pair u, v of M comes from the
2x2 Gram matrix M M^dagger (_leading_pair), so U_B = [u^dagger; (-u1, u0)]
and U_C = [v^T; (-v1*, v0*)] take M to diag(a, 0); the same two rotations
take N to the second slice [[b, d], [c, f]], whose phases fix the second
rows (_phase_gauge), and the amplitudes are those two rotated slices times
the gauge phases.  Where the roots merge (_quadratic_roots), M keeps a
small second singular value, which lands on |011> and in the residual.
A reduction by np.linalg.svd of M and one einsum of the rotations with
the tensor is the test suite's oracle (tests/conftest.py,
svd_canonicalize3).

Gauge of the returned unitaries.  The forms fix every rotation up to one
joint phase of the first rows of U_B and U_C and, where an amplitude of the
second slice vanishes, the phase of a second row that touches only zeros.
The rules: the first row (x, y) of U_A has its larger entry real and
positive (_unit_root); the first entry of U_C's first row is real and
>= 0, and where it is 0 the second entry is real and positive; the second
rows of U_B and U_C start as the epsilon rotations above, and every second
row is then multiplied by its gauge phase.  No form depends on these rules,
only the printed unitaries do, so they do not depend on the LAPACK build.

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
    CANONICAL_RESIDUAL,
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
    """Projective roots (x, y) of a0 mu^2 + b0 mu + c0 with mu = y/x,
    unnormalized, with nothing divided out.

    Distinct roots are (a0, q) and (q, c0), with the sign-stabilized
    q = -(b0 + sqrt(disc))/2 (the sqrt branch that avoids cancellation), so
    a root at infinity is (0, q) and a zero root is (q, 0).  A near-double
    root is the one point (2 a0, -b0), or (-b0, 2 c0) where |c0| > |a0|; the
    zero quadratic, which every rotation solves, gives (1, 0).
    """
    if max(abs(a0), abs(b0), abs(c0)) < CANONICAL_COEF_EPS:
        return [(1.0, 0.0)]
    disc = b0 * b0 - 4 * a0 * c0
    if abs(disc) < CANONICAL_DISC_EPS:
        return [(2 * a0, -b0) if abs(a0) >= abs(c0) else (-b0, 2 * c0)]
    sq = cmath.sqrt(disc)
    if (b0.conjugate() * sq).real < 0:
        sq = -sq
    q = -0.5 * (b0 + sq)
    return [(a0, q), (q, c0)]


def _unit_root(x: complex, y: complex):
    """(x, y) scaled to unit norm with its larger component real and
    positive, so that an exact zero stays exact in the rotation."""
    n = math.hypot(abs(x), abs(y))
    if abs(x) >= abs(y):
        return abs(x) / n, y * (x.conjugate() / abs(x)) / n
    return x * (y.conjugate() / abs(y)) / n, abs(y) / n


def _phase_gauge(b: complex, c: complex, d: complex, f: complex):
    """Z-phase angles (delta, beta1, gamma1) of the second rows of the A, B
    and C rotations that make c, d and f real and nonnegative.

    The second slice [[b, d], [c, f]] picks up e^{i delta} on every entry,
    e^{i beta1} on c and f and e^{i gamma1} on d and f.  Three rules:
    delta cancels arg f - arg c - arg d when c, d and f are all nonzero, and
    otherwise the b phase (so that a form with a vanishing c, d or f is
    real); beta1 then comes from c, or else from f when d is nonzero; gamma1
    comes from d, or else from f.
    """
    tb, tc, td, tf = (cmath.phase(z) for z in (b, c, d, f))
    zc, zd, zf = (abs(z) < CANONICAL_AMP_EPS for z in (c, d, f))
    if zc or zd or zf:
        delta = -tb if abs(b) > CANONICAL_AMP_EPS else 0.0
    else:
        delta = tf - tc - td
    from_d = -td - delta
    beta1 = -tc - delta if not zc else (-tf - delta - from_d if not (zd or zf) else 0.0)
    gamma1 = from_d if not zd else (-tf - delta - beta1 if not zf else 0.0)
    return delta, beta1, gamma1


def _leading_pair(m00: complex, m01: complex, m10: complex, m11: complex):
    """Unit vectors (u0, u1), (v0, v1) of the larger singular value s of
    M = [[m00, m01], [m10, m11]]: M^dagger u = s v and, for a singular M,
    M = s u v^dagger.  Gauge: v0 is real and >= 0, and v1 is real and > 0
    where v0 = 0.  M = 0 gives (1, 0) twice, as LAPACK does.

    u is the eigenvector of G = M M^dagger = [[p, g], [g*, r]] for its larger
    eigenvalue lam = (p + r)/2 + h, h = hypot((p - r)/2, |g|), read off the
    row of G - lam that does not cancel: (lam - r, g*) where p >= r, else
    (g, lam - p), or (1, 0) where G is a multiple of 1.  M is scaled by its
    largest entry first, so p and r neither underflow nor overflow.
    """
    scale = max(abs(m00), abs(m01), abs(m10), abs(m11))
    if scale == 0.0:
        return (1.0, 0.0), (1.0, 0.0)
    m00, m01, m10, m11 = m00 / scale, m01 / scale, m10 / scale, m11 / scale
    p = abs(m00) ** 2 + abs(m01) ** 2
    r = abs(m10) ** 2 + abs(m11) ** 2
    g = m00 * m10.conjugate() + m01 * m11.conjugate()
    h = math.hypot(0.5 * (p - r), abs(g))
    u0, u1 = (0.5 * (p - r) + h, g.conjugate()) if p >= r else (g, 0.5 * (r - p) + h)
    if h == 0.0:  # G = p 1, and every unit vector is singular
        u0, u1 = 1.0, 0.0
    # w = M^dagger u, and v = w/|w| with the phase of the gauge
    w0 = m00.conjugate() * u0 + m10.conjugate() * u1
    w1 = m01.conjugate() * u0 + m11.conjugate() * u1
    lead = w0 if w0 != 0 else w1
    ph = lead.conjugate() / abs(lead)
    nu, nw = math.hypot(abs(u0), abs(u1)), math.hypot(abs(w0), abs(w1))
    u = (u0 * ph / nu, u1 * ph / nu)
    if w0 != 0:
        return u, (abs(w0) / nw, w1 * ph / nw)
    return u, (0.0, abs(w1) / nw)


def _sandwich(L, X, R):
    """L X R^T of 2 x 2 matrices held as pairs of rows."""
    (l00, l01), (l10, l11) = L
    (x00, x01), (x10, x11) = X
    (r00, r01), (r10, r11) = R
    y00, y01 = x00 * r00 + x01 * r01, x00 * r10 + x01 * r11
    y10, y11 = x10 * r00 + x11 * r01, x10 * r10 + x11 * r11
    return ((l00 * y00 + l01 * y10, l00 * y01 + l01 * y11),
            (l10 * y00 + l11 * y10, l10 * y01 + l11 * y11))


def canonicalize3(psi: PureState) -> CanonicalizationResult:
    """Reduce a three-qubit pure state to canonical form(s).

    Both quadratic roots are returned when distinct (ordered by larger a,
    tie-broken by larger f); a near-double root yields a single form.  The
    unitaries follow the gauge of the module docstring.
    """
    if psi.layout.dims != (2, 2, 2):
        raise ValidationError("canonicalization needs a three-qubit pure state")
    t000, t001, t010, t011, t100, t101, t110, t111 = psi.amplitudes.tolist()
    # det(x T0 + y T1) = c0 x^2 + b0 x y + a0 y^2
    c0 = t000 * t011 - t001 * t010
    a0 = t100 * t111 - t101 * t110
    b0 = t000 * t111 + t100 * t011 - t001 * t110 - t101 * t010

    entries = []
    for root in _quadratic_roots(a0, b0, c0):
        x, y = _unit_root(*root)
        xc, yc = x.conjugate(), y.conjugate()
        # the slices x T0 + y T1 and -y* T0 + x* T1 of the A rotation
        first = ((x * t000 + y * t100, x * t001 + y * t101),
                 (x * t010 + y * t110, x * t011 + y * t111))
        second = ((xc * t100 - yc * t000, xc * t101 - yc * t001),
                  (xc * t110 - yc * t010, xc * t111 - yc * t011))
        # the first rows of U_B and U_C take the singular first slice to
        # diag(a, 0); their second rows are the epsilon rotations of the first
        (u0, u1), (v0, v1) = _leading_pair(*first[0], *first[1])
        rows_b = ((u0.conjugate(), u1.conjugate()), (-u1, u0))
        rows_c = ((v0, v1), (-v1.conjugate(), v0.conjugate()))
        (p00, p01), (p10, p11) = _sandwich(rows_b, first, rows_c)
        # the second slice [[b, d], [c, f]] before the phase gauge
        (b, d), (c, f) = _sandwich(rows_b, second, rows_c)
        delta, beta1, gamma1 = _phase_gauge(b, c, d, f)
        ed, eb, eg = cmath.exp(1j * delta), cmath.exp(1j * beta1), cmath.exp(1j * gamma1)
        b, c, d, f = b * ed, c * ed * eb, d * ed * eg, f * ed * eb * eg

        amp_b = abs(b)
        phi = _phase(cmath.phase(b)) if amp_b > CANONICAL_AMP_EPS else 0.0
        resid = max(abs(p01), abs(p10), abs(p11),
                    abs(p00.imag), abs(c.imag), abs(d.imag), abs(f.imag))
        form = _derived(CanonicalForm3Q, a=abs(p00), b=amp_b, c=abs(c), d=abs(d), f=abs(f), phi=phi)
        matrices = np.array((((x, y), (-yc * ed, xc * ed)),
                             (rows_b[0], (-u1 * eb, u0 * eb)),
                             ((v0, v1), (-v1.conjugate() * eg, v0.conjugate() * eg))), dtype=complex)
        us = tuple(_derived(LocalUnitary, target=m, matrix=matrices[m]) for m in range(3))
        entries.append((form, us, resid))

    entries.sort(key=lambda e: (-e[0].a, -e[0].f))
    residual = max(e[2] for e in entries)
    if residual > CANONICAL_RESIDUAL:
        raise NumericalError(f"canonicalization residual {residual} exceeds {CANONICAL_RESIDUAL}")
    return CanonicalizationResult(
        forms=tuple(e[0] for e in entries),
        unitaries=tuple(e[1] for e in entries),
        residual=residual,
    )


def _delta(e3, n_global, tau3):
    """coherence_delta E_3 N_G - tau3 from the focus-A report and the CKW
    residual tau3 of the same N_G (tangle._tangles)."""
    return e3 * n_global - tau3


def _global_and_delta(amps: np.ndarray):
    """N_G of focus A and coherence_delta of each state of a (B, 8) stack of
    normalized three-qubit amplitude vectors, from one report and the CKW
    split of its N_G (tangle._tangles) for the whole stack."""
    a = _report_arrays(amps, _L3.dims, 0)
    return a.n_global, _delta(a.e_partial[3], a.n_global, _tangles(a.n_global, amps, _L3.dims, 0)[2])


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
