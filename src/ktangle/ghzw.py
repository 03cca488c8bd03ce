"""One-parameter GHZ+W superposition family.

State: sqrt(q) (|000>+|111>)/sqrt(2) + s sqrt(1-q) (|100>+|010>+|001>)/sqrt(3)
with s = +1 or -1.  The three tangle has a closed form in q; the minus branch
has a unique interior zero.  Canonicalization of the family is delegated to
the general reducer, whose discriminant test also decides where the two
forms merge into one, and cross-checked against the closed-form root of the
first-qubit rotation where that root is real.

GhzwParams and sweep_family's sign, q range and step count are the
boundary: what is built from them (the family states, the grid points'
GhzwParams and the exact forms and unitaries at q = 0 and 1) is valid by
construction and built unchecked through core._derived.  sweep_family
evaluates its grid in stacks of STACK_CHUNK points, each built from
np.linspace's own formula so the whole grid is never held, with one
negativity report and one tangle call per stack
(canonical._global_and_delta), and yields the rows as it goes; only the
canonicalization, whose root and phase logic is scalar, runs per point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .canonical import (
    CanonicalForm3Q,
    CanonicalizationResult,
    _global_and_delta,
    canonical_closed_forms,
    canonicalize3,
)
from .core import LocalUnitary, PureState, _derived, qubit_layout
from .config import (
    GHZW_ROOT_RTOL,
    STACK_CHUNK,
    NumericalError,
    ValidationError,
)

_L3 = qubit_layout(3)
_TAU_COEF = 8.0 * math.sqrt(6.0) / 9.0


@dataclass(frozen=True)
class GhzwParams:
    q: float
    sign: int

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValidationError(f"mixing parameter q = {self.q} outside [0, 1]")
        if self.sign not in (1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class SweepRow:
    q: float
    n_global: float
    e2: float
    e3: float
    tau3_formula: float
    e3_times_ng: float
    delta: float


def _ghzw_amplitudes(q, sign: int) -> np.ndarray:
    """Amplitudes of the family state at each mixing parameter of q, shape
    q.shape + (8,), unchecked."""
    q = np.asarray(q, dtype=float)
    v = np.zeros(q.shape + (8,), dtype=complex)
    v[..., 0] = v[..., 7] = np.sqrt(q / 2.0)
    v[..., 4] = v[..., 2] = v[..., 1] = sign * np.sqrt((1.0 - q) / 3.0)
    return v


def build_ghzw(params: GhzwParams) -> PureState:
    return _derived(PureState, layout=_L3, amplitudes=_ghzw_amplitudes(params.q, params.sign))


def tau3_closed_form(params: GhzwParams) -> float:
    q = params.q
    return abs(q * q + params.sign * _TAU_COEF * math.sqrt(q * (1.0 - q) ** 3))


def tau3_minus_zero() -> float:
    """Interior zero q* of the minus-branch three tangle, in closed form.

    q^2 = (8 sqrt(6)/9) sqrt(q (1-q)^3) squares to q^3 = (128/27) (1-q)^3,
    so q/(1-q) = 2^(7/3)/3 and q* = 2^(7/3)/(3 + 2^(7/3)) = 0.6268510...
    """
    t = 2.0 ** (7.0 / 3.0)
    return t / (3.0 + t)


def x_parameter(params: GhzwParams) -> float:
    """Rotation parameter x = -s sqrt(3q/(2(1-q))); the degenerate point is x^3 = 4."""
    if params.q >= 1.0:
        raise ValueError("x is undefined at q = 1")
    return -params.sign * math.sqrt(3.0 * params.q / (2.0 * (1.0 - params.q)))


def _exact_limit_result(params: GhzwParams) -> CanonicalizationResult:
    # q = 1 is the GHZ state, already canonical; q = 0 is (sign) W, mapped by
    # a first-qubit swap plus sign fixes
    eye = np.eye(2, dtype=complex)
    if params.q == 1.0:
        h = 1 / math.sqrt(2)
        form = _derived(CanonicalForm3Q, a=h, b=0.0, c=0.0, d=0.0, f=h, phi=0.0)
        matrices = (eye, eye, eye)
    else:
        r = 1 / math.sqrt(3)
        form = _derived(CanonicalForm3Q, a=r, b=0.0, c=r, d=r, f=0.0, phi=0.0)
        flip = np.diag([1.0, -1.0]).astype(complex)
        swap = np.array([[0.0, params.sign], [-1.0, 0.0]], dtype=complex)
        matrices = (swap, flip, flip) if params.sign == 1 else (swap, eye, eye)
    us = tuple(_derived(LocalUnitary, target=m, matrix=U) for m, U in enumerate(matrices))
    return CanonicalizationResult(forms=(form,), unitaries=(us,), residual=0.0)


def _closed_form_root_check(result: CanonicalizationResult, x: float):
    # the ratio |UA00|/|UA01| of each form's first-qubit rotation must match
    # a root of r^2 - x^2 r + x = 0 (sum x^2, product x) whenever its
    # discriminant x^4 - 4x is nonnegative: the larger root without
    # cancellation, the other from the product, and no power of x in a
    # denominator to underflow or overflow at tiny q
    disc = x**4 - 4.0 * x
    if disc < 0.0:
        return
    big = (x * x + math.sqrt(disc)) / 2.0
    roots = [abs(x) / big, big]  # |x| / big <= sqrt|x| <= big, and big > 0 for x != 0
    # roots of opposite sign (x < 0) merge through 0
    lo = 0.0 if x < 0.0 else roots[0] * (1.0 - GHZW_ROOT_RTOL)
    hi = roots[1] * (1.0 + GHZW_ROOT_RTOL)
    for us in result.unitaries:
        ua = us[0].matrix
        ratio = abs(ua[0, 0]) / abs(ua[0, 1])
        if len(result.forms) == 1:
            # the reducer merges the roots into one form once its discriminant
            # is below CANONICAL_DISC_EPS, near x^3 = 4 and at tiny |x|, while
            # the closed-form roots are still apart: that form may take any
            # ratio between them
            ok = lo <= ratio <= hi
        else:
            ok = any(abs(ratio - r) <= GHZW_ROOT_RTOL * r for r in roots)
        if not ok:
            raise NumericalError(
                f"first-qubit rotation ratio {ratio} matches no closed-form root {roots}"
            )


def ghzw_canonical_params(params: GhzwParams) -> CanonicalizationResult:
    """Canonical form(s) of the family state: canonicalize3's, which merges
    the two forms into one where its discriminant vanishes (near q*)."""
    if params.q in (0.0, 1.0):
        return _exact_limit_result(params)
    result = canonicalize3(build_ghzw(params))
    _closed_form_root_check(result, x_parameter(params))
    return result


def sweep_family(sign: int, q_start: float, q_end: float, steps: int):
    """SweepRow per grid point of np.linspace(q_start, q_end, steps), in grid
    order: raw-state N_G and delta, canonical-form e2/e3.  The sign, the range
    and the step count are checked at the call; the rows are then yielded one
    stack at a time (module docstring).
    """
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    if not 0.0 <= q_start < q_end <= 1.0:
        raise ValidationError(f"bad q range [{q_start}, {q_end}]")
    steps = operator.index(steps)  # a TypeError at the call, as np.linspace raises
    if steps < 2:
        raise ValidationError("a sweep needs at least 2 grid points")
    return _sweep_rows(sign, q_start, q_end, steps)


def _grid(q_start: float, q_end: float, steps: int, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of np.linspace(q_start, q_end, steps), bit for bit,
    from its own formula, without the rest of the grid."""
    div = steps - 1
    delta = q_end - q_start
    i = np.arange(lo, hi, dtype=float)
    # numpy's branch for a step that underflows to 0
    q = (i / div * delta if delta / div == 0 else i * (delta / div)) + q_start
    if hi == steps:
        q[-1] = q_end
    return q


def _sweep_rows(sign: int, q_start: float, q_end: float, steps: int):
    for start in range(0, steps, STACK_CHUNK):
        chunk = _grid(q_start, q_end, steps, start, min(start + STACK_CHUNK, steps))
        n_global, delta = _global_and_delta(_ghzw_amplitudes(chunk, sign))
        for q, ng, dl in zip(chunk.tolist(), n_global.tolist(), delta.tolist()):
            params = _derived(GhzwParams, q=q, sign=sign)
            neg_closed, _ = canonical_closed_forms(ghzw_canonical_params(params).forms[0])
            e3 = neg_closed.e_partial[3]
            yield SweepRow(
                q=q,
                n_global=ng,
                e2=neg_closed.e_partial[2],
                e3=e3,
                tau3_formula=tau3_closed_form(params),
                e3_times_ng=e3 * ng,
                delta=dl,
            )
