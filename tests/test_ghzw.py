import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt
from ktangle.config import STACK_CHUNK
from ktangle.ghzw import _closed_form_root_check, _ghzw_amplitudes, _grid

from conftest import sequential_sweep

QSTAR = 2.0 ** (7.0 / 3.0) / (3.0 + 2.0 ** (7.0 / 3.0))


@given(st.floats(0.01, 0.99), st.sampled_from([1, -1]))
def test_tau3_closed_form_matches_pipeline(q, sign):
    params = kt.GhzwParams(q=q, sign=sign)
    closed = kt.tau3_closed_form(params)
    direct = kt.three_tangle(kt.build_ghzw(params)).tau3
    assert abs(closed - abs(direct)) < 1e-13


def test_tau3_matches_pipeline_at_endpoints():
    for sign in (1, -1):
        for q in (0.0, 1.0):
            params = kt.GhzwParams(q=q, sign=sign)
            direct = kt.three_tangle(kt.build_ghzw(params)).tau3
            assert abs(kt.tau3_closed_form(params) - abs(direct)) < 1e-13


def test_tau3_reference_values():
    assert abs(kt.tau3_closed_form(kt.GhzwParams(q=1.0, sign=1)) - 1.0) < 1e-15
    assert abs(kt.tau3_closed_form(kt.GhzwParams(q=0.5, sign=1)) - 0.794331) < 1e-6
    assert kt.tau3_closed_form(kt.GhzwParams(q=0.62685, sign=-1)) < 1e-4


def test_minus_branch_zero_location():
    z = kt.tau3_minus_zero()
    assert abs(z - QSTAR) <= np.spacing(QSTAR)
    assert kt.tau3_closed_form(kt.GhzwParams(q=z, sign=-1)) < 1e-11
    # the Wootters route of the three tangle vanishes at the closed-form q*
    assert kt.three_tangle(kt.build_ghzw(kt.GhzwParams(q=z, sign=-1))).tau3 <= 1e-15
    assert abs(kt.x_parameter(kt.GhzwParams(q=z, sign=-1)) ** 3 - 4.0) <= 1e-14


@pytest.mark.parametrize("offset", [1e-13, 5.6e-13, 1e-12, 1e-11, 1e-9])
def test_root_check_accepts_the_merged_double_root(offset):
    # just above q*, the reducer merges the two rotation roots into one form
    # while the closed-form roots x^2 (1 +- sqrt(1 - 4/x^3))/2 are still
    # apart; the merged root lies between them and must not fail the check
    params = kt.GhzwParams(q=QSTAR + offset, sign=-1)
    res = kt.ghzw_canonical_params(params)
    x = kt.x_parameter(params)
    t = math.sqrt(1.0 - 4.0 / x**3)
    lo, hi = x * x * (1.0 - t) / 2.0, x * x * (1.0 + t) / 2.0
    for us in res.unitaries:
        ratio = abs(us[0].matrix[0, 0]) / abs(us[0].matrix[0, 1])
        assert lo * (1.0 - 1e-6) <= ratio <= hi * (1.0 + 1e-6)
    assert res.residual < 1e-8


def test_root_check_rejects_the_inverse_ratio():
    # with UA's columns swapped, |UA00|/|UA01| is the inverse of the
    # rotation's ratio, which matches no closed-form root; at q = 0.4,
    # |x| = 1 and the two roots x^2 (1 +- sqrt(1 - 4/x^3))/2 are reciprocal
    params = kt.GhzwParams(q=0.8, sign=-1)
    res = kt.ghzw_canonical_params(params)
    assert len(res.forms) == 2
    swapped = tuple(
        (dataclasses.replace(us[0], matrix=us[0].matrix[:, ::-1]),) + us[1:]
        for us in res.unitaries
    )
    with pytest.raises(kt.NumericalError, match="matches no closed-form root"):
        _closed_form_root_check(dataclasses.replace(res, unitaries=swapped), kt.x_parameter(params))


@pytest.mark.parametrize("offset", [-1e-10, -1e-11, -5e-12, -1e-13, 1e-13, 5e-12, 1e-11, 1e-10])
def test_family_and_reducer_agree_on_the_form_count(offset):
    # one rule decides whether the two forms have merged near q*
    params = kt.GhzwParams(q=QSTAR + offset, sign=-1)
    family = kt.ghzw_canonical_params(params)
    assert len(family.forms) == len(kt.canonicalize3(kt.build_ghzw(params)).forms)


def test_x_parameter_degeneracy_is_the_tangle_zero():
    # x^3 = 4 on the minus branch happens exactly where tau3 vanishes
    x = kt.x_parameter(kt.GhzwParams(q=QSTAR, sign=-1))
    assert abs(x**3 - 4.0) < 1e-12
    assert kt.x_parameter(kt.GhzwParams(q=0.5, sign=1)) < 0.0
    with pytest.raises(ValueError):
        kt.x_parameter(kt.GhzwParams(q=1.0, sign=1))


def test_single_form_at_degenerate_point():
    res = kt.ghzw_canonical_params(kt.GhzwParams(q=QSTAR, sign=-1))
    assert len(res.forms) == 1
    near = kt.ghzw_canonical_params(kt.GhzwParams(q=0.62685, sign=-1))
    assert len(near.forms) == 2


def test_degenerate_point_rotation_ratio():
    # both rotation roots coincide at x^3 = 4, where alpha/beta = 2^(1/3)
    res = kt.ghzw_canonical_params(kt.GhzwParams(q=QSTAR, sign=-1))
    ua = res.unitaries[0][0].matrix
    ratio = abs(ua[0, 0]) / abs(ua[0, 1])
    target = 2.0 ** (1.0 / 3.0)
    assert abs(ratio - target) < 1e-6


def test_endpoint_forms_are_exact():
    ghz_res = kt.ghzw_canonical_params(kt.GhzwParams(q=1.0, sign=1))
    assert ghz_res.residual == 0.0
    assert abs(ghz_res.forms[0].a - 1 / math.sqrt(2)) < 1e-15
    for sign in (1, -1):
        w_res = kt.ghzw_canonical_params(kt.GhzwParams(q=0.0, sign=sign))
        form = w_res.forms[0]
        r = 1 / math.sqrt(3)
        assert abs(form.a - r) < 1e-15 and abs(form.c - r) < 1e-15
        # the returned unitaries must actually produce the form
        psi = kt.build_ghzw(kt.GhzwParams(q=0.0, sign=sign))
        for u in w_res.unitaries[0]:
            psi = kt.apply_local_unitary(psi, u)
        target = kt.build_canonical_state(form).amplitudes
        assert np.abs(psi.amplitudes - target).max() < 1e-12


def test_root_check_passes_across_grid():
    # minus branch beyond the degenerate point has real roots; the reducer's
    # rotations must land on them (raises on mismatch)
    for q in np.linspace(0.65, 0.95, 13):
        kt.ghzw_canonical_params(kt.GhzwParams(q=float(q), sign=-1))
    for q in np.linspace(0.05, 0.95, 13):
        kt.ghzw_canonical_params(kt.GhzwParams(q=float(q), sign=1))


# q where the root check divided by an underflowed x^3 (q up to about
# 1.1e-216), met a 4/x^3 overflowed to -inf on the plus branch (up to about
# 4.8e-206), or placed the plus branch's merged form, whose two roots have
# opposite signs, below the smaller |root| (about 6.8e-25 to 3.0e-24)
TINY_Q = [5e-324, 1e-300, 1e-250, 1.1e-216, 1.25e-216, 1e-210, 5e-208, 4.8e-206, 6.8e-25, 1e-24, 3e-24]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("q", TINY_Q)
def test_root_check_passes_at_tiny_q(q, sign):
    res = kt.ghzw_canonical_params(kt.GhzwParams(q=q, sign=sign))
    assert res.residual < 1e-8


@pytest.mark.parametrize("x", [-1e-300, -1e-100, -1e-12, -0.5, -3.0, 1.6, 2.0, 1e8])
def test_closed_form_roots_solve_the_ratio_quadratic(x):
    # the check's roots are those of r^2 - x^2 r + x = 0: every ratio
    # between them passes a single form when x < 0, down to 0 (opposite
    # signs), and only a ratio near one of them when there are two forms
    params = kt.GhzwParams(q=0.8, sign=-1)
    res = kt.ghzw_canonical_params(params)
    disc = x**4 - 4.0 * x
    big = (x * x + math.sqrt(disc)) / 2.0
    assert abs(big * big - x * x * big + x) <= 1e-12 * max(1.0, big * big)

    def with_ratio(ratio, forms):
        ua = np.array([[ratio, 1.0], [-1.0, ratio]], dtype=complex) / math.hypot(ratio, 1.0)
        us = (dataclasses.replace(res.unitaries[0][0], matrix=ua),) + res.unitaries[0][1:]
        return dataclasses.replace(res, forms=res.forms[:forms], unitaries=(us,))

    for ratio in (abs(x) / big, big):
        _closed_form_root_check(with_ratio(ratio, 2), x)
    if x < 0.0:
        _closed_form_root_check(with_ratio(0.0, 1), x)
    with pytest.raises(kt.NumericalError, match="matches no closed-form root"):
        _closed_form_root_check(with_ratio(2.0 * big + 1.0, 1), x)


@pytest.mark.parametrize("q", [1e-30, 1e-24, 1e-12])
def test_root_check_rejects_ratio_zero_at_tiny_q(q):
    # the roots are about 3.5e-8, 1.1e-6 and 1.1e-3: a tolerance relative
    # to each root rejects the ratio 0 of two forms, which an absolute 1e-6
    # let through at q = 1e-30
    x = kt.x_parameter(kt.GhzwParams(q=q, sign=1))
    res = kt.ghzw_canonical_params(kt.GhzwParams(q=0.8, sign=-1))
    assert len(res.forms) == 2
    ua = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    us = (dataclasses.replace(res.unitaries[0][0], matrix=ua),) + res.unitaries[0][1:]
    with pytest.raises(kt.NumericalError, match="ratio 0.0 matches no closed-form root"):
        _closed_form_root_check(dataclasses.replace(res, unitaries=(us,)), x)


def test_sweep_rows_and_interior_positivity():
    rows = list(kt.sweep_family(-1, 0.0, 1.0, 51))
    assert len(rows) == 51
    assert abs(rows[0].q - 0.0) < 1e-15 and abs(rows[-1].q - 1.0) < 1e-15
    last = rows[-1]
    assert abs(last.n_global - 1.0) < 1e-9
    assert abs(last.e3 - 1.0) < 1e-9
    assert abs(last.tau3_formula - 1.0) < 1e-9
    # canonical-form e3 stays strictly positive on the interior, even at the
    # tangle zero: the 3-way negativity channel does not close there
    for row in rows[1:-1]:
        assert row.e3 > 1e-6
    # the closed-form route satisfies e3*ng = tau3 on both branches (the
    # identity 4 a^2 f^2 = tau3 holds for every canonical representative)
    for row in rows:
        assert abs(row.e3_times_ng - row.tau3_formula) < 1e-12
    plus = kt.sweep_family(1, 0.0, 1.0, 26)
    for row in plus:
        assert abs(row.e3_times_ng - row.tau3_formula) < 1e-12


def test_minus_branch_raw_delta_is_large():
    # documents that the raw family state is far from the real canonical
    # slice on the minus branch: delta dips below -0.5
    rows = kt.sweep_family(-1, 0.05, 0.95, 31)
    assert min(r.delta for r in rows) < -0.5


def test_sweep_validation():
    with pytest.raises(kt.ValidationError):
        kt.sweep_family(-1, 0.5, 0.4, 10)
    with pytest.raises(kt.ValidationError):
        kt.sweep_family(-1, 0.0, 1.0, 1)
    # the sign is checked at the call, not at the first row: the grid's
    # parameters are built unchecked
    for sign in (2, 0):
        with pytest.raises(kt.ValidationError, match="sign"):
            kt.sweep_family(sign, 0.0, 1.0, 11)
    with pytest.raises(TypeError):
        kt.sweep_family(-1, 0.0, 1.0, 11.0)
    with pytest.raises(kt.ValidationError):
        kt.GhzwParams(q=1.5, sign=1)
    with pytest.raises(kt.ValidationError):
        kt.GhzwParams(q=0.5, sign=2)


def _first_row_peak(steps):
    """tracemalloc peak, in bytes, up to the first row of a minus-branch sweep."""
    tracemalloc.start()
    try:
        next(kt.sweep_family(-1, 0.0, 1.0, steps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_grid_memory_does_not_grow_with_steps():
    # both grids evaluate one full stack before the first row; a grid built
    # whole up front would add 8 MB at 10**6 points
    _first_row_peak(3)  # first-call caches stay out of the peaks
    assert _first_row_peak(10**6) <= _first_row_peak(STACK_CHUNK) + 2**16


def test_sweep_grid_is_linspace_bit_for_bit():
    # the stacked sweep's rows carry these points (its q bits are compared
    # with the per-point loop's np.linspace below)
    rng = np.random.default_rng(4)
    grids = [(0.0, 5e-324, 3)]  # the step underflows to 0: numpy's denormal branch
    for steps in rng.integers(2, 6 * STACK_CHUNK, 40).tolist():
        grids.append((*sorted(rng.uniform(0.0, 1.0, 2).tolist()), steps))
    for lo, hi, steps in grids:
        stacks = [_grid(lo, hi, steps, i, min(i + STACK_CHUNK, steps))
                  for i in range(0, steps, STACK_CHUNK)]
        got = np.concatenate(stacks).tolist()
        want = np.linspace(lo, hi, steps).tolist()
        assert [q.hex() for q in got] == [q.hex() for q in want], (lo, hi, steps)


def _bits(rows):
    # every SweepRow field as its exact bit pattern (-0.0 and NaN included)
    return [tuple(float(v).hex() for v in dataclasses.astuple(r)) for r in rows]


def _assert_same_bits(sign, q_start, q_end, steps):
    got = list(kt.sweep_family(sign, q_start, q_end, steps))
    want = sequential_sweep(sign, q_start, q_end, steps)
    assert len(got) == steps
    for i, (g, w) in enumerate(zip(_bits(got), _bits(want))):
        assert g == w, (sign, q_start, q_end, steps, i)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "grid",
    [
        (0.0, 1.0, 201),
        (0.0, 1.0, 101),
        (0.626851014851, 0.7, 3),
        (0.3, 0.31, 2),
        (0.0, 1.0, 2 * STACK_CHUNK + 88),  # three stacks, the last one partial
    ],
)
def test_stacked_sweep_matches_the_per_point_loop(sign, grid):
    _assert_same_bits(sign, *grid)


def test_stacked_sweep_matches_the_per_point_loop_on_random_grids():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
        _assert_same_bits(int(rng.choice([1, -1])), lo, hi, 41)


def test_family_stack_matches_the_scalar_amplitudes():
    qs = np.linspace(0.0, 1.0, 37)
    for sign in (1, -1):
        stack = _ghzw_amplitudes(qs, sign)
        for q, row in zip(qs.tolist(), stack):
            v = np.zeros(8, dtype=complex)
            v[0] = v[7] = math.sqrt(q / 2.0)
            v[4] = v[2] = v[1] = sign * math.sqrt((1.0 - q) / 3.0)
            assert row.tobytes() == v.tobytes()
            psi = kt.build_ghzw(kt.GhzwParams(q=q, sign=sign))
            assert psi.amplitudes.tobytes() == v.tobytes()
