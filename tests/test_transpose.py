import numpy as np
import pytest
from hypothesis import given, strategies as st

import ktangle as kt

from conftest import (
    L3,
    L4,
    differing_count,
    flat_index,
    mixed_state,
    multi_index,
    real_pure,
    uncached_kway_pt,
    uncached_pair_pt,
)


@given(st.integers(0, 2**32 - 1))
def test_global_pt_matches_elementwise_definition(seed):
    rng = np.random.default_rng(seed)
    rho = mixed_state(L3, rng, real=False)
    pt = kt.global_pt(rho, 1)
    for r in range(8):
        mr = list(multi_index(r, L3))
        for c in range(8):
            mc = list(multi_index(c, L3))
            mr2, mc2 = mr.copy(), mc.copy()
            mr2[1], mc2[1] = mc[1], mr[1]
            expect = rho.matrix[flat_index(tuple(mr2), L3), flat_index(tuple(mc2), L3)]
            assert pt[r, c] == expect
    assert np.abs(pt - pt.conj().T).max() < 1e-14


def test_label_tables_are_lean_and_cached():
    from ktangle.transpose import _label_tables

    layout = kt.SubsystemLayout((2, 3, 2))
    dg, diff = _label_tables(layout.dims)
    assert diff.dtype == np.uint8 and not diff.flags.writeable and not dg.flags.writeable
    assert _label_tables(layout.dims)[1] is diff
    for r in range(layout.total_dim):
        assert list(dg[r]) == list(multi_index(r, layout))
        for c in range(layout.total_dim):
            assert diff[r, c] == differing_count(r, c, layout)


@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2)]
)
def test_focus_swap_matches_the_address_route(dims):
    # a stack of several complex states and a single one: every K-way
    # transpose, and for three subsystems every pair-restricted one, bit for
    # bit the gather through flat addresses
    from ktangle.transpose import _kway_pt, _pair_pt

    layout = kt.SubsystemLayout(dims)
    rng = np.random.default_rng(len(dims))
    M = np.stack([mixed_state(layout, rng).matrix for _ in range(3)])
    for p in range(len(dims)):
        for K in range(2, len(dims) + 1):
            assert np.array_equal(_kway_pt(M, dims, K, p), uncached_kway_pt(M, dims, K, p))
            assert np.array_equal(_kway_pt(M[0], dims, K, p), uncached_kway_pt(M[0], dims, K, p))
        for partner in range(len(dims)) if len(dims) == 3 else ():
            if partner != p:
                got = _pair_pt(M, dims, p, partner)
                assert np.array_equal(got, uncached_pair_pt(M, dims, p, partner))


def test_differing_count():
    assert differing_count(5, 5, L3) == 0
    assert differing_count(3, 5, L3) == 2  # 011 vs 101
    assert differing_count(0, 7, L3) == 3
    with pytest.raises(IndexError):
        differing_count(0, 8, L3)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_kway_decomposition_real_three_qubits(seed, pure):
    # transpose-by-disagreement splits the full transpose, checked elementwise
    rng = np.random.default_rng(seed)
    if pure:
        rho = kt.outer(real_pure(L3, rng))
    else:
        rho = mixed_state(L3, rng, real=True)
    total = kt.kway_pt(rho, 2, 0) + kt.kway_pt(rho, 3, 0) - rho.matrix
    assert np.abs(total - kt.global_pt(rho, 0)).max() < 1e-14


@given(st.integers(0, 2**32 - 1))
def test_kway_decomposition_real_four_qubits(seed):
    rng = np.random.default_rng(seed)
    rho = kt.outer(real_pure(L4, rng))
    total = sum(kt.kway_pt(rho, k, 1) for k in (2, 3, 4)) - 2.0 * rho.matrix
    assert np.abs(total - kt.global_pt(rho, 1)).max() < 1e-14


def test_kway_decomposition_fails_for_complex_states():
    # the split above needs a real representation; a generic complex state
    # breaks it by a visible margin, which is why the real restriction exists
    psi = kt.haar_random_pure(L3, 11)
    rho = kt.outer(psi)
    total = kt.kway_pt(rho, 2, 0) + kt.kway_pt(rho, 3, 0) - rho.matrix
    assert np.abs(total - kt.global_pt(rho, 0)).max() > 0.01


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_pair_identity_holds_for_any_state(seed, p):
    # the two-way transpose always splits over partners, complex included
    rng = np.random.default_rng(seed)
    rho = mixed_state(L3, rng, real=False)
    partners = [q for q in range(3) if q != p]
    total = sum(kt.pair_pt(rho, p, q) for q in partners) - rho.matrix
    assert np.abs(total - kt.kway_pt(rho, 2, p)).max() < 1e-14


def test_kway_pt_argument_errors():
    rho = mixed_state(L3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 1, 0)
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 4, 0)
    with pytest.raises(ValueError):
        kt.kway_pt(rho, 2, 3)
    # a negative focus must not index from the end
    for p in (-1, 3):
        with pytest.raises(ValueError, match=f"focus {p} out of range"):
            kt.global_pt(rho, p)
        with pytest.raises(ValueError, match=f"focus {p} out of range"):
            kt.kway_pt(rho, 2, p)


def test_pair_pt_argument_errors():
    rho = mixed_state(L3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kt.pair_pt(rho, 0, 0)
    with pytest.raises(ValueError):
        kt.pair_pt(mixed_state(L4, np.random.default_rng(0)), 0, 1)
    with pytest.raises(ValueError, match="out of range"):
        kt.pair_pt(rho, 0, 3)


def assert_hermitian_table(dims, p, kind):
    """Assert that the transpose of the given kind (global None, K-way K,
    pair (2, partner)) maps every Hermitian matrix to a Hermitian one.

    The transpose of two label probes, rows[r, c] = r and cols[r, c] = c,
    gives the source (rows[r, c], cols[r, c]) of output entry (r, c).  The
    output is Hermitian for every Hermitian input exactly when the entry at
    (c, r) comes from the transposed source, rows.T == cols.  The probes
    take the smallest unsigned type that holds a label.
    """
    from ktangle import transpose

    def pt(M):
        if kind is None:
            return transpose._global_pt(M, dims, p)
        if isinstance(kind, tuple):
            return transpose._pair_pt(M, dims, p, kind[1])
        return transpose._kway_pt(M, dims, kind, p)

    D = int(np.prod(dims))
    label = np.arange(D, dtype=np.min_scalar_type(D - 1))
    rows = pt(np.broadcast_to(label[:, None], (D, D)))
    cols = pt(np.broadcast_to(label, (D, D)))
    table = f"table (dims {dims}, focus {p}, kind {kind})"
    assert np.array_equal(rows.T, cols), f"{table} breaks hermiticity"


# every layout with a qudit that the suite transposes
QUDIT_LAYOUTS = [(2, 3), (3, 2), (4, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 2, 2, 2),
                 (3, 2, 2, 2, 2), (3,) * 5]


def check_every_table():
    """assert_hermitian_table on the qubit layouts of 1 to 9 qubits and the
    qudit layouts, at every focus: the global kind, each K and, at three
    subsystems, each pair kind."""
    for dims in [(2,) * n for n in range(1, 10)] + QUDIT_LAYOUTS:
        n = len(dims)
        for p in range(n):
            kinds = [None, *range(2, n + 1)]
            kinds += [(2, q) for q in range(n) if q != p] if n == 3 else []
            for kind in kinds:
                assert_hermitian_table(dims, p, kind)


def test_every_table_maps_hermitian_to_hermitian():
    check_every_table()


def _patch_l3_tables(monkeypatch, tables):
    # the seeded tables stand in for the three-qubit ones only
    from ktangle import transpose

    def seeded(dims, real=transpose._label_tables):
        return tables if dims == L3.dims else real(dims)

    monkeypatch.setattr(transpose, "_label_tables", seeded)


def _flipped_diff(dims, p, K, focus_differs):
    # label tables whose diff has one entry (r, c) of count 2 set to K, where
    # the focus labels of r and c differ (or agree); (c, r) keeps its count
    from ktangle.transpose import _label_tables

    dg, diff = _label_tables(dims)
    rows, cols = np.nonzero((diff == 2) & ((dg[:, None, p] != dg[None, :, p]) == focus_differs))
    r, c = rows[0], cols[0]
    bad = diff.copy()
    bad[r, c] = K
    return (dg, bad), (r, c)


@pytest.mark.parametrize("K", [0, 3])
def test_seeded_table_bug_fails_when_the_table_is_built(monkeypatch, K):
    # the flipped entry leaves the 2-way mask (K = 0: it drops out) or the
    # 3-way mask (K = 3: it comes in) asymmetric; for K = 0 also the pair
    # mask of the partner whose label differs there
    tables, (r, c) = _flipped_diff(L3.dims, 0, K, focus_differs=True)
    _patch_l3_tables(monkeypatch, tables)
    with pytest.raises(AssertionError, match="breaks hermiticity"):
        check_every_table()
    with pytest.raises(AssertionError, match="breaks hermiticity"):
        assert_hermitian_table(L3.dims, 0, K or 2)
    if K == 0:
        dg = tables[0]
        partner = next(m for m in (1, 2) if dg[r, m] != dg[c, m])
        with pytest.raises(AssertionError, match="breaks hermiticity"):
            assert_hermitian_table(L3.dims, 0, (2, partner))


def test_flip_where_the_focus_labels_agree_is_harmless(monkeypatch):
    # the swap of focus 0 fixes such an entry, so every table of focus 0
    # still maps Hermitian to Hermitian, and the transpose is unchanged bit
    # for bit
    from ktangle import transpose

    M = mixed_state(L3, np.random.default_rng(5)).matrix
    want = transpose._kway_pt(M, L3.dims, 2, 0)
    tables, _ = _flipped_diff(L3.dims, 0, 0, focus_differs=False)
    _patch_l3_tables(monkeypatch, tables)
    for kind in (None, 2, 3, (2, 1), (2, 2)):
        assert_hermitian_table(L3.dims, 0, kind)
    assert np.array_equal(transpose._kway_pt(M, L3.dims, 2, 0), want)


def test_swap_of_the_wrong_axes_fails_when_the_table_is_built(monkeypatch):
    from ktangle import transpose

    def wrong_swap(M, dims, p, mask):
        # the row label of p exchanged with the column label of the next subsystem
        n, lead = len(dims), M.shape[:-2]
        t = M.reshape(lead + dims + dims)
        return np.swapaxes(t, len(lead) + p, len(lead) + n + (p + 1) % n).reshape(M.shape)

    monkeypatch.setattr(transpose, "_swap", wrong_swap)
    with pytest.raises(AssertionError, match="breaks hermiticity"):
        check_every_table()
    with pytest.raises(AssertionError, match="breaks hermiticity"):
        assert_hermitian_table(L3.dims, 1, None)


def test_public_transposes_keep_a_defect_within_the_bound():
    # a DensityOperator keeps a matrix within TRANSPOSE_HERM_EPS bit for bit;
    # each output entry is an input entry, so the output defect is no larger
    from ktangle.config import TRANSPOSE_HERM_EPS

    m = mixed_state(L3, np.random.default_rng(9)).matrix.copy()
    m[1, 6] = m[6, 1].conjugate() + 1e-14
    defect = np.abs(m - m.conj().T).max()
    assert 0.5e-14 < defect <= TRANSPOSE_HERM_EPS
    rho = kt.DensityOperator(L3, m)
    assert np.array_equal(rho.matrix, m)
    for pt in (kt.global_pt(rho, 1), kt.kway_pt(rho, 2, 1), kt.kway_pt(rho, 3, 1),
               kt.pair_pt(rho, 1, 0), kt.pair_pt(rho, 1, 2)):
        assert 0.0 < np.abs(pt - pt.conj().T).max() <= TRANSPOSE_HERM_EPS


@pytest.mark.parametrize("entry", [1e-12, np.nan])
def test_public_transposes_check_a_reassigned_matrix(entry):
    # DensityOperator is mutable: a matrix set after construction is checked
    # when it is transposed, NaN included
    rho = mixed_state(L3, np.random.default_rng(10))
    m = rho.matrix.copy()
    m[2, 5] += entry
    rho.matrix = m
    for transpose in (lambda: kt.global_pt(rho, 0), lambda: kt.kway_pt(rho, 2, 0),
                      lambda: kt.pair_pt(rho, 0, 2)):
        with pytest.raises(kt.ValidationError, match="hermiticity defect"):
            transpose()
