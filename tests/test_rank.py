"""Rank queries against an independent numpy oracle, plus the exact backend.

The oracle interleaves real/imaginary parts itself and calls
np.linalg.matrix_rank, so it shares no code with the implementation.
"""

import functools
import hashlib
import json
import math
import types
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luorbit import (
    ColumnSelector,
    EXACT,
    FLOAT,
    LocalUnitary,
    SelectorFamily,
    StateVector,
    apply_local,
    basis_state,
    canonical_pair_state,
    complement_dim,
    embed_product,
    orbit_report,
    random_rational_state,
    random_state,
    real_rank,
    real_ranks,
    singlet_product,
    span_dim,
    span_dims,
    tangent_matrix,
)
import luorbit.lie_action as lie_action
import luorbit.rank as rank_mod
from luorbit.rank import (
    DEFAULT_TOL,
    GAP_WARNING_THRESHOLD,
    RankResult,
    _complement_coeffs,
    _float_rank,
    _gap_ratio,
    retained_rank,
)
from luorbit.tolerance import INNER_PRODUCT_ATOL, PRODUCT_RESIDUAL, ROUNDING_FLOOR
from luorbit.verify import (
    _mixed_pool,
    _pair_product,
    _partial_pair_state,
    _random_pair_positions,
    _random_pairing,
    _scramble,
    _scrambled_singlet_product,
    _unentangled_product,
    _with_rest,
    verify_proposition,
)


_EPS = float(np.finfo(np.float64).eps)


def oracle_rank(psi: StateVector, indices=None) -> int:
    """Independent rank: manual interleave + np.linalg.matrix_rank."""
    tm = tangent_matrix(psi.to_float())
    if indices is None:
        indices = range(tm.column_count)
    cols = np.stack([tm.column(j) for j in indices], axis=1)
    view = np.empty((2 * cols.shape[0], cols.shape[1]))
    view[0::2] = cols.real
    view[1::2] = cols.imag
    return int(np.linalg.matrix_rank(view, tol=1e-10))


def ghz(n=3, mode="float"):
    amps = [0] * (1 << n)
    amps[0] = amps[-1] = 1
    if mode == EXACT:
        return StateVector.from_rational(amps)
    return StateVector([float(a) for a in amps])


# ---------------------------------------------------------------------------
# frozen full ranks
# ---------------------------------------------------------------------------


def test_frozen_full_ranks():
    # rank = orbit dimension + 1 (the last column closes the group direction)
    assert real_rank(tangent_matrix(basis_state(1, 0))).rank == 3
    assert real_rank(tangent_matrix(canonical_pair_state())).rank == 4
    assert real_rank(tangent_matrix(basis_state(2, 0))).rank == 5
    assert real_rank(tangent_matrix(basis_state(3, 0))).rank == 7
    assert real_rank(tangent_matrix(ghz())).rank == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_rank_matches_oracle_on_random_states(n):
    psi = random_state(n, 200 + n)
    assert real_rank(tangent_matrix(psi)).rank == oracle_rank(psi)


def test_selected_ranks_match_oracle():
    psi = random_state(3, 210)
    tm = tangent_matrix(psi)
    for sel in [
        ColumnSelector((1,)),
        ColumnSelector((1, 3)),
        ColumnSelector((2,), include_last=True),
        ColumnSelector((1, 2, 3), include_last=True),
    ]:
        got = real_rank(tm, sel).rank
        assert got == oracle_rank(psi, sel.column_indices(3))


# ---------------------------------------------------------------------------
# span dimensions
# ---------------------------------------------------------------------------


def test_pair_state_pair_span_is_3():
    tm = tangent_matrix(canonical_pair_state())
    assert span_dim(tm, (1, 2)) == 3


def test_unentangled_pair_span_is_5():
    tm = tangent_matrix(basis_state(2, 0))
    assert span_dim(tm, (1, 2)) == 5


def test_generic_pair_span_is_6():
    tm = tangent_matrix(random_state(3, 220))
    assert span_dim(tm, (1, 2)) == 6


def test_single_triple_always_spans_3():
    for psi in [basis_state(3, 5), random_state(3, 221), ghz()]:
        tm = tangent_matrix(psi)
        for k in (1, 2, 3):
            assert span_dim(tm, (k,)) == 3


def test_span_monotone_and_subadditive():
    tm = tangent_matrix(random_state(4, 222))
    for a, b in [((1,), (2,)), ((1, 2), (3,)), ((1,), (2, 3, 4))]:
        sa, sb = span_dim(tm, a), span_dim(tm, b)
        su = span_dim(tm, a + b)
        assert su >= max(sa, sb)
        assert su <= sa + sb


def test_selector_validation():
    tm = tangent_matrix(random_state(2, 223))
    with pytest.raises(ValueError):
        real_rank(tm, ColumnSelector(()))
    with pytest.raises(ValueError):
        span_dim(tm, (0,))
    with pytest.raises(ValueError):
        span_dim(tm, (3,))
    assert ColumnSelector((2, 1)).column_indices(2) == ColumnSelector((1, 2)).column_indices(2)
    assert ColumnSelector((1,), include_last=True).column_indices(2) == (0, 1, 2, 6)
    # Python and numpy ints are accepted as they are; nothing is truncated
    assert ColumnSelector((np.int64(2), 1, np.intp(3))).triples == {1, 2, 3}
    for triple in (1.5, np.float64(2.0), "1"):
        with pytest.raises(TypeError):
            ColumnSelector((triple,))


def test_selector_mask_and_width():
    # bit k for triple k and bit 0 for the last column; neither enters equality
    sel = ColumnSelector((3, 1), include_last=True)
    assert (sel.mask, sel.width) == (0b1011, 7)
    assert (ColumnSelector((2,)).mask, ColumnSelector((2,)).width) == (0b100, 3)
    assert sel == ColumnSelector((1, 3), True) and hash(sel) == hash(ColumnSelector((1, 3), True))
    assert not ColumnSelector((1,)).mask & ~sel.mask and ColumnSelector((2,)).mask & ~sel.mask


# ---------------------------------------------------------------------------
# the exact backend
# ---------------------------------------------------------------------------


def test_exact_matches_float_on_rational_states():
    for seed in range(6):
        psi = random_rational_state(3, seed)
        te, tf = tangent_matrix(psi), tangent_matrix(psi.to_float())
        assert real_rank(te).rank == real_rank(tf).rank
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert span_dim(te, pair) == span_dim(tf, pair)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=5, max_value=6), st.integers(0, 10**6), st.booleans())
def test_exact_matches_float_beyond_criterion_4(n, seed, pair_product):
    rng = np.random.default_rng(seed)
    if pair_product:
        psi = _pair_product(n, rng, *_random_pair_positions(n, rng), mode=EXACT)
    else:
        psi = random_rational_state(n, rng)
    flt = psi.to_float()
    ex, fl = orbit_report(psi), orbit_report(flt)
    assert (ex.rank, ex.pair_span, ex.lone_span) == (fl.rank, fl.pair_span, fl.lone_span)
    assert ex.pairing == fl.pairing
    te, tf = tangent_matrix(psi), tangent_matrix(flt)
    for inside in range(1, n + 1):
        against = ColumnSelector((k for k in range(1, n + 1) if k != inside), include_last=True)
        assert complement_dim(te, inside, against) == complement_dim(tf, inside, against)


def test_exact_rank_is_scale_invariant():
    psi = singlet_product(4, [(1, 2), (3, 4)], mode=EXACT)
    scaled = StateVector.from_rational([(re * 7, im * 7) for re, im in psi.vector])
    assert real_rank(tangent_matrix(psi)).rank == real_rank(tangent_matrix(scaled)).rank


def test_float_rank_is_phase_invariant():
    psi = random_state(3, 230)
    rotated = StateVector(np.exp(1.3j) * psi.vector)
    assert real_rank(tangent_matrix(psi)).rank == real_rank(tangent_matrix(rotated)).rank


def test_exact_backend_reports_no_gap():
    result = real_rank(tangent_matrix(ghz(mode=EXACT)))
    assert result.backend == EXACT
    assert result.rank == 8
    assert math.isinf(result.gap_ratio)
    assert result.singular_values is None


def test_exact_backend_on_frozen_table():
    table = [
        (basis_state(1, 0, mode=EXACT), 3),
        (canonical_pair_state(mode=EXACT), 4),
        (basis_state(2, 0, mode=EXACT), 5),
        (basis_state(3, 0, mode=EXACT), 7),
        (ghz(mode=EXACT), 8),
    ]
    for psi, want in table:
        assert real_rank(tangent_matrix(psi)).rank == want


# ---------------------------------------------------------------------------
# tolerance semantics
# ---------------------------------------------------------------------------


def test_retained_rank_is_strict():
    s = np.array([1.0, 1e-10, 1e-22])
    # values at exactly tol * s_max are discarded, not kept
    assert retained_rank(s, 1e-10) == 1
    assert retained_rank(s, 9.9e-11) == 2
    assert retained_rank(np.array([0.0, 0.0]), 1e-10) == 0


def test_gap_ratio_semantics():
    psi = random_state(2, 240)
    result = real_rank(tangent_matrix(psi))
    # a healthy random instance has a huge gap between kept and discarded
    assert result.gap_ratio > 1e6
    tiny = real_rank(tangent_matrix(basis_state(1, 0)))
    assert tiny.rank == 3
    assert math.isinf(tiny.gap_ratio) or tiny.gap_ratio > 1e6
    assert not result.ill_conditioned


def test_gap_ratio_is_inf_only_under_the_rounding_floor():
    floor, m = ROUNDING_FLOOR, GAP_WARNING_THRESHOLD
    # a dropped value under the floor is indistinguishable from zero
    for kept in (1e-3, 1e-9):
        for dropped in (0.0, 1e-16, 0.99 * floor):
            assert math.isinf(_gap_ratio([1.0, kept, dropped], 2)), (kept, dropped)
    # one above it is not, and neither is one whose ratio flags the verdict
    assert _gap_ratio([1.0, 1e-3, 1.01 * floor], 2) == 1e-3 / (1.01 * floor)
    kept = 0.5 * m * floor
    assert _gap_ratio([1.0, kept, 0.99 * floor], 2) == kept / (0.99 * floor) < m
    assert _gap_ratio([1.0, 0.5], 2) == math.inf and _gap_ratio([1.0, 0.5], 0) == 0.0


def test_certified_rank_reads_no_value_past_equal_ones():
    # at tol = 1 / M the kept side's margin is the largest value itself: equal
    # values (a lone triple's, to rounding) fail it, and certify nothing
    tol = 1 / GAP_WARNING_THRESHOLD
    # for the last four, M * tol * v and M * (tol * v) round apart
    values = (1.0, np.nextafter(1.0, 0.0), 1 - 5 * _EPS / 2, 0.12499464239080965, 3.908203055550574)
    for value in values:
        for count in range(1, 5):
            _, certified = rank_mod._certified_ranks(np.full((1, count), value), tol)
            assert not certified.any(), (value, count)


def test_tol_override_changes_verdict():
    tm = tangent_matrix(random_state(2, 241))
    # absurdly large tolerance collapses everything but the top direction
    assert real_rank(tm, tol=0.99).rank < real_rank(tm).rank


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-300, 1e-16, 1.0, 2.0, math.nan, math.inf])
def test_degenerate_tol_is_rejected(tol):
    # below eps the cutoff sits under rounding noise; at 1 it drops everything
    tm = tangent_matrix(random_state(3, 242))
    with pytest.raises(ValueError, match="tol"):
        real_rank(tm, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        complement_dim(tm, 1, ColumnSelector((2,)), tol=tol)
    assert tm.ranks == {}


def test_tol_range_ends():
    tm = tangent_matrix(random_state(3, 243))
    eps = float(np.finfo(np.float64).eps)
    assert real_rank(tm, tol=eps).rank == 10
    assert real_rank(tm, tol=np.nextafter(1.0, 0.0)).rank >= 1


# ---------------------------------------------------------------------------
# the one-QR-per-state floating route against direct slices of the real view
# ---------------------------------------------------------------------------


def _near_pair_state(n: int, rng, eps: float) -> StateVector:
    """cos(t)|00> + sin(t)|11> at t = pi/4 - eps on two random qubits, Haar elsewhere, scrambled."""
    theta = math.pi / 4 - eps
    l, lp = _random_pair_positions(n, rng)
    chi = StateVector([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    rest = tuple(q for q in range(1, n + 1) if q not in (l, lp))
    placements = [((l, lp), chi)]
    if rest:
        placements.append((rest, random_state(len(rest), rng)))
    return _scramble(embed_product(n, placements), rng)


def _route_state(kind: str, n: int, seed: int, eps: float) -> StateVector:
    rng = np.random.default_rng(seed)
    if kind == "singlets":
        return _scrambled_singlet_product(n, rng)
    if kind == "near_pair" and n >= 2:
        return _near_pair_state(n, rng, eps)
    if kind == "unentangled":
        k = int(rng.integers(1, n + 1))
        positions = sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
        return _scramble(_unentangled_product(n, rng, positions), rng)
    if kind == "basis":
        return basis_state(n, int(rng.integers(1 << n)))
    if kind == "rational":
        return random_rational_state(n, rng).to_float()
    if kind in _SPARSE:
        return _SPARSE[kind](n, rng)
    return random_state(n, rng)


def _canonical_product(n: int, rng) -> StateVector:
    """Canonical pairs on a random pairing, a Haar qubit on the lone one: ``factor_state``'s input."""
    order = [int(q) + 1 for q in rng.permutation(n)]
    placements = [(tuple(order[i : i + 2]), canonical_pair_state()) for i in range(0, n - 1, 2)]
    if n % 2:
        placements.append(((order[-1],), random_state(1, rng)))
    return embed_product(n, placements)


def _one_zero(n: int, rng) -> StateVector:
    """A Haar state with one amplitude set to zero: every code but that one is live."""
    vec = random_state(n, rng).vector.copy()
    vec[rng.integers(1 << n)] = 0
    return StateVector(vec)


#: States with zero amplitudes, whose R is factored from their live rows alone.
_SPARSE = {
    "canonical": _canonical_product,
    "ghz": lambda n, rng: StateVector(np.eye(1, 1 << n, 0) + np.eye(1, 1 << n, (1 << n) - 1)),
    "w": lambda n, rng: StateVector(sum(np.eye(1, 1 << n, 1 << k) for k in range(n))),
    "one_zero": _one_zero,
}


def _every_selector(n: int) -> list:
    """What ranktripluinv asks for; orbit_report's full, pair and lone selectors are among them."""
    return [
        ColumnSelector(subset, include_last)
        for size in range(1, n + 1)
        for subset in combinations(range(1, n + 1), size)
        for include_last in (False, True)
    ]


#: Row blocks that make R streamed from several blocks at n = 4..10: under
#: the width, a few rows over it, and several times it.
_SMALL_BLOCKS = [8, 32, 256]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["haar", "singlets", "near_pair", "basis", "rational"]),
    st.integers(0, 10**6),
    st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    st.sampled_from(_SMALL_BLOCKS + [lie_action._BLOCK_ROWS]),
    # 1e-3 is 1 / M: a triple's equal singular values sit at the kept side's margin
    st.sampled_from([DEFAULT_TOL, 1e-6, 1e-3]),
)
def test_float_route_matches_direct_slices(n, kind, seed, eps, block_rows, tol):
    # Every reported verdict against an SVD of the selection's real-view
    # columns: equal ranks, and equal gap ratios once the rounding floor
    # applies to both sides.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie_action, "_BLOCK_ROWS", block_rows)
        tm = tangent_matrix(_route_state(kind, n, seed, eps))
        real = tm.columns(range(tm.column_count))
        for sel in _every_selector(n):
            got = real_rank(tm, sel, tol)
            want = _float_rank(real[:, list(sel.column_indices(n))], tol)
            assert (got.rank, got.gap_ratio) == (want.rank, want.gap_ratio), sel
        # R's singular values are the real view's to within the floor
        full = np.array(real_rank(tm).singular_values)
        direct = np.linalg.svd(real, compute_uv=False)
        assert np.abs(full - direct).max() <= ROUNDING_FLOOR * direct[0]


def _report_selectors(n: int) -> list:
    """orbit_report's: the full selection, every pair, every triple with the last column."""
    return (
        [ColumnSelector.full(n)]
        + [ColumnSelector(p) for p in combinations(range(1, n + 1), 2)]
        + [ColumnSelector((j,), include_last=True) for j in range(1, n + 1)]
    )


def _reference_real(psi: StateVector, amps=None) -> np.ndarray:
    """The real view from numpy's complex products on the amplitude tensor, interleaved here.

    ``amps`` defaults to psi's amplitudes.
    """
    n = psi.n
    amps = (psi.vector if amps is None else amps).reshape((2,) * n)
    cols = []
    for k in range(n):
        signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * (n - 1 - k))
        cols += [1j * amps * signs, np.flip(amps, k) * signs, 1j * np.flip(amps, k)]
    cols.append(-1j * amps)
    matrix = np.stack([c.reshape(-1) for c in cols], axis=1)
    view = np.empty((2 * matrix.shape[0], matrix.shape[1]))
    view[0::2], view[1::2] = matrix.real, matrix.imag
    return view


@pytest.mark.parametrize("n", range(1, 7))
def test_columns_match_the_reference_in_any_order(n):
    rng = np.random.default_rng(330 + n)
    width = 3 * n + 1
    orders = [rng.permutation(width), rng.integers(width, size=2 * width), [width - 1, 0, width - 1]]
    # one kind alone: every z column, every x column, the last column
    orders += [list(range(0, width - 1, 3)), list(range(2, width - 1, 3)), [width - 1]]
    for kind in ("haar", "singlets", "ghz", "one_zero"):
        psi = _route_state(kind, n, 330 + n, 0.0)
        tm, reference = tangent_matrix(psi), _reference_real(psi)
        for cols in orders:
            # bytes, so that signed zeros count
            assert tm.columns(cols).tobytes() == reference[:, cols].tobytes(), (kind, list(cols))
    # exact columns are Python ints, scale times the true entries
    psi = random_rational_state(n, rng)
    parts = np.array(psi.parts.tolist(), dtype=np.float64)
    assert np.abs(parts).max() < 2**53  # so the float reference below is exact
    reference = _reference_real(psi, parts[..., 0] + 1j * parts[..., 1])
    for cols in orders:
        got = tangent_matrix(psi).columns(cols)
        assert all(type(x) is int for x in got.flat)
        assert np.array_equal(got.astype(np.float64), reference[:, cols]), list(cols)


def test_columns_write_only_the_asked_triples(monkeypatch):
    # each block holds the asked qubits' triples, and the last column only when asked
    tm = tangent_matrix(random_state(5, 335))
    heights = []
    write = lie_action._write_rows
    monkeypatch.setattr(
        lie_action, "_write_rows", lambda *args: heights.append(len(args[2])) or write(*args)
    )
    for cols, height in [((3, 4, 5), 3), ((4,), 3), ((15,), 1), ((0, 15, 13), 7), (range(16), 16)]:
        heights.clear()
        tm.columns(cols)
        assert heights and set(heights) == {height}, cols


def test_default_selection_is_built_once_per_n():
    a, b = tangent_matrix(random_state(4, 290)), tangent_matrix(random_state(4, 291))
    real_rank(a)
    real_rank(b)
    ((key_a, _),), ((key_b, _),) = a.ranks, b.ranks
    assert key_a is key_b is rank_mod._full_selector(4)
    assert key_a == ColumnSelector.full(4)


def _pin_streamed_r(mp) -> None:
    """Give every matrix ``streamed_r``'s R, products of one- and two-qubit factors too, and read every verdict from it.

    No row sample is taken, so no verdict is certified without R.
    """
    mp.setattr(lie_action, "_product_r", lambda tm: None)
    mp.setattr(lie_action, "_sample_sigma", lambda parts: 0.0)


def _assert_streamed_r_matches_lapack_qr(tm, selectors, tols):
    """Verdicts and R's singular values against a twin built by LAPACK's QR of a reference view.

    The twin's R comes from ``_reference_real``, and the generated columns
    must equal that view bit for bit, so a fault in generating the real
    view's blocks shows too.
    """
    twin = tangent_matrix(tm.state)
    reference = _reference_real(tm.state)
    assert tm.columns(range(tm.column_count)).tobytes() == reference.tobytes()
    object.__setattr__(twin, "r_factor", np.linalg.qr(reference, mode="r"))
    for tol in tols:
        got, want = real_ranks(tm, selectors, tol), real_ranks(twin, selectors, tol)
        for sel, g, w in zip(selectors, got, want):
            assert (g.rank, g.gap_ratio) == (w.rank, w.gap_ratio), (sel, tol)
    s = np.linalg.svd(tm.r_factor, compute_uv=False)
    lapack = np.linalg.svd(twin.r_factor, compute_uv=False)
    assert np.abs(s - lapack).max() <= ROUNDING_FLOOR * lapack[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=10),
    st.sampled_from(["haar", "singlets", "near_pair", "basis", "rational", *_SPARSE]),
    st.integers(0, 10**6),
    st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    # 1e-6: between M**2 * eps and 1 / M the rounding floor, not the cutoff / M,
    # bounds the dropped side of a verdict read from R
    st.sampled_from([DEFAULT_TOL, 1e-6, 1e-2, 0.3, 2 * GAP_WARNING_THRESHOLD * _EPS, 1e-12, _EPS]),
    st.sampled_from(_SMALL_BLOCKS + [lie_action._BLOCK_ROWS]),
)
def test_streamed_r_matches_lapack_qr(n, kind, seed, eps, tol, block_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie_action, "_BLOCK_ROWS", block_rows)
        _pin_streamed_r(mp)
        tm = tangent_matrix(_route_state(kind, n, seed, eps))
        selectors = _every_selector(n) if n <= 7 else _report_selectors(n)
        _assert_streamed_r_matches_lapack_qr(tm, selectors, [tol])


#: sha256 of R's bytes on dense states: every amplitude nonzero, so every row
#: of the real view is factored, in the same blocks and the same order.
_FROZEN_DENSE_R = {
    ("haar", 12): "15ab671ae18c909e7155781fa97e1b5a5cbb8825cadbaf420b40f7a3799d345b",
    ("haar", 13): "cba6f91db0555c2ac988aee97d7e2bc2d09b7c56a53517a5724603ffdebe0226",
    ("singlets", 13): "aae77cfb11279084c90984d164a1a25524b3bd3f682870bef6bbadbc038ef913",
}


@pytest.mark.parametrize("kind, n", sorted(_FROZEN_DENSE_R))
def test_dense_r_bytes_are_frozen(kind, n):
    tm = tangent_matrix(_route_state(kind, n, 500 + n, 0.0))
    digest = hashlib.sha256(lie_action.streamed_r(tm).tobytes()).hexdigest()
    assert digest == _FROZEN_DENSE_R[kind, n]


@pytest.mark.parametrize("n", [11, 12, 13])
@pytest.mark.parametrize("kind", ["haar", "singlets", "near_pair", "basis", *_SPARSE])
def test_streamed_r_matches_lapack_qr_past_one_block(monkeypatch, n, kind):
    _pin_streamed_r(monkeypatch)
    tm = tangent_matrix(_route_state(kind, n, 300 + n, 1e-9))
    _assert_streamed_r_matches_lapack_qr(tm, _report_selectors(n), [DEFAULT_TOL, 1e-6, 1e-2])


@pytest.mark.parametrize("block_rows", _SMALL_BLOCKS + [lie_action._BLOCK_ROWS])
@pytest.mark.parametrize(
    "kind, n", [("basis", 4), ("basis", 9), ("ghz", 5), ("w", 6), ("one_zero", 8)]
    + [("canonical", n) for n in (4, 5, 9, 10)]
)
def test_streamed_r_reads_only_live_rows(monkeypatch, kind, n, block_rows):
    # R has the Gram of the whole real view, from the live codes' rows alone
    monkeypatch.setattr(lie_action, "_BLOCK_ROWS", block_rows)
    _pin_streamed_r(monkeypatch)
    psi = _route_state(kind, n, 320 + n, 0.0)
    tm = tangent_matrix(psi)
    real = _reference_real(psi)
    nonzero = np.flatnonzero(np.any(real != 0, axis=1).reshape(-1, 2).any(axis=1))
    live = lie_action.live_codes(psi.parts)
    assert set(nonzero) <= set(live)
    if kind == "basis":  # fewer live rows than columns
        assert 2 * live.size == 2 * n + 2 < tm.column_count
    written = []
    write = lie_action._write_rows
    monkeypatch.setattr(
        lie_action, "_write_rows", lambda *args: written.append(args[1].copy()) or write(*args)
    )
    r = tm.r_factor
    assert r.shape == (tm.column_count, tm.column_count)
    assert np.array_equal(np.triu(r), r)
    assert np.array_equal(np.concatenate(written), live)
    assert np.allclose(r.T @ r, real.T @ real, rtol=0, atol=64 * _EPS)


# ---------------------------------------------------------------------------
# R of a product of one- and two-qubit factors, built from its factors
# ---------------------------------------------------------------------------


def _planted_singlets(n: int, rng) -> tuple:
    """A scrambled singlet product and its planted pairs, each sorted."""
    pairs, lone = _random_pairing(n, rng)
    return _scramble(singlet_product(n, pairs, lone), rng), sorted(tuple(sorted(p)) for p in pairs)


def _pairs_of(n: int, rng, pair_state) -> StateVector:
    """``pair_state(rng)`` on each pair of a random pairing, a Haar qubit on the lone one."""
    pairs, lone = _random_pairing(n, rng)
    placements = [(pair, pair_state(rng)) for pair in pairs]
    if lone is not None:
        placements.append(((lone,), random_state(1, rng)))
    return embed_product(n, placements)


def _haar_pair(rng) -> StateVector:
    return random_state(2, rng)


def _haar_pairs(n: int, rng) -> StateVector:
    """Haar two-qubit states on a random pairing, a Haar qubit on the lone one, scrambled."""
    return _scramble(_pairs_of(n, rng, _haar_pair), rng)


#: Products of one- and two-qubit factors with every amplitude nonzero.
_PRODUCTS = {
    "singlets": lambda n, rng: _planted_singlets(n, rng)[0],
    "haar_pairs": _haar_pairs,
    "lone": lambda n, rng: _scramble(_unentangled_product(n, rng, range(1, n + 1)), rng),
}


def _spy_streamed_r(monkeypatch) -> list:
    """The matrices whose R is streamed from now on, in order."""
    streamed, stream = [], lie_action.streamed_r
    monkeypatch.setattr(lie_action, "streamed_r", lambda tm: streamed.append(tm) or stream(tm))
    return streamed


def _assert_r_route(monkeypatch, kind: str, n: int, product: bool) -> None:
    """R of a ``kind`` state is built from its factors when ``product``, else streamed."""
    rng = np.random.default_rng(600 + n)
    psi = _PRODUCTS[kind](n, rng) if kind in _PRODUCTS else _route_state(kind, n, 600 + n, 1e-9)
    tm = tangent_matrix(psi)
    streamed = _spy_streamed_r(monkeypatch)
    r = tm.r_factor
    assert streamed == ([] if product else [tm])
    assert r.shape == (tm.column_count, tm.column_count)
    assert np.array_equal(np.triu(r), r)
    if product:
        assert 2 * lie_action.live_codes(psi.parts).size > lie_action._BLOCK_ROWS // 2
        # the R of c times the product of unit factors: the real view's Gram
        real = tm.columns(range(tm.column_count))
        assert np.allclose(r.T @ r, real.T @ real, rtol=0, atol=64 * _EPS)


@pytest.mark.parametrize(
    "kind, n, product",
    [("singlets", n, True) for n in (11, 12, 13)]
    + [("haar_pairs", 12, True), ("lone", 11, True), ("canonical", 15, True), ("canonical", 16, True)]
    + [("haar", 11, False), ("haar", 12, False), ("near_pair", 12, False)],
)
def test_r_is_built_from_the_factors_of_products_past_one_block(monkeypatch, kind, n, product):
    _assert_r_route(monkeypatch, kind, n, product)


@pytest.mark.parametrize(
    "kind, n, product",
    # more than half a block of live rows: 2048 at n = 10 and 14, 1792 at 13
    [("singlets", 10, True), ("canonical", 13, True), ("canonical", 14, True)]
    # half a block or fewer: 1024 rows at n = 9, 896 at 12
    + [("singlets", 9, False), ("canonical", 12, False)],
)
def test_r_is_built_from_the_factors_past_half_a_block(monkeypatch, kind, n, product):
    _assert_r_route(monkeypatch, kind, n, product)


def _scanned_split(psi: np.ndarray):
    """The split with each qubit's partner found by scanning: the first later qubit whose pair Gram has rank one.

    Each factor is read as the split reads it (``_rank_one_factor``).
    """
    qubits = list(range(1, psi.ndim + 1))
    rest, factors = psi, []
    while qubits:
        block = rest.reshape(2, -1)
        f = lie_action._rank_one_factor(block)
        partner = 0
        while f is None:
            partner += 1
            if partner == len(qubits):
                return None
            block = np.moveaxis(rest, partner, 1).reshape(4, -1)
            f = lie_action._rank_one_factor(block)
        members = (qubits[0], qubits[partner]) if partner else (qubits[0],)
        qubits = [q for q in qubits if q not in members]
        factors.append((members, f))
        rest = (f.conj() @ block).reshape((2,) * len(qubits))
    return factors


def _weak_pair(rng) -> StateVector:
    """|00> + d|11>, d in [1e-4, 1e-1], in random local bases: weakly entangled, but past the rank-one tolerance."""
    d = 10 ** rng.uniform(-4, -1)
    return _scramble(StateVector([1.0, 0.0, 0.0, d]), rng)


#: Products of one- and two-qubit factors, unscrambled; ``_scramble`` gives the rest.
_SPLIT_KINDS = {
    "canonical": _canonical_product,
    "singlets": lambda n, rng: singlet_product(n, *_random_pairing(n, rng)),
    "haar_pairs": lambda n, rng: _pairs_of(n, rng, _haar_pair),
    "weak_pairs": lambda n, rng: _pairs_of(n, rng, _weak_pair),
    "lone": lambda n, rng: _unentangled_product(n, rng, range(1, n + 1)),
}


@pytest.mark.parametrize("kind", sorted(_SPLIT_KINDS))
def test_one_pass_partner_gives_the_scanned_split(kind):
    # the proposed partner is the scan's, so the factors are the scan's, bit for bit
    rng = np.random.default_rng(650)
    for n in range(2, 14):
        for scrambled in (False, True):
            for _ in range(2 if n > 11 else 4):
                psi = _SPLIT_KINDS[kind](n, rng)
                if scrambled:
                    psi = _scramble(psi, rng)
                amps = psi.vector.reshape((2,) * n)
                (got, _, _), want = lie_action._split_product(amps), _scanned_split(amps)
                assert want is not None, (n, scrambled)
                assert [q for q, _ in got] == [q for q, _ in want], (n, scrambled)
                for (_, f), (_, g) in zip(got, want):
                    assert f.tobytes() == g.tobytes(), (n, scrambled)
    # a state that is no product: both refuse it
    for n in range(2, 14):
        amps = random_state(n, rng).vector.reshape((2,) * n)
        assert (lie_action._split_product(amps) is None) == (_scanned_split(amps) is None), n


def _product_overlap(psi: np.ndarray, factors: list) -> tuple:
    """``(c, |psi - c P|)``, P the product of unit ``factors``, built whole: c by ``np.vdot``."""
    product, axes = np.ones(()), []
    for qubits, f in factors:
        product = np.multiply.outer(product, f.reshape((2,) * len(qubits)))
        axes += qubits
    product = product.transpose(np.argsort(axes)).reshape(-1)
    vec = psi.reshape(-1)
    c = np.vdot(product, vec)
    return c, np.linalg.norm(vec - c * product)


@pytest.mark.parametrize("kind", sorted(_SPLIT_KINDS))
def test_split_gives_the_overlap_and_residual_of_the_whole_product(kind):
    # c and the residual of the factors' remainders, against the product built whole,
    # on products and on states about delta from one, past the bound or inside it;
    # each of the n qubits' factors adds about one rounding to either side
    rng = np.random.default_rng(655)
    for n in range(2, 14):
        for scrambled in (False, True):
            for _ in range(2 if n > 11 else 4):
                psi = _SPLIT_KINDS[kind](n, rng)
                if scrambled:
                    psi = _scramble(psi, rng)
                delta = rng.choice([1e-9, 1e-12, 1e-14, 1e-15])
                near = StateVector(psi.vector + delta * random_state(n, rng).vector)
                for state in (psi, near):
                    amps = state.vector.reshape((2,) * n)
                    factors, c, residual = lie_action._split_product(amps)
                    want_c, want_residual = _product_overlap(amps, factors)
                    assert abs(c - want_c) <= n * _EPS, (n, scrambled, delta)
                    assert abs(residual - want_residual) <= n * _EPS, (n, scrambled, delta)
                    accepted = residual <= PRODUCT_RESIDUAL
                    assert accepted == (want_residual <= PRODUCT_RESIDUAL), (n, scrambled, delta)


def test_a_haar_state_takes_one_pair_test_before_it_streams(monkeypatch):
    # n = 10: 2048 live rows, past half a block, so the split is tried once
    tm = tangent_matrix(random_state(10, 660))
    heights, test = [], lie_action._rank_one_factor
    monkeypatch.setattr(lie_action, "_rank_one_factor", lambda b: heights.append(len(b)) or test(b))
    streamed = _spy_streamed_r(monkeypatch)
    tm.r_factor
    assert heights == [2, 4]
    assert streamed == [tm]


def test_no_matrix_up_to_nine_qubits_tries_the_split(monkeypatch):
    # at most 512 codes, so 1024 rows, up to n = 9: R is always streamed, as
    # it is for the verify suites' matrices (n <= 8)
    tried, split = [], lie_action._split_product
    monkeypatch.setattr(lie_action, "_split_product", lambda psi: tried.append(psi.ndim) or split(psi))
    rng = np.random.default_rng(670)
    for n in range(1, 10):
        for psi in (random_state(n, rng), _PRODUCTS["lone"](n, rng), _canonical_product(n, rng)):
            tangent_matrix(psi).r_factor
        if n >= 2:
            tangent_matrix(_PRODUCTS["singlets"](n, rng)).r_factor
    assert tried == []
    assert verify_proposition("twotripspan5", n=8, trials=2, seed=671).passed
    assert tried == []


def test_live_codes_are_found_once_per_matrix(monkeypatch):
    # the product route, the streamed route after a refused split, and the exact Gram
    found, live_codes = [], lie_action.live_codes
    monkeypatch.setattr(lie_action, "live_codes", lambda parts: found.append(parts) or live_codes(parts))
    rng = np.random.default_rng(680)
    states = [_PRODUCTS["singlets"](11, rng), random_state(11, rng), _canonical_product(12, rng)]
    for psi in states + [random_rational_state(4, rng)]:
        found.clear()
        tm = tangent_matrix(psi)
        real_ranks(tm, _report_selectors(psi.n))
        tm.gram
        assert len(found) == 1 and found[0] is psi.parts, psi


@pytest.mark.parametrize("n", [11, 12, 13])
@pytest.mark.parametrize("kind", sorted(_PRODUCTS))
def test_product_r_gives_the_streamed_verdicts(monkeypatch, kind, n):
    psi = _PRODUCTS[kind](n, np.random.default_rng(700 + n))
    tm, twin = tangent_matrix(psi), tangent_matrix(psi)
    assert lie_action._product_r(tm) is not None
    object.__setattr__(twin, "r_factor", lie_action.streamed_r(twin))
    selectors = _report_selectors(n)
    for tol in (DEFAULT_TOL, 1e-6, 1e-2):
        got, want = real_ranks(tm, selectors, tol), real_ranks(twin, selectors, tol)
        for sel, g, w in zip(selectors, got, want):
            assert (g.rank, g.gap_ratio) == (w.rank, w.gap_ratio), (sel, tol)
            if w.singular_values:
                gap = np.subtract(g.singular_values, w.singular_values)
                assert np.abs(gap).max() <= ROUNDING_FLOOR * w.singular_values[0], (sel, tol)
    report = json.dumps(orbit_report(psi).to_json_dict())
    _pin_streamed_r(monkeypatch)
    assert report == json.dumps(orbit_report(psi).to_json_dict())


@pytest.mark.parametrize("delta", [1e-9, 1e-13])
@pytest.mark.parametrize("n", [11, 12])
def test_a_near_product_past_the_residual_bound_streams_its_r(monkeypatch, n, delta):
    rng = np.random.default_rng(800 + n)
    singlets, pairs = _planted_singlets(n, rng)
    psi = StateVector(singlets.vector + delta * random_state(n, rng).vector)
    tm = tangent_matrix(psi)
    # the reduced Grams square delta away, so they still propose the planted split
    split, _, residual = lie_action._split_product(psi.vector.reshape((2,) * n))
    assert sorted(qubits for qubits, _ in split if len(qubits) == 2) == pairs
    # but psi lies about delta from every product, far past the bound
    assert residual > PRODUCT_RESIDUAL
    assert lie_action._product_r(tm) is None
    streamed = _spy_streamed_r(monkeypatch)
    tm.r_factor
    assert streamed == [tm]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_products_at_twenty_qubits_take_the_product_route(monkeypatch, seed):
    # each factor is read from its block, whose rounding does not grow with n:
    # a factor read from a Gram column put some of these past PRODUCT_RESIDUAL
    n = 20
    rng = np.random.default_rng(seed)
    pairs, lone = _random_pairing(n, rng)
    singlets = apply_local(singlet_product(n, pairs, lone), LocalUnitary.random(n, seed))
    haar_pairs = StateVector(functools.reduce(np.kron, [random_state(2, rng).vector for _ in range(n // 2)]))
    streamed = _spy_streamed_r(monkeypatch)
    for psi in (singlets, haar_pairs):
        _, _, residual = lie_action._split_product(psi.vector.reshape((2,) * n))
        assert residual <= PRODUCT_RESIDUAL
        assert tangent_matrix(psi).product_r is not None
    report = orbit_report(singlets)
    assert report.pairing.sorted_pairs == tuple(sorted(tuple(sorted(p)) for p in pairs))
    assert streamed == []


# ---------------------------------------------------------------------------
# full column rank certified by a sample of the real view's rows, with no R
# ---------------------------------------------------------------------------


def _pair_rest(n: int, rng) -> StateVector:
    """A canonical pair on two random qubits and a Haar rest, scrambled: dense, and short of full rank."""
    return _scramble(_pair_product(n, rng, *_random_pair_positions(n, rng)), rng)


#: Dense states past the sample's row gate: full rank for haar and rational,
#: short of it on one pair's columns for the rest.
_SAMPLE_KINDS = {
    "haar": lambda n, rng: random_state(n, rng),
    "rational": lambda n, rng: random_rational_state(n, rng).to_float(),
    "near_pair_9": lambda n, rng: _near_pair_state(n, rng, 1e-9),
    "near_pair_11": lambda n, rng: _near_pair_state(n, rng, 1e-11),
    "pair_rest": _pair_rest,
}


@pytest.mark.parametrize("n", [11, 13, 16])
@pytest.mark.parametrize("kind", sorted(_SAMPLE_KINDS))
def test_sample_gives_the_streamed_verdicts_and_reports(monkeypatch, kind, n):
    psi = _SAMPLE_KINDS[kind](n, np.random.default_rng(900 + n))
    # at tol 1 / M a triple's equal singular values sit at the kept side's margin,
    # so R certifies no pair verdict, and each reads its 2**(n+1) rows: n = 16 skips it
    tols = [DEFAULT_TOL, 1e-6, 1 / GAP_WARNING_THRESHOLD][: 2 if n > 13 else 3]
    tm = tangent_matrix(psi)
    # at tol 1 / M the threshold, sqrt(3n + 1), lies above every sample's sigma_min
    certified = [rank_mod._sample_certifies(tm, tol) for tol in tols]
    assert certified == [kind in ("haar", "rational") and tol < 1e-3 for tol in tols]
    selectors = _report_selectors(n)
    got = {tol: real_ranks(tm, selectors, tol) for tol in tols}
    reports = {tol: json.dumps(orbit_report(psi, tol).to_json_dict()) for tol in tols}
    _pin_streamed_r(monkeypatch)
    twin = tangent_matrix(psi)
    for tol, sampled in zip(tols, certified):
        for sel, g, w in zip(selectors, got[tol], real_ranks(twin, selectors, tol)):
            assert (g.rank, g.gap_ratio) == (w.rank, w.gap_ratio), (sel, tol)
            assert g.singular_values is None or not sampled, (sel, tol)
        assert reports[tol] == json.dumps(orbit_report(psi, tol).to_json_dict()), tol


def test_a_haar_report_at_fourteen_qubits_streams_no_r(monkeypatch):
    n = 14
    streamed = _spy_streamed_r(monkeypatch)
    report = orbit_report(random_state(n, 910))
    assert streamed == []
    assert report.rank == 3 * n + 1
    assert {span for row in report.pair_span for span in row} == {3, 6}
    assert report.lone_span == (4,) * n


@pytest.mark.parametrize(
    "kind, n, tol",
    [("haar", 12, 0.5), ("rational", 13, 0.5), ("pair_rest", 12, DEFAULT_TOL), ("pair_rest", 13, 1e-6)]
    + [("w", 12, DEFAULT_TOL), ("ghz", 13, DEFAULT_TOL), ("one_zero", 11, 0.5)],
)
def test_a_state_the_sample_refuses_streams_its_r(monkeypatch, kind, n, tol):
    rng = np.random.default_rng(920 + n)
    psi = _SAMPLE_KINDS[kind](n, rng) if kind in _SAMPLE_KINDS else _SPARSE[kind](n, rng)
    tm = tangent_matrix(psi)
    selectors = _report_selectors(n)
    with pytest.MonkeyPatch.context() as mp:
        streamed = _spy_streamed_r(mp)
        got = real_ranks(tm, selectors, tol)
        assert streamed == [tm]
    assert not rank_mod._sample_certifies(tm, tol)
    _pin_streamed_r(monkeypatch)
    twin = tangent_matrix(psi)
    # both read the same streamed R, so the verdicts are equal, singular values too
    assert got == real_ranks(twin, selectors, tol)


@pytest.mark.parametrize("n", [10, 13, 17, 30])
def test_the_sampled_codes_spread_over_every_bit(n):
    codes, held, (here, flips) = lie_action._sample(n)
    assert codes.size == lie_action._SAMPLE_CODES and np.all(np.diff(codes) > 0)
    for bit in lie_action._qubit_bits(n)[:, 0]:
        assert 0 < np.count_nonzero(codes & bit) < codes.size, bit
    assert np.array_equal(held[here], codes)
    assert np.array_equal(held[flips], codes ^ lie_action._qubit_bits(n))


def test_the_sample_is_the_real_views_rows_at_its_codes(monkeypatch):
    # the sample's one SVD reads those rows, bit for bit, gathered from the
    # parts of the codes they read alone
    n = 11
    psi = random_state(n, 930)
    tm = tangent_matrix(psi)
    seen, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(np.array(a)) or svd(a, *args, **kw))
    sigma = tm.sample_sigma
    codes = lie_action._sample(n)[0]
    rows = np.stack([2 * codes, 2 * codes + 1], axis=1).reshape(-1)
    (matrix,) = seen
    assert matrix.tobytes() == tm.columns(range(tm.column_count))[rows].tobytes()
    assert sigma == svd(matrix, compute_uv=False)[-1]


# ---------------------------------------------------------------------------
# span_dim's rank-only verdicts, read from R, against direct slices
# ---------------------------------------------------------------------------


def _span_state(kind: str, n: int, seed: int, eps: float) -> StateVector:
    rng = np.random.default_rng(seed)
    if kind == "near_pair":
        return _near_pair_state(n, rng, eps)
    return _mixed_pool(n, rng)


# below DEFAULT_TOL the dropped side's margin holds only because rounding stays
# under the cutoff itself; 2 * M * eps is the smallest tol that reads deficient ranks
_SMALL_TOLS = [2 * GAP_WARNING_THRESHOLD * _EPS, 1e-12]


def _assert_span_dim_matches_direct_slices(tm, tol):
    n = tm.n
    margin = GAP_WARNING_THRESHOLD / 2
    real = tm.columns(range(tm.column_count))
    for sel in _every_selector(n):
        direct = np.linalg.svd(real[:, list(sel.column_indices(n))], compute_uv=False)
        got = span_dim(tm, sel.triples, sel.include_last, tol=tol)
        assert got == retained_rank(direct, tol), sel
        if (sel, tol) not in tm.ranks:
            # read from R alone: it clears the cutoff on the real view too, on the
            # dropped side by M/2 only where rounding lies far under the cutoff / M
            cut = tol * direct[0]
            assert got == 0 or direct[got - 1] > margin * cut, sel
            if tol >= DEFAULT_TOL:
                assert got == direct.size or direct[got] < cut / margin, sel


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.sampled_from(["mixed", "near_pair"]),
    st.integers(0, 10**6),
    st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
    st.sampled_from([DEFAULT_TOL, 1e-2] + _SMALL_TOLS),
)
def test_span_dim_matches_direct_slices(n, kind, seed, eps, tol):
    # every ranktripluinv selector; minrankMstrong's are those with the last column
    _assert_span_dim_matches_direct_slices(tangent_matrix(_span_state(kind, n, seed, eps)), tol)


@pytest.mark.parametrize("tol", _SMALL_TOLS)
@pytest.mark.parametrize("kind", ["mixed", "near_pair"])
def test_span_dim_matches_direct_slices_at_ten_qubits(kind, tol):
    # 2048-row real views: the rounding between R and the real view grows with the height
    _assert_span_dim_matches_direct_slices(tangent_matrix(_span_state(kind, 10, 275, 1e-12)), tol)


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
def test_span_dim_defers_near_the_cutoff(eps):
    tm = tangent_matrix(_near_pair_state(6, np.random.default_rng(5), eps))
    selectors = _every_selector(6)
    for sel in selectors:
        span_dim(tm, sel.triples, sel.include_last)
    # the deferred queries, and only they, hold real_rank verdicts
    assert 1 < len(tm.ranks) < len(selectors)
    # each deferred proper subset has a singular value within the margin of the cutoff
    for sel, tol in tm.ranks:
        if sel == ColumnSelector.full(6):
            continue
        s = np.array(real_rank(tm, sel).singular_values)
        ratio = s / (tol * s[0])
        near = (ratio > 1 / (2 * GAP_WARNING_THRESHOLD)) & (ratio < 2 * GAP_WARNING_THRESHOLD)
        assert near.any(), sel


def test_span_dim_reads_no_deficient_rank_from_r_below_m_eps():
    # under GAP_WARNING_THRESHOLD * EPS the dropped side's margin lies within rounding
    # (a basis state's R slices have exactly zero singular values)
    tm = tangent_matrix(basis_state(6, 37))
    got = {sel: span_dim(tm, sel.triples, sel.include_last, tol=_EPS) for sel in _every_selector(6)}
    deferred = {sel for sel, _ in tm.ranks}
    assert deferred and deferred != got.keys()
    for sel, rank in got.items():
        full_rank = rank == len(sel.column_indices(6))
        assert full_rank != (sel in deferred), sel


def test_subset_suites_run_no_full_height_svd(monkeypatch):
    n = 8
    rows = []

    def spy(a, *args, _svd=np.linalg.svd, **kwargs):
        rows.append(np.shape(a)[-2])  # a stack of matrices has its rows second to last
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for name in ("ranktripluinv", "minrankMstrong"):
        report = verify_proposition(name, n, trials=4, seed=270)
        assert report.passed, name
    assert rows
    assert max(rows) < 1 << (n + 1)


def test_deferred_span_dim_takes_one_r_slice_svd(monkeypatch):
    tm = tangent_matrix(_near_pair_state(6, np.random.default_rng(5), 1e-10))
    tm.r_factor
    shapes = []

    def spy(a, *args, _svd=np.linalg.svd, **kwargs):
        # (matrices, rows, columns): an R slice may come as a stack of one
        shape = np.shape(a)
        shapes.append((int(np.prod(shape[:-2])),) + shape[-2:])
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for sel in _every_selector(6):
        shapes.clear()
        span_dim(tm, sel.triples, sel.include_last)
        width = len(sel.column_indices(6))
        if (sel, DEFAULT_TOL) not in tm.ranks:
            assert shapes == [(1, 19, width)], sel
        elif sel != ColumnSelector.full(6):
            assert shapes == [(1, 19, width), (1, 128, width)], sel
    assert len(tm.ranks) > 1


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["mixed", "near_pair"])
def test_span_dim_leaves_real_rank_verdicts_alone(n, kind):
    for seed in range(3):
        tm = tangent_matrix(_span_state(kind, n, 280 + seed, 1e-12))
        selectors = _every_selector(n)
        for sel in selectors:
            span_dim(tm, sel.triples, sel.include_last)
        assert len(tm.ranks) < len(selectors)
        fresh = tangent_matrix(tm.state)
        for sel in selectors:
            assert real_rank(tm, sel) == real_rank(fresh, sel), sel


def _query_error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize(
    "psi",
    [random_state(5, 300), random_state(3, 301), random_rational_state(4, 302)],
    ids=["float-n5", "float-n3", "exact-n4"],
)
def test_span_dim_raises_what_real_rank_raises(psi):
    tm = tangent_matrix(psi)
    cases = [((), False, DEFAULT_TOL), ((), False, math.nan)]
    cases += [((1, 2), True, tol) for tol in (0.0, math.nan, 1.0)]
    cases += [((0,), False, DEFAULT_TOL), ((psi.n + 1,), True, DEFAULT_TOL)]
    for triples, include_last, tol in cases:
        sel = ColumnSelector(triples, include_last)
        want = _query_error(lambda: real_rank(tm, sel, tol=tol))
        assert _query_error(lambda: span_dim(tm, triples, include_last, tol=tol)) == want
        # a family checks its queries in order before it answers any
        family = [sel, ColumnSelector((1,)), ColumnSelector((), include_last=True)]
        assert _query_error(lambda: span_dims(tm, family, tol)) == want
    assert tm.ranks == {}


#: Where a family's walk is checked against a plain list's: three float tols,
#: and one for exact verdicts, which take none.
_PLAN_TOLS = {FLOAT: [DEFAULT_TOL, 1e-6, 1e-3], EXACT: [DEFAULT_TOL]}


def _family_outcomes(psi: StateVector, selectors, tol: float, kept: bool) -> list:
    """``span_dims`` and ``real_ranks`` of ``selectors``, each on a fresh matrix, and what each kept.

    With ``kept``, every matrix first keeps the full selection's verdict and
    those of every third selector of the family.
    """
    outcomes = []
    for query in (span_dims, real_ranks):
        tm = tangent_matrix(psi)
        if kept:
            real_rank(tm, tol=tol)
            real_ranks(tm, list(selectors)[::3], tol)
        outcomes += [query(tm, selectors, tol), list(tm.ranks.items())]
    return outcomes


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_family_walks_as_a_plain_list_does(mode, n):
    # one family, its plan built once, against the same selectors as a list on each walk:
    # equal ranks, verdicts and kept verdicts, in the same order
    family = SelectorFamily(_every_selector(n))
    rng = np.random.default_rng(840 + n)
    for psi in _walk_states(n, rng, mode)[:4]:
        for tol in _PLAN_TOLS[mode]:
            for kept in (False, True):
                got = _family_outcomes(psi, family, tol, kept)
                assert got == _family_outcomes(psi, list(family), tol, kept), (tol, kept)
    assert list(family._plans) == [n]


def test_a_family_is_planned_once_per_n(monkeypatch):
    built = []
    plan = rank_mod._plan
    monkeypatch.setattr(rank_mod, "_plan", lambda sels, n: built.append((sels, n)) or plan(sels, n))
    family = SelectorFamily(_every_selector(4))
    rng = np.random.default_rng(341)
    for psi in [random_state(4, 341), random_rational_state(4, rng), _mixed_pool(4, rng)]:
        for tol in (DEFAULT_TOL, 1e-3):
            tm = tangent_matrix(psi)
            span_dims(tm, family, tol)
            real_ranks(tm, family, tol)
            real_ranks(tangent_matrix(psi), family, tol)
    assert [(sels is family, n) for sels, n in built] == [(True, 4)]
    # any other iterable gets a plan of its own on each walk
    built.clear()
    span_dims(tangent_matrix(random_state(4, 342)), iter(family))
    span_dims(tangent_matrix(random_state(4, 343)), list(family))
    assert [(type(sels), len(sels), n) for sels, n in built] == [(SelectorFamily, 30, 4)] * 2
    # the package's cached families, on two states each
    built.clear()
    for n in (5, 6):
        for seed in range(2):
            psi = random_state(n, 344 + seed)
            orbit_report(psi)
            for suite in ("ranktripluinv", "minrankMstrong", "pair_span_trichotomy"):
                verify_proposition(suite, n, trials=2, seed=seed)
    families = [(id(sels), n) for sels, n in built if isinstance(sels, SelectorFamily)]
    assert len(families) == len(set(families))


def test_a_family_raises_what_real_rank_raises():
    # tol first, then each selector in order, before any verdict is made; a plan
    # that fails is not kept, so every walk raises again
    rng = np.random.default_rng(345)
    for psi in [random_state(4, 345), random_rational_state(4, rng)]:
        tm = tangent_matrix(psi)
        empty, outside = ColumnSelector(()), ColumnSelector((5,), include_last=True)
        one = ColumnSelector((1,))
        cases = [
            ([one, empty, outside], DEFAULT_TOL, empty),
            ([one, outside, empty], DEFAULT_TOL, outside),
            ([one, ColumnSelector((0,)), empty], DEFAULT_TOL, ColumnSelector((0,))),
            ([empty, one], math.nan, one),
            ([outside, one], 1.0, one),
        ]
        for selectors, tol, first_bad in cases:
            want = _query_error(lambda: real_rank(tm, first_bad, tol))
            family = SelectorFamily(selectors)
            for query in (span_dims, real_ranks, span_dims):
                assert _query_error(lambda: query(tm, family, tol)) == want, selectors
                assert _query_error(lambda: query(tm, selectors, tol)) == want, selectors
            assert family._plans == {}
        assert tm.ranks == {}
        # a planned family still checks tol first
        family = SelectorFamily([one, ColumnSelector((2,), include_last=True)])
        span_dims(tm, family)
        assert _query_error(lambda: span_dims(tm, family, 0.0)) == _query_error(
            lambda: real_rank(tm, one, 0.0)
        )


def test_one_family_serves_two_qubit_counts():
    family = SelectorFamily(_every_selector(3))
    rng = np.random.default_rng(346)
    for n in (3, 5, 3):
        for psi in [random_state(n, 346 + n), random_rational_state(n, rng)]:
            for query in (span_dims, real_ranks):
                got = query(tangent_matrix(psi), family)
                assert got == query(tangent_matrix(psi), list(family)), (n, psi.mode)
    assert sorted(family._plans) == [3, 5]
    # each n has its own column indices: the last column is 9 at n = 3 and 15 at n = 5
    assert family.plan(3)[0].cols.tolist() == [list(range(10))]
    assert family.plan(5)[0].cols.tolist() == [list(range(9)) + [15]]
    # a family valid at one n and not at another
    wide = SelectorFamily([ColumnSelector((1,)), ColumnSelector((4, 5))])
    small = tangent_matrix(random_state(3, 347))
    assert _query_error(lambda: span_dims(small, wide)) == _query_error(
        lambda: real_rank(small, ColumnSelector((4, 5)))
    )
    assert span_dims(tangent_matrix(random_state(5, 348)), wide) == [3, 6]
    assert list(wide._plans) == [5]


# ---------------------------------------------------------------------------
# span_dims: one pass over a family, full column rank inherited by subsets
# ---------------------------------------------------------------------------


def _assert_span_dims_match_span_dim(psi, tol, seed):
    n = psi.n
    selectors = _every_selector(n)
    tm = tangent_matrix(psi)
    got = span_dims(tm, selectors, tol)
    reference = tangent_matrix(psi)
    assert got == [span_dim(reference, sel.triples, sel.include_last, tol=tol) for sel in selectors]
    # the caller's order does not matter
    order = np.random.default_rng(seed).permutation(len(selectors))
    shuffled = span_dims(tangent_matrix(psi), [selectors[i] for i in order], tol)
    assert shuffled == [got[i] for i in order]
    # a full rank read from R or inherited clears the cutoff on the real view by M/2
    margin = GAP_WARNING_THRESHOLD / 2
    real = tm.columns(range(tm.column_count))
    for sel, rank in zip(selectors, got):
        cols = list(sel.column_indices(n))
        if rank == len(cols) and (sel, tol) not in tm.ranks:
            direct = np.linalg.svd(real[:, cols], compute_uv=False)
            assert direct[-1] > margin * tol * direct[0], sel


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.sampled_from(["mixed", "near_pair"]),
    st.integers(0, 10**6),
    st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
    st.sampled_from([DEFAULT_TOL, 1e-2] + _SMALL_TOLS),
)
def test_span_dims_match_span_dim(n, kind, seed, eps, tol):
    _assert_span_dims_match_span_dim(_span_state(kind, n, seed, eps), tol, seed)


@pytest.mark.parametrize(
    "kind, tol",
    [("mixed", DEFAULT_TOL), ("mixed", 1e-2)]
    + [(kind, tol) for kind in ("mixed", "near_pair") for tol in _SMALL_TOLS],
)
def test_span_dims_match_span_dim_at_ten_qubits(kind, tol):
    _assert_span_dims_match_span_dim(_span_state(kind, 10, 276, 1e-12), tol, 276)


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_span_dims_inherit_only_past_the_margin(eps):
    # a pair near the balanced point puts singular values within M of the 1e-2
    # cutoff, so full-rank verdicts without the margin certify nothing
    for seed in range(6):
        psi = _near_pair_state(6, np.random.default_rng(seed), eps)
        _assert_span_dims_match_span_dim(psi, 1e-2, seed)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["rational", "pair", "near_pair"])
def test_exact_span_dims_match_real_rank(n, kind):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        if kind == "rational":
            psi = random_rational_state(n, rng)
        elif kind == "pair":
            psi = _pair_product(n, rng, *_random_pair_positions(n, rng), mode=EXACT)
        else:
            psi = _near_product_pair(n, rng, Fraction(1, 7))
        selectors = _every_selector(n)
        fresh = tangent_matrix(psi)
        want = [real_rank(fresh, sel).rank for sel in selectors]
        order = rng.permutation(len(selectors))
        got = span_dims(tangent_matrix(psi), [selectors[i] for i in order])
        assert got == [want[i] for i in order]


def test_exact_family_takes_one_elimination_widest_first(monkeypatch):
    # the full selection is answered first and certifies every pair inside it
    tm = tangent_matrix(random_rational_state(4, 5))
    calls = []

    def spy(gram, cols, _exact_rank=rank_mod._exact_rank):
        calls.append(cols)
        return _exact_rank(gram, cols)

    monkeypatch.setattr(rank_mod, "_exact_rank", spy)
    pairs = [ColumnSelector(p) for p in combinations(range(1, 5), 2)]
    assert span_dims(tm, [ColumnSelector.full(4)] + pairs) == [13] + [6] * 6
    assert calls == [list(ColumnSelector.full(4).column_indices(4))]


def _count_svd_matrices(monkeypatch) -> list:
    """Spy on ``np.linalg.svd``; the list returned gains each call's number of matrices."""
    counts = []

    def spy(a, *args, _svd=np.linalg.svd, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return counts


def test_haar_state_family_decomposes_one_matrix(monkeypatch):
    # R certifies the full selection as full column rank; every other selection inherits
    tm = tangent_matrix(random_state(8, 290))
    tm.r_factor
    counts = _count_svd_matrices(monkeypatch)
    selectors = _every_selector(8)
    assert len(selectors) == 510
    ranks = span_dims(tm, selectors)
    assert ranks == [len(sel.column_indices(8)) for sel in selectors]
    assert sum(counts) == 1


def test_span_dims_stack_each_width_into_one_svd(monkeypatch):
    # a scrambled singlet product has deficient selections of many widths: each
    # width takes at most one SVD call, and R certifies every rank at the default tol
    tm = tangent_matrix(_scrambled_singlet_product(8, np.random.default_rng(291)))
    tm.r_factor
    counts = _count_svd_matrices(monkeypatch)
    selectors = _every_selector(8)
    span_dims(tm, selectors)
    widths = {len(sel.column_indices(8)) for sel in selectors}
    assert len(counts) <= len(widths)
    assert sum(counts) < len(selectors)
    assert tm.ranks.keys() == {(ColumnSelector.full(8), DEFAULT_TOL)}


#: Where the family walk is checked: the default tol, a middle one, 1 / M (where
#: a triple's equal singular values fail the kept side's margin), the smallest
#: tol that reads deficient ranks from R, and eps, where R certifies full rank only.
_WALK_TOLS = [DEFAULT_TOL, 1e-6, 1 / GAP_WARNING_THRESHOLD, 2 * GAP_WARNING_THRESHOLD * _EPS, _EPS]


def _walk_states(n: int, rng, mode: str) -> list:
    """Generic, paired, unentangled, near-pair and named states on n qubits, in ``mode``.

    Floating states are scrambled by a local unitary where that keeps them
    generic; exact ones stay rational, with a rational state for Haar's.
    """
    exact = mode == EXACT
    generic = random_rational_state if exact else random_state
    ends = [0] * (1 << n)
    ends[0] = ends[-1] = 1
    named = [
        basis_state(n, int(rng.integers(1 << n)), mode=mode),
        StateVector.from_rational(ends),
        StateVector.from_rational([int(code.bit_count() == 1) for code in range(1 << n)]),
    ]
    states = [generic(n, rng)]
    if n >= 2:
        pairs, lone = _random_pairing(n, rng)
        singlets = singlet_product(n, pairs, lone, mode=mode)
        paired = _pair_product(n, rng, *_random_pair_positions(n, rng), mode=mode)
        near = [_near_product_pair(n, rng, Fraction(1, 10**k)) for k in (9, 11)]
        states += [singlets, paired] + near
    chosen = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    positions = sorted(int(q) + 1 for q in chosen)
    states.append(_with_rest(n, rng, [((p,), generic(1, rng)) for p in positions], generic))
    if not exact:
        states = [_scramble(psi.to_float(), rng) for psi in states]
        named = [psi.to_float() for psi in named]
    return states + named


def _assert_walk_matches_single_queries(psi: StateVector, tol: float) -> None:
    """Every family route gives each selector ``real_rank``'s verdict on a fresh matrix."""
    n = psi.n
    selectors = _every_selector(n)
    oracle = tangent_matrix(psi)
    want = [real_rank(oracle, sel, tol) for sel in selectors]
    ranks = [verdict.rank for verdict in want]
    # a family's verdicts: made ones equal the single query's in rank, gap ratio and
    # singular values; inherited ones carry its rank alone
    for sel, got, single in zip(selectors, real_ranks(tangent_matrix(psi), selectors, tol), want):
        if got.singular_values is None and got.backend != EXACT:
            single = RankResult(rank=single.rank, gap_ratio=math.inf, backend=got.backend)
        assert got == single, (sel, tol)
    # bare ranks; each width asked takes at most one SVD of stacked R slices
    shapes = []

    def spy(a, *args, _svd=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    tm = tangent_matrix(psi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        assert span_dims(tm, selectors, tol) == ranks, tol
    stacked = [shape[-1] for shape in shapes if len(shape) == 3]
    assert len(stacked) == len(set(stacked)), shapes
    # inherited from a kept full verdict, in another order
    inherits = tangent_matrix(psi)
    real_rank(inherits, tol=tol)
    order = np.random.default_rng(n).permutation(len(selectors))
    assert span_dims(inherits, [selectors[i] for i in order], tol) == [ranks[i] for i in order]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_family_walk_matches_single_queries(mode, n):
    # exact verdicts take no tol, so one is enough for them past five qubits
    tols = _WALK_TOLS if mode == FLOAT or n <= 5 else [DEFAULT_TOL]
    rng = np.random.default_rng(820 + n)
    for psi in _walk_states(n, rng, mode):
        assert psi.mode == mode
        for tol in tols:
            _assert_walk_matches_single_queries(psi, tol)


# ---------------------------------------------------------------------------
# float verdicts against exact ranks, every selector
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _narrow_plan(n: int) -> tuple:
    """The plan groups of every selection of one or two triples, with and without the last column."""
    family = SelectorFamily(
        ColumnSelector(triples, include_last)
        for size in (1, 2)
        for triples in combinations(range(1, n + 1), size)
        for include_last in (False, True)
    )
    return tuple(group for group in family.plan(n) if group.members is not None)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=4, max_value=13), st.integers(0, 2**32 - 1))
def test_gram_certifies_only_full_rank_past_the_margin(n, seed):
    # a selection the float Gram certifies has full column rank on the real view,
    # by a direct SVD, with sigma_min > M * tol * sigma_max, at every walk tol;
    # at the tol where a selection's own values meet that margin, it is refused
    margin = GAP_WARNING_THRESHOLD
    for psi in _walk_states(n, np.random.default_rng(seed), FLOAT):
        tm = tangent_matrix(psi)
        real = tm.columns(range(tm.column_count))
        for group in _narrow_plan(n):
            values = np.linalg.svd(real[:, group.cols].transpose(1, 0, 2), compute_uv=False)
            for tol in _WALK_TOLS:
                for j, certified in enumerate(rank_mod._gram_certifies(tm, group, tol)):
                    s = values[j]
                    if certified:
                        assert retained_rank(s, tol) == group.width, (group.sels[j], tol)
                        assert s[-1] > margin * tol * s[0], (group.sels[j], tol)
            for j, s in enumerate(values):
                tight = s[-1] / s[0] / margin
                if _EPS <= tight < 1 and not s[-1] > margin * tight * s[0]:
                    assert not rank_mod._gram_certifies(tm, group, tight)[j], group.sels[j]


def test_gram_certificate_reaches_the_margin_of_a_sharp_gram():
    # on a Gram whose Gershgorin bounds are its extreme eigenvalues, a selection
    # is certified just under the margin its own singular values allow and
    # refused just over it: the test squares M * tol, and its slack is small
    n = 4
    gram = np.eye(3 * n + 1)
    gram[0, 1] = gram[1, 0] = 0.6  # qubit 1's triple: eigenvalues 0.4, 1, 1.6
    gram[-1, -1] = 0.25  # the last column
    matrix = types.SimpleNamespace(r_gram=gram, column_count=3 * n + 1)
    for group in _narrow_plan(n):
        for j, cols in enumerate(group.cols):
            eigenvalues = np.linalg.eigvalsh(gram[np.ix_(cols, cols)])
            ratio = math.sqrt(eigenvalues[0] / eigenvalues[-1])
            for factor, certified in ((0.98, True), (1.02, False)):
                tol = factor * ratio / GAP_WARNING_THRESHOLD
                assert rank_mod._gram_certifies(matrix, group, tol)[j] == certified, (group.sels[j], factor)


def _near_product_pair(n: int, rng, delta: Fraction) -> StateVector:
    """Exact |00> + (1 - delta)|11> on two random qubits, a random rational state on the rest."""
    pair = _random_pair_positions(n, rng)
    chi = StateVector.from_rational([1, 0, 0, 1 - delta])
    return _with_rest(n, rng, [(pair, chi)], random_rational_state)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.sampled_from(["rational", "pair", "near_pair"]),
    st.integers(0, 10**6),
    st.integers(min_value=1, max_value=15),
)
def test_float_verdicts_match_exact_ranks(n, kind, seed, k):
    rng = np.random.default_rng(seed)
    boundary = None
    if kind == "rational":
        psi = random_rational_state(n, rng)
    elif kind == "pair":
        psi = _pair_product(n, rng, *_random_pair_positions(n, rng), mode=EXACT)
    else:
        psi = _near_product_pair(n, rng, Fraction(1, 10**k))
        if k >= 10:
            # the same state at delta = 0, from the same draws
            boundary = tangent_matrix(_near_product_pair(n, np.random.default_rng(seed), 0))
    exact, flt = tangent_matrix(psi), tangent_matrix(psi.to_float())
    for sel in _every_selector(n):
        got = real_rank(flt, sel)
        # A delta at or below the cutoff is dropped with the noise: the
        # verdict is then the exact rank of the delta = 0 state, and the
        # gap ratio does not flag it (the tolerance module's first limit).
        allowed = {real_rank(exact, sel).rank}
        if boundary is not None:
            allowed.add(real_rank(boundary, sel).rank)
        assert got.rank in allowed, sel
        assert not got.ill_conditioned, sel


# ---------------------------------------------------------------------------
# complements
# ---------------------------------------------------------------------------


def test_complement_of_pair_triple_against_partner():
    # for the canonical pair state, T_1 and T_2 span the SAME 3 directions;
    # nothing in T_1 avoids them
    tm = tangent_matrix(canonical_pair_state())
    assert complement_dim(tm, 1, ColumnSelector((2,))) == 0


def test_complement_against_last_column_only():
    # the pair state's T_1 is entirely orthogonal to -i psi
    tm = tangent_matrix(canonical_pair_state())
    assert complement_dim(tm, 1, ColumnSelector((), include_last=True)) == 3


def test_complement_against_nothing_is_3():
    tm = tangent_matrix(random_state(3, 250))
    assert complement_dim(tm, 2, ColumnSelector(())) == 3


def test_complement_generic_triple_fully_covered():
    # generic 3-qubit states have full 10-dimensional rank: the other two
    # triples plus the last column span everything, leaving nothing
    tm = tangent_matrix(random_state(3, 251))
    assert complement_dim(tm, 1, ColumnSelector((2, 3), include_last=True)) == 0


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_complement_of_a_triple_outside_the_state_is_refused(mode):
    n = 3
    tm = tangent_matrix(random_rational_state(n, 253) if mode == EXACT else random_state(n, 253))
    for inside in (0, n + 1):
        for against in (ColumnSelector(()), ColumnSelector((1,), include_last=True)):
            with pytest.raises(ValueError, match="out of range"):
                complement_dim(tm, inside, against)


def test_complement_inside_cannot_be_in_against():
    tm = tangent_matrix(random_state(2, 252))
    with pytest.raises(ValueError):
        complement_dim(tm, 1, ColumnSelector((1, 2)))


def test_complement_exact_matches_float():
    for seed in (0, 1, 2):
        psi = random_rational_state(3, 300 + seed)
        te, tf = tangent_matrix(psi), tangent_matrix(psi.to_float())
        for inside in (1, 2, 3):
            against = ColumnSelector(
                tuple(k for k in (1, 2, 3) if k != inside), include_last=True
            )
            assert complement_dim(te, inside, against) == complement_dim(tf, inside, against)


def _complement_basis(tm, inside, against):
    """The complement's real-view vectors: the triple's columns times ``_complement_coeffs``."""
    (coeffs,) = _complement_coeffs(tm, (inside,), against, DEFAULT_TOL)
    return tm.columns(tm.triple_indices(inside)) @ coeffs.T


def test_complement_basis_spans_the_complement():
    psi = singlet_product(3, [(1, 2)], lone=3)
    tm = tangent_matrix(psi)
    against = ColumnSelector((3,), include_last=True)
    dim = complement_dim(tm, 1, against)
    basis = _complement_basis(tm, 1, against)
    assert basis.shape == (16, dim)
    # orthonormal columns...
    assert np.allclose(basis.T @ basis, np.eye(dim), atol=1e-10)
    # ...orthogonal to every column they were complemented against
    other = tangent_matrix(psi)
    for j in against.column_indices(3):
        col = other.column(j)
        view = np.empty(16)
        view[0::2], view[1::2] = col.real, col.imag
        assert np.max(np.abs(basis.T @ view)) < 1e-10
    # on a scrambled partial pair the basis has exactly complement_dim columns,
    # orthonormal and orthogonal to the ``against`` columns
    rng = np.random.default_rng(255)
    tm = tangent_matrix(_scramble(_partial_pair_state(4, rng, 1, 3), rng))
    against = ColumnSelector((2, 4), include_last=True)
    others = tm.columns(against.column_indices(4))
    for inside in (1, 3):
        basis = _complement_basis(tm, inside, against)
        assert basis.shape[1] == complement_dim(tm, inside, against) == 2
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-10)
        assert np.max(np.abs(basis.T @ others)) < 1e-10


# ---------------------------------------------------------------------------
# float complements from R against the full-height route
# ---------------------------------------------------------------------------


def _full_height_complement(tm, inside, against, tol):
    """The reference route on the real view, nothing read from R.

    A QR of the triple's columns, then an SVD with U of the ``against``
    columns.  Returns the complement basis, the projection's singular
    values and the kept singular values of the ``against`` columns.
    """
    basis_inside, _ = np.linalg.qr(tm.columns(tm.triple_indices(inside)))
    u, s_against, _ = np.linalg.svd(tm.columns(against.column_indices(tm.n)), full_matrices=False)
    kept = s_against > tol * s_against[0]
    _, s, vt = np.linalg.svd(u[:, kept].T @ basis_inside, full_matrices=True)
    return basis_inside @ vt[np.count_nonzero(s > tol) :].T, s, s_against[kept]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["haar", "singlets", "near_pair", "unentangled", "rational"]),
    st.integers(0, 10**6),
    st.sampled_from([0.15, 1e-3, 1e-6, 1e-9, 1e-12]),
)
def test_float_complements_match_the_full_height_route(n, kind, seed, eps):
    tm = tangent_matrix(_route_state(kind, n, seed, eps))
    rng = np.random.default_rng(seed + 1)
    for inside in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != inside]
        subset = [k for k in others if rng.integers(2)]
        for against in (
            ColumnSelector(others, include_last=True),
            ColumnSelector(subset, include_last=not subset or bool(rng.integers(2))),
        ):
            want, s, s_against = _full_height_complement(tm, inside, against, DEFAULT_TOL)
            # Either route's rounding moves the projection by about eps times
            # the condition number of the kept ``against`` columns.  Where that,
            # or a projection value, comes within 10x of the cutoff, either
            # verdict is right.
            noise = _EPS * s_against[0] / s_against[-1]
            if 10 * noise > DEFAULT_TOL or np.any((s > DEFAULT_TOL / 10) & (s < DEFAULT_TOL * 10)):
                continue
            got = _complement_basis(tm, inside, against)
            assert complement_dim(tm, inside, against) == got.shape[1] == want.shape[1]
            # The complement then turns by up to about the noise over the
            # smallest kept projection value (Wedin): 2e-9 on a pair 1e-9
            # short of maximal entanglement.
            kept = s[s > DEFAULT_TOL]
            bound = max(1e-8, 64 * noise / kept.min()) if kept.size else 1e-8
            assert np.abs(got @ got.T - want @ want.T).max() <= bound


def test_float_complements_factor_no_full_height_matrix(monkeypatch):
    n = 8
    tm = tangent_matrix(random_state(n, 260))
    real_rank(tm)  # caches R
    rows = []
    for name in ("svd", "qr"):

        def spy(a, *args, _factor=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[0])
            return _factor(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for against in (ColumnSelector(range(2, n + 1), include_last=True), ColumnSelector((3, 5))):
        complement_dim(tm, 1, against)
    _complement_coeffs(tm, (1, 2), ColumnSelector((3, 5)), DEFAULT_TOL)
    assert rows
    assert max(rows) < 1 << (n + 1)


# ---------------------------------------------------------------------------
# the exact backend's integer Gram against direct elimination
# ---------------------------------------------------------------------------


_INT64_MAX = 2**63 - 1
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _from_parts(parts) -> StateVector:
    """Exact state from its real parts, interleaved (re, im) by basis code."""
    return StateVector.from_rational(
        [(Fraction(re), Fraction(im)) for re, im in zip(parts[0::2], parts[1::2])]
    )


def _int64_peak(n: int) -> int:
    """The largest |part| for which the int64 Gram of an n-qubit integer state is allowed."""
    return math.isqrt(_INT64_MAX // (1 << (n + 1)))


def _signed_state(n: int, rng, top: int) -> StateVector:
    """Every real part +-top: each Gram diagonal entry is rows * top**2."""
    return _from_parts([top * int(s) for s in rng.choice((-1, 1), size=1 << (n + 1))])


def _gram_state(kind: str, n: int, rng) -> StateVector:
    size = 1 << (n + 1)
    if kind == "rational":
        return random_rational_state(n, rng)
    if kind == "singlets":
        order = [int(q) + 1 for q in rng.permutation(n)]
        pairs = list(zip(order[0::2], order[1::2]))
        return singlet_product(n, pairs, order[-1] if n % 2 else None, mode=EXACT)
    if kind == "pair":
        return _pair_product(n, rng, *_random_pair_positions(n, rng), mode=EXACT)
    if kind == "denominators":
        # many unrelated denominators: their lcm scales every part (one per state)
        nums = rng.integers(1, 10, size=size) * rng.choice((-1, 1), size=size)
        return _from_parts(
            [Fraction(int(p), int(q)) for p, q in zip(nums, rng.choice(_PRIMES, size=size))]
        )
    if kind == "huge":
        # parts beyond int64 once scaled: the Gram is a matmul of Python ints
        dens = [int(d) for d in rng.integers(10**8, 10**9, size=3)]
        return _from_parts(
            [Fraction(int(rng.integers(-(10**12), 10**12)), dens[int(rng.integers(3))])
             for _ in range(size)]
        )
    # at the int64 bound, or one past it
    return _signed_state(n, rng, _int64_peak(n) + (kind == "past_bound"))


def _bareiss_rank(mat: list) -> int:
    """Reference rank of any matrix of Python ints (row lists), by fraction-free elimination.

    General row pivoting, symmetric or not: the oracle for the package's
    elimination, which assumes a symmetric positive semidefinite matrix.
    """
    mat = [list(row) for row in mat]
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for row in mat[rank + 1 :]:
            factor = row[col]
            for j in range(col + 1, len(top)):
                row[j] = (top[col] * row[j] - factor * top[j]) // prev
            row[col] = 0
        prev = top[col]
        rank += 1
    return rank


def _cross_product_complement(tm, inside, against) -> int:
    """The reference exact complement: a fresh cross product of real-view columns."""
    inside_view = tm.columns(tm.triple_indices(inside))
    against_view = tm.columns(against.column_indices(tm.n))
    return 3 - _bareiss_rank((against_view.T @ inside_view).tolist())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from(
        ["rational", "singlets", "pair", "denominators", "huge", "at_bound", "past_bound"]
    ),
    st.integers(0, 10**6),
)
def test_exact_gram_ranks_match_direct_elimination(n, kind, seed):
    rng = np.random.default_rng(seed)
    tm = tangent_matrix(_gram_state(kind, n, rng))
    for sel in _every_selector(n):
        got = real_rank(tm, sel)
        assert got.rank == _bareiss_rank(tm.columns(sel.column_indices(n)).tolist()), sel
    for inside in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != inside]
        subset = [k for k in others if rng.integers(2)]
        for against in (
            ColumnSelector(others, include_last=True),
            ColumnSelector(subset, include_last=not subset or bool(rng.integers(2))),
        ):
            want = _cross_product_complement(tm, inside, against)
            assert complement_dim(tm, inside, against) == want, (inside, against)


def _oracle_state(kind: str, n: int, rng) -> StateVector:
    if kind == "rational":
        return random_rational_state(n, rng)
    if kind == "pair":
        return _pair_product(n, rng, *_random_pair_positions(n, rng), mode=EXACT)
    if kind == "near_pair":
        return _near_product_pair(n, rng, Fraction(1, 7))
    if kind == "singlets":
        return _gram_state("singlets", n, rng)
    return basis_state(n, int(rng.integers(1 << n)), mode=EXACT)


def _assert_exact_verdicts_match_the_object_gram(psi: StateVector, selectors: list) -> None:
    """Every exact verdict equals Bareiss on the principal block of the object real view's Gram.

    Each query is asked alone on one matrix (``real_rank``), and as a family
    on another that keeps the full verdict first (``real_ranks``, inheriting).
    """
    n = psi.n
    tm = tangent_matrix(psi)
    gram = np.array(tm.gram, dtype=object)
    real = tm.columns(range(tm.column_count))
    assert real.dtype == object
    reference = real.T @ real
    assert np.array_equal(gram, reference)
    s = gram[3 * n, 3 * n]
    assert s == sum(p * p for p in psi.parts.flat) > 0
    for k in range(1, n + 1):
        t = list(tm.triple_indices(k))
        assert gram[np.ix_(t, t)].tolist() == [[s, 0, 0], [0, s, 0], [0, 0, s]], k
    want = []
    for sel in selectors:
        cols = list(sel.column_indices(n))
        want.append(_bareiss_rank(reference[np.ix_(cols, cols)].tolist()))
        assert real_rank(tm, sel).rank == want[-1], sel
    family = tangent_matrix(psi)
    real_rank(family)
    assert [r.rank for r in real_ranks(family, selectors)] == want
    assert all(r.backend == EXACT for r in real_ranks(family, selectors))


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("rational", "singlets", "basis") for n in range(1, 8)]
    + [(kind, n) for kind in ("pair", "near_pair") for n in range(2, 8)],
)
def test_exact_verdicts_match_the_object_gram(kind, n):
    rng = np.random.default_rng(300 + 10 * n)
    _assert_exact_verdicts_match_the_object_gram(_oracle_state(kind, n, rng), _every_selector(n))


@pytest.mark.parametrize("kind", ["rational", "pair"])
def test_exact_verdicts_match_the_object_gram_past_one_block(kind):
    # two row blocks of the real view; orbit_report's selectors and a sample of the rest
    n = 11
    rng = np.random.default_rng(311)
    selectors = [ColumnSelector(p) for p in combinations(range(1, n + 1), 2)]
    selectors += [ColumnSelector((j,), include_last=True) for j in range(1, n + 1)]
    selectors += [ColumnSelector.full(n), ColumnSelector(range(1, n + 1))]
    for _ in range(20):
        subset = [k for k in range(1, n + 1) if rng.integers(2)] or [1]
        selectors.append(ColumnSelector(subset, include_last=bool(rng.integers(2))))
    _assert_exact_verdicts_match_the_object_gram(_oracle_state(kind, n, rng), selectors)


def test_exact_verdicts_match_the_object_gram_with_huge_parts():
    # 40-digit parts: the Gram is a sum of Python-int products
    tm = tangent_matrix(_forty_digit_state(4))
    assert lie_action._int64_parts(tm.parts) is None
    _assert_exact_verdicts_match_the_object_gram(tm.state, _every_selector(4))


def _forty_digit_state(n: int) -> StateVector:
    return StateVector.from_rational(
        [(Fraction(10**40 + k, 3 ** (k + 30)), Fraction(-k, 10**25)) for k in range(1 << n)]
    )


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_int64_gram_route_ends_exactly_at_the_bound(n):
    rows, peak = 1 << (n + 1), _int64_peak(n)
    assert rows * peak**2 <= _INT64_MAX < rows * (peak + 1) ** 2
    rng = np.random.default_rng(270 + n)
    for top, via_int64 in ((peak, True), (peak + 1, False), (2**63, False)):
        tm = tangent_matrix(_signed_state(n, rng, top))
        assert (lie_action._int64_parts(tm.parts) is not None) == via_int64, top
        gram = tm.gram
        assert all(type(x) is int for row in gram for x in row)
        real = tm.columns(range(tm.column_count))
        assert np.array_equal(np.array(gram, dtype=object), real.T @ real)
        assert gram[0][0] == rows * top**2
        assert tm.gram is gram


def test_gram_serves_both_backends():
    # a float Gram is R.T @ R, from the R the matrix holds: one block at
    # n = 3, a state with zero amplitudes at n = 6, two blocks at n = 11
    for kind, n in (("haar", 3), ("one_zero", 6), ("ghz", 6), ("haar", 11)):
        tm = tangent_matrix(_route_state(kind, n, 280 + n, 0.0))
        gram = tm.gram
        real = _reference_real(tm.state)
        assert np.array(gram).dtype == np.float64
        assert np.allclose(gram, real.T @ real, rtol=0, atol=INNER_PRODUCT_ATOL), (kind, n)
        assert tm.gram is gram


def test_exact_queries_eliminate_only_gram_blocks(monkeypatch):
    # every exact rank is read from the (3n+1)^2 Gram, which each tangent
    # matrix builds once; no 2^(n+1)-row matrix is ever eliminated
    heights, built = [], []
    eliminate, streamed_gram = rank_mod._psd_rank, lie_action._streamed_gram

    def eliminate_spy(matrix):
        heights.append(len(matrix))
        return eliminate(matrix)

    def gram_spy(tm):
        built.append(tm)
        return streamed_gram(tm)

    monkeypatch.setattr(rank_mod, "_psd_rank", eliminate_spy)
    monkeypatch.setattr(lie_action, "_streamed_gram", gram_spy)

    def check(n, run):
        heights.clear()
        built.clear()
        run()
        assert built, "no exact tangent matrix was analyzed"
        assert len({id(tm) for tm in built}) == len(built)
        # a verdict eliminates its Schur complement, 3 rows short of the selection
        assert max(heights, default=0) <= 3 * n + 1 - 3

    for n in range(4, 8):
        rng = np.random.default_rng(290 + n)
        for kind in ("rational", "singlets", "pair"):
            check(n, lambda: orbit_report(_gram_state(kind, n, rng)))
    for n in (6, 8):
        for suite in ("twocommonstrong", "triplesprop"):
            check(n, lambda: verify_proposition(suite, n, trials=6, seed=3))
