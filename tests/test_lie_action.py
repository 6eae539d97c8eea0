"""Generator actions against a dense Kronecker-product oracle.

The library applies generators with one tensor routine on the state's
real and imaginary parts; the oracle here materializes the full
2^n x 2^n operator with np.kron and multiplies.  Qubit k's z, y and x
actions are columns 3k-3, 3k-2 and 3k-1 of the tangent matrix.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luorbit import (
    LocalUnitary,
    StateVector,
    apply_local,
    basis_state,
    random_rational_state,
    random_state,
    singlet_product,
    tangent_matrix,
)
import luorbit.lie_action as lie_action

# independent generator matrices: i*sigma_z, i*sigma_y, i*sigma_x
GEN_Z = np.array([[1j, 0], [0, -1j]])
GEN_Y = np.array([[0, 1], [-1, 0]], dtype=complex)
GEN_X = np.array([[0, 1j], [1j, 0]])
GENERATORS = (GEN_Z, GEN_Y, GEN_X)


def dense_apply(gen: np.ndarray, psi: StateVector, k: int) -> np.ndarray:
    n = psi.n
    op = np.kron(np.kron(np.eye(1 << (k - 1)), gen), np.eye(1 << (n - k)))
    return op @ psi.vector


def act(psi: StateVector, k: int, g: int):
    """Generator g (0 z, 1 y, 2 x) on qubit k: column 3k-3+g of the tangent matrix."""
    tm = tangent_matrix(psi)
    return tm.column(tm.triple_indices(k)[g])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_actions_match_dense_oracle(n):
    psi = random_state(n, 100 + n)
    for k in range(1, n + 1):
        for g, gen in enumerate(GENERATORS):
            assert np.allclose(act(psi, k, g), dense_apply(gen, psi, k), atol=1e-12)


def test_single_qubit_frozen_actions():
    # on |0>: z -> i|0>, y -> -|1>, x -> i|1>
    psi = basis_state(1, 0)
    assert np.allclose(act(psi, 1, 0), [1j, 0])
    assert np.allclose(act(psi, 1, 1), [0, -1])
    assert np.allclose(act(psi, 1, 2), [0, 1j])


def test_exact_actions_match_float():
    psi = random_rational_state(3, 9)
    flt = psi.to_float()
    norm = float(np.sqrt(float(psi.norm_squared)))
    for k in (1, 2, 3):
        for g in range(3):
            exact = np.array([complex(re, im) for re, im in act(psi, k, g)]) / norm
            assert np.allclose(exact, act(flt, k, g), atol=1e-12)


def test_exact_actions_stay_rational():
    psi = random_rational_state(2, 14)
    for k in (1, 2):
        for g in range(3):
            column = act(psi, k, g)
            assert all(type(p) is Fraction for amp in column for p in amp)


def test_double_application_is_minus_identity():
    psi = random_state(3, 31)
    for k in (1, 2, 3):
        for g in range(3):
            twice = act(StateVector(act(psi, k, g)), k, g)
            # act(psi, k, g) has unit norm, so re-wrapping does not rescale
            assert np.allclose(twice, -psi.vector, atol=1e-12)


def test_generators_on_distinct_qubits_commute():
    psi = random_state(4, 32)
    for ga, gb in [(0, 1), (1, 2), (2, 0)]:
        ab = act(StateVector(act(psi, 3, gb)), 1, ga)
        ba = act(StateVector(act(psi, 1, ga)), 3, gb)
        assert np.allclose(ab, ba, atol=1e-12)


def test_qubit_index_validated():
    tm = tangent_matrix(random_state(2, 33))
    with pytest.raises(ValueError):
        tm.triple_indices(0)
    with pytest.raises(ValueError):
        tm.triple_indices(3)
    with pytest.raises(ValueError, match="qubit 2.0 is not an integer"):
        tm.triple_indices(2.0)


# ---------------------------------------------------------------------------
# the assembled matrix
# ---------------------------------------------------------------------------


def test_column_layout():
    psi = random_state(3, 40)
    tm = tangent_matrix(psi)
    assert tm.column_count == 10
    assert 3 * tm.n == tm.column_count - 1 == 9
    assert np.allclose(tm.column(0), dense_apply(GEN_Z, psi, 1), atol=1e-15)
    assert np.allclose(tm.column(1), dense_apply(GEN_Y, psi, 1), atol=1e-15)
    assert np.allclose(tm.column(2), dense_apply(GEN_X, psi, 1), atol=1e-15)
    assert np.allclose(tm.column(5), dense_apply(GEN_X, psi, 2), atol=1e-15)
    assert np.allclose(tm.column(9), -1j * psi.vector, atol=0)
    assert tm.triple_indices(2) == (3, 4, 5)


def _columns(tm) -> np.ndarray:
    """Every column as amplitudes, side by side: 2**n x (3n+1) complex."""
    return np.stack([tm.column(j) for j in range(tm.column_count)], axis=1)


def test_single_qubit_matrix_columns():
    tm = tangent_matrix(basis_state(1, 0))
    want = np.array([[1j, 0], [0, -1], [0, 1j], [-1j, 0]]).T
    assert np.allclose(_columns(tm), want, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_column_has_unit_norm(n):
    # all generators are anti-Hermitian isometries up to sign, so every
    # column of the matrix inherits the state's norm
    psi = random_state(n, 50 + n)
    tm = tangent_matrix(psi)
    for j in range(tm.column_count):
        assert abs(np.linalg.norm(tm.column(j)) - 1.0) < 1e-12


def test_triple_orthogonality_float_and_exact():
    # a dot product of two columns of the real view is Re<u|v>
    psi = random_state(3, 60)
    tm = tangent_matrix(psi)
    for k in (1, 2, 3):
        a, b, c = tm.columns(tm.triple_indices(k)).T
        for u, v in [(a, b), (a, c), (b, c)]:
            assert abs(u @ v) <= 1e-10

    ex = tangent_matrix(random_rational_state(3, 61))
    for k in (1, 2, 3):
        a, b, c = ex.columns(ex.triple_indices(k)).T
        for u, v in [(a, b), (a, c), (b, c)]:
            assert u @ v == 0


def test_exact_matrix_holds_ints():
    # denominators are cleared once per state, so rank work stays in the integers
    psi = StateVector.from_rational([(Fraction(1, 2), Fraction(-3, 4)), (Fraction(1, 3), 0)])
    tm = tangent_matrix(psi)
    assert tm.scale == 12
    real = tm.columns(range(tm.column_count))
    assert all(type(x) is int for x in real.ravel())
    assert real.shape == (4, 4)
    # -i psi, row 2*code + part: -i(1/2 - 3/4 i) = -3/4 - 1/2 i, -i(1/3) = -1/3 i
    assert list(real[:, 3]) == [-9, -6, 0, -4]


def test_zero_state_rejected_at_construction():
    with pytest.raises(ValueError):
        StateVector(np.zeros(4))


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_last_column_is_minus_i_psi(n, seed):
    psi = random_state(n, seed)
    tm = tangent_matrix(psi)
    assert np.allclose(tm.column(3 * tm.n), -1j * psi.vector, atol=0)


def _complex_product_columns(psi: StateVector) -> np.ndarray:
    """Every column as numpy complex128 products on the (2,)*n amplitude tensor."""
    n = psi.n
    amps = psi.vector.reshape((2,) * n)
    i_amps = amps * 1j
    cols = []
    for k in range(n):
        signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * (n - 1 - k))
        cols += [i_amps * signs, np.flip(amps, k) * signs, np.flip(i_amps, k)]
    cols.append(amps * -1j)
    return np.stack([c.reshape(-1) for c in cols], axis=1)


def _assert_columns_are_complex_products(n):
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
    product = singlet_product(n, pairs, n if n % 2 else None)
    for psi in [random_state(n, 70 + n), basis_state(n, n % (1 << n)), product,
                apply_local(product, LocalUnitary.random(n, 80 + n))]:
        got = _columns(tangent_matrix(psi)).view(np.float64)
        want = _complex_product_columns(psi).view(np.float64)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_float_columns_are_complex_products_bit_for_bit(n):
    # signed zeros included: a matrix dump prints them
    _assert_columns_are_complex_products(n)


@pytest.mark.parametrize("block_rows", [4, 16])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_blockwise_columns_are_complex_products_bit_for_bit(monkeypatch, n, block_rows):
    # small blocks write the real view block by block, leading qubits reading partner slabs
    monkeypatch.setattr(lie_action, "_BLOCK_ROWS", block_rows)
    _assert_columns_are_complex_products(n)
