"""State construction, indexing, products, and serialization.

Frozen amplitude positions below were computed by hand from the bit
convention: qubit 1 is the most significant bit of the basis code.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luorbit import (
    EXACT,
    FLOAT,
    RationalComplex,
    StateVector,
    ZeroResidualError,
    ZeroStateError,
    as_code,
    basis_state,
    canonical_pair_state,
    contract_pair,
    embed_product,
    load_state,
    random_rational_state,
    random_state,
    save_state,
    singlet_product,
    tensor,
)

RT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# basis codes
# ---------------------------------------------------------------------------


def test_as_code_accepts_bitstrings_and_sequences():
    assert as_code("101", 3) == 5
    assert as_code([1, 0, 1], 3) == 5
    assert as_code(5, 3) == 5
    with pytest.raises(ValueError):
        as_code("10", 3)
    with pytest.raises(ValueError):
        as_code(8, 3)


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------


def test_float_states_are_normalized_and_frozen():
    psi = StateVector([2.0, 0.0, 0.0, 0.0])
    assert psi.n == 2
    assert psi.mode == FLOAT
    assert psi.vector[0] == 1.0
    with pytest.raises(ValueError):
        psi.vector[0] = 0.5


def test_exact_states_keep_the_representative():
    psi = StateVector.from_rational([1, 0, 0, 1])
    assert psi.mode == EXACT
    assert psi.norm_squared == Fraction(2)
    assert psi.amplitude(0) == RationalComplex(1, 0)


def test_zero_vector_rejected():
    with pytest.raises(ZeroStateError):
        StateVector([0.0, 0.0])
    with pytest.raises(ZeroStateError):
        StateVector.from_rational([0, 0])


def test_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])


def test_basis_state_by_bits():
    psi = basis_state(3, "010")
    assert psi.amplitude(2) == 1.0
    assert float(np.sum(np.abs(psi.vector))) == 1.0


def test_proportional_to_ignores_global_phase_and_scale():
    psi = random_state(3, 5)
    rot = StateVector(np.exp(0.7j) * psi.vector)
    assert psi.proportional_to(rot)
    other = random_state(3, 6)
    assert not psi.proportional_to(other)


def test_proportional_to_exact_is_exact():
    a = StateVector.from_rational([1, 0, 0, 1])
    b = StateVector.from_rational([RationalComplex(0, 3), 0, 0, RationalComplex(0, 3)])
    assert a.proportional_to(b)
    c = StateVector.from_rational([1, 0, 0, 2])
    assert not a.proportional_to(c)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_tensor_matches_kron():
    a, b = random_state(2, 1), random_state(1, 2)
    got = tensor(a, b).vector
    want = np.kron(a.vector, b.vector)
    assert np.allclose(got, want, atol=1e-12)


def test_tensor_exact_norm_is_multiplicative():
    a = random_rational_state(2, 3)
    b = random_rational_state(1, 4)
    assert tensor(a, b).norm_squared == a.norm_squared * b.norm_squared


def test_embed_product_reorders_qubits():
    """Placing |x> on qubit 2 and |y> on qubit 1 swaps the tensor order."""
    x, y = random_state(1, 8), random_state(1, 9)
    swapped = embed_product(2, [((2,), x), ((1,), y)])
    direct = tensor(y, x)
    assert np.allclose(swapped.vector, direct.vector, atol=1e-12)


def test_embed_product_interleaved_pairs():
    # pair on (1,3) and pair on (2,4): amplitude 1/2 wherever bit1==bit3
    # and bit2==bit4, i.e. codes 0000, 0101, 1010, 1111 = 0, 5, 10, 15
    pair = canonical_pair_state()
    psi = embed_product(4, [((1, 3), pair), ((2, 4), pair)])
    hot = {0, 5, 10, 15}
    for code in range(16):
        want = 0.5 if code in hot else 0.0
        assert abs(psi.amplitude(code) - want) < 1e-12


def test_embed_product_must_partition():
    pair = canonical_pair_state()
    with pytest.raises(ValueError):
        embed_product(4, [((1, 2), pair)])
    with pytest.raises(ValueError):
        embed_product(4, [((1, 2), pair), ((2, 3), pair)])


def test_singlet_product_matches_embed():
    psi = singlet_product(4, [(1, 3), (2, 4)])
    pair = canonical_pair_state()
    want = embed_product(4, [((1, 3), pair), ((2, 4), pair)])
    assert psi.allclose(want)


def test_singlet_product_lone_qubit_in_ground_state():
    psi = singlet_product(3, [(1, 2)], lone=3)
    # amplitudes 1/sqrt(2) at codes 000 and 110; lone qubit contributes |0>
    assert abs(psi.amplitude(0) - 1 / RT2) < 1e-12
    assert abs(psi.amplitude(6) - 1 / RT2) < 1e-12
    assert abs(psi.amplitude(1)) == 0.0


def test_singlet_product_validates_pairing():
    with pytest.raises(ValueError):
        singlet_product(4, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        singlet_product(4, [(1, 2)])  # incomplete cover
    with pytest.raises(ValueError):
        singlet_product(3, [(1, 2)], lone=None)  # odd n needs a lone qubit
    with pytest.raises(ValueError):
        singlet_product(4, [(1, 1), (2, 3)])


def test_singlet_product_exact_mode():
    psi = singlet_product(4, [(1, 2), (3, 4)], mode=EXACT)
    assert psi.mode == EXACT
    assert psi.norm_squared == Fraction(4)
    assert psi.amplitude(0b0000) == RationalComplex(1, 0)
    assert psi.amplitude(0b0011) == RationalComplex(1, 0)
    assert psi.amplitude(0b0001).is_zero


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contract_pair_peels_a_canonical_pair():
    rest = random_state(2, 12)
    psi = embed_product(4, [((1, 3), canonical_pair_state()), ((2, 4), rest)])
    got = contract_pair(psi, 1, 3)
    assert got.n == 2
    assert got.proportional_to(rest)


def test_contract_pair_zero_residual():
    # the pair (1,2) of this state never has bits 00 or 11 populated
    psi = StateVector([0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ZeroResidualError):
        contract_pair(psi, 1, 2)


def test_contract_pair_to_scalar():
    psi = canonical_pair_state()
    got = contract_pair(psi, 1, 2)
    assert got.n == 0


# ---------------------------------------------------------------------------
# per-code references for the tensor-reshaping constructions
# ---------------------------------------------------------------------------


def _bit(code, n, k):
    return (code >> (n - k)) & 1


def _reference_embed(n, placements):
    """Amplitude of each code as the product of each factor's sub-code amplitude."""
    out = []
    for code in range(1 << n):
        amp = 1
        for pos, factor in placements:
            sub = 0
            for p in pos:
                sub = (sub << 1) | _bit(code, n, p)
            amp = amp * factor.vector[sub]
        out.append(amp)
    return out


def _reference_contract(psi, l, lp):
    """<00| + <11| on qubits (l, lp), residual codes in ascending order."""
    n = psi.n
    partner = (1 << (n - l)) | (1 << (n - lp))
    return [
        psi.vector[code] + psi.vector[code | partner]
        for code in range(1 << n)
        if _bit(code, n, l) == _bit(code, n, lp) == 0
    ]


def _random_factor(m, seed, mode):
    return random_rational_state(m, seed) if mode == EXACT else random_state(m, seed)


def _same_amplitudes(got, reference):
    if got.mode == EXACT:
        return got.vector == tuple(reference)
    return got.allclose(StateVector(reference, mode=FLOAT))


@given(
    st.sampled_from([FLOAT, EXACT]),
    st.integers(min_value=1, max_value=6).flatmap(lambda n: st.permutations(range(n))),
    st.data(),
)
def test_embed_product_matches_per_code_reference(mode, order, data):
    n = len(order)
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    placements = []
    for a, b in zip(bounds, bounds[1:]):
        factor = _random_factor(b - a, data.draw(st.integers(0, 999)), mode)
        placements.append((tuple(q + 1 for q in order[a:b]), factor))
    assert _same_amplitudes(embed_product(n, placements), _reference_embed(n, placements))


@given(st.sampled_from([FLOAT, EXACT]), st.integers(min_value=2, max_value=6), st.data())
def test_contract_pair_matches_per_code_reference(mode, n, data):
    l, lp = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    psi = _random_factor(n, data.draw(st.integers(0, 999)), mode)
    reference = _reference_contract(psi, min(l, lp), max(l, lp))
    assert _same_amplitudes(contract_pair(psi, l, lp), reference)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_float():
    psi = random_state(3, 21)
    again = StateVector.from_json_dict(psi.to_json_dict())
    # re-normalization on load may differ in the last bit, nothing more
    assert again.allclose(psi, tol=1e-15)


def test_json_roundtrip_exact():
    psi = random_rational_state(3, 22)
    data = psi.to_json_dict()
    assert data["mode"] == EXACT
    # all parts serialized as explicit 'p/q' strings
    assert all(
        isinstance(part, str) and "/" in part for re_im in data["amplitudes"] for part in re_im
    )
    again = StateVector.from_json_dict(data)
    assert again.vector == psi.vector
    assert again.norm_squared == psi.norm_squared


def test_json_rejects_malformed_input():
    good = random_state(1, 0).to_json_dict()
    for corrupt in [
        {},
        {**good, "mode": "decimal"},
        {**good, "amplitudes": good["amplitudes"][:1]},
        {**good, "amplitudes": [[1.0], [0.0, 0.0]]},
        {**good, "amplitudes": [[True, 0.0], [0.0, 0.0]]},
        {**good, "n": "1"},
        [],
    ]:
        with pytest.raises(ValueError):
            StateVector.from_json_dict(corrupt)


def test_json_exact_rejects_float_parts():
    data = {
        "n": 0,
        "mode": "exact",
        "amplitudes": [[0.5, "0/1"]],
    }
    with pytest.raises(ValueError):
        StateVector.from_json_dict(data)


def test_save_load_roundtrip(tmp_path):
    psi = singlet_product(4, [(1, 4), (2, 3)], mode=EXACT)
    path = tmp_path / "state.json"
    save_state(psi, path)
    again = load_state(path)
    assert again.vector == psi.vector
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["n"] == 4


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def test_random_state_is_seed_deterministic():
    assert random_state(3, 77).allclose(random_state(3, 77), tol=0)
    assert not random_state(3, 77).allclose(random_state(3, 78))


def test_random_rational_state_is_seed_deterministic():
    a, b = random_rational_state(2, 5), random_rational_state(2, 5)
    assert a.vector == b.vector


def test_random_state_accepts_generator():
    rng = np.random.default_rng(4)
    psi = random_state(2, rng)
    assert psi.n == 2
