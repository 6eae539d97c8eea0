"""State construction, indexing, products, and serialization.

Frozen amplitude positions below were computed by hand from the bit
convention: qubit 1 is the most significant bit of the basis code.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luorbit import (
    EXACT,
    FLOAT,
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
    tangent_matrix,
    tensor,
)
from luorbit.states import _exact_part

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
    for code in (1.7, 2.0):
        with pytest.raises(ValueError, match=f"basis code {code} is not an integer"):
            as_code(code, 3)


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
    assert psi.amplitude(0) == (1, 0)


def test_exact_states_hold_parts_over_one_denominator():
    psi = StateVector.from_rational([("1/2", "-3/4"), Fraction(1, 3), -2, (0, "5/6")])
    assert psi.scale == 12
    assert psi.parts.tolist() == [[[6, -9], [4, 0]], [[-24, 0], [0, 10]]]
    assert all(type(p) is int for p in psi.parts.ravel())
    with pytest.raises(ValueError):
        psi.parts[0, 0, 0] = 1
    # the tangent matrix reads the state's own tensor
    tm = tangent_matrix(psi)
    assert tm.parts is psi.parts and tm.scale == psi.scale


def test_from_rational_forms():
    # ints, Fractions, 'p/q' strings and (re, im) pairs of those
    psi = StateVector.from_rational(["1/2", 3, Fraction(-1, 3), ("1/2", "-1/3")])
    assert psi.vector == (
        (Fraction(1, 2), 0), (3, 0), (Fraction(-1, 3), 0), (Fraction(1, 2), Fraction(-1, 3))
    )
    assert all(type(part) is Fraction for amp in psi.vector for part in amp)
    with pytest.raises(TypeError):
        StateVector.from_rational([0.5, 0])
    # a bare sequence is a float state
    assert StateVector([1, 0]).mode == FLOAT


def test_exact_products_match_complex():
    # Gaussian-rational products and sums against Python complex arithmetic
    a, b = random_rational_state(2, 30), random_rational_state(1, 31)
    built = (tensor(a, b), embed_product(3, [((2, 3), a), ((1,), b)]), contract_pair(a, 1, 2))
    for got in built:
        want = got.to_float()
        flat = np.array([complex(re, im) for re, im in got.vector])
        assert np.allclose(flat / np.linalg.norm(flat), want.vector, atol=1e-15)
    assert tensor(a, b).to_float().allclose(tensor(a.to_float(), b.to_float()))
    swapped = embed_product(3, [((2, 3), a.to_float()), ((1,), b.to_float())])
    assert embed_product(3, [((2, 3), a), ((1,), b)]).to_float().allclose(swapped)


def _canonical(psi):
    assert math.gcd(psi.scale, *psi.parts.ravel()) == 1
    return psi.scale


def test_constructions_keep_the_canonical_scale():
    # the product's naive scale is 2 * 3 = 6, but every part is a multiple of 1/3
    a = StateVector.from_rational(["1/2", "1/2"])
    b = StateVector.from_rational(["2/3", "4/3"])
    assert tangent_matrix(tensor(a, b)).scale == 3
    assert _canonical(tensor(a, b)) == 3
    assert _canonical(embed_product(2, [((2,), a), ((1,), b)])) == 3
    # the residual [1/2 + 1/2, 1/2 + 1/6] = [1, 2/3] has scale 3, not psi's 30
    psi = StateVector.from_rational(["1/2", "1/2", "1/5", 0, 0, 0, "1/2", "1/6"])
    assert psi.scale == 30
    residual = contract_pair(psi, 1, 2)
    assert residual.vector == ((1, 0), (Fraction(2, 3), 0))
    assert tangent_matrix(residual).scale == _canonical(residual) == 3


@pytest.mark.parametrize("part", [1e-320, -4e-323, 1e-310j])
def test_subnormal_largest_part_rescales_like_a_normal_one(part):
    # complex division by a subnormal scale overflows on its reciprocal
    normal = part * 1e120
    got = StateVector([part, 0.0, 0.5 * part, 0.0]).vector
    want = StateVector([normal, 0.0, 0.5 * normal, 0.0]).vector
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=0.0, atol=1e-3)
    tiny, small = StateVector([part, 0.0]).vector, StateVector([part * 1e120, 0.0]).vector
    assert tiny.tobytes() == small.tobytes()


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
    b = StateVector.from_rational([(0, 3), 0, 0, (0, 3)])
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
    with pytest.raises(ValueError, match="at least 1"):
        embed_product(0, [])
    with pytest.raises(ValueError, match="out of range"):
        embed_product(2, [((1, 3), pair)])
    with pytest.raises(ValueError, match="has 2 qubits"):
        embed_product(3, [((1, 2, 3), pair)])
    with pytest.raises(ValueError, match="not an integer"):
        embed_product(2, [((1.0, 2), pair)])


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
    assert psi.amplitude(0b0000) == (1, 0)
    assert psi.amplitude(0b0011) == (1, 0)
    assert psi.amplitude(0b0001) == (0, 0)


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


def test_contract_pair_validates_its_qubits():
    psi = random_state(3, 13)
    with pytest.raises(ValueError, match="not an integer"):
        contract_pair(psi, 1.0, 2)
    with pytest.raises(ValueError, match="out of range"):
        contract_pair(psi, 1, 4)
    with pytest.raises(ValueError, match="distinct"):
        contract_pair(psi, 2, 2)


def test_contract_pair_to_scalar():
    psi = canonical_pair_state()
    got = contract_pair(psi, 1, 2)
    assert got.n == 0


# ---------------------------------------------------------------------------
# per-code references for the tensor-reshaping constructions
# ---------------------------------------------------------------------------


def _bit(code, n, k):
    return (code >> (n - k)) & 1


def _times(a, b):
    """a * b, for complex amplitudes or exact (re, im) pairs of Fractions."""
    if isinstance(a, tuple):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return a * b


def _plus(a, b):
    """a + b, for complex amplitudes or exact (re, im) pairs of Fractions."""
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


def _reference_embed(n, placements):
    """Amplitude of each code as the product of each factor's sub-code amplitude."""
    vectors = [factor.vector for _, factor in placements]
    out = []
    for code in range(1 << n):
        amp = (1, 0) if placements[0][1].mode == EXACT else 1
        for (pos, _), vector in zip(placements, vectors):
            sub = 0
            for p in pos:
                sub = (sub << 1) | _bit(code, n, p)
            amp = _times(amp, vector[sub])
        out.append(amp)
    return out


def _reference_contract(psi, l, lp):
    """<00| + <11| on qubits (l, lp), residual codes in ascending order."""
    n = psi.n
    vector = psi.vector
    partner = (1 << (n - l)) | (1 << (n - lp))
    return [
        _plus(vector[code], vector[code | partner])
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


def test_json_rejects_a_boolean_qubit_count():
    data = {"n": True, "mode": "float", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValueError, match="qubit count"):
        StateVector.from_json_dict(data)


def test_json_exact_rejects_float_parts():
    data = {
        "n": 0,
        "mode": "exact",
        "amplitudes": [[0.5, "0/1"]],
    }
    with pytest.raises(ValueError):
        StateVector.from_json_dict(data)


@pytest.mark.parametrize(
    "text",
    ["3", "-3", "3/4", "-3/4", "007/08", "-0/5", "1.5", " 3/4", "3/4\n", "1_0", "+3", "1e3",
     "\u0663", "3/-4", "1/0", "-1/00", "abc", "3/", "/4", "-", ""],
)
def test_exact_parts_parse_as_fraction_does(text):
    # plain 'p' and 'p/q' take a faster route; every string must still mean what Fraction says
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="zero denominator"):
            _exact_part(text)
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _exact_part(text)
        assert str(info.value) == str(exc)
        return
    num, den = _exact_part(text)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == want


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
