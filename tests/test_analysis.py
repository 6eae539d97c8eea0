"""Orbit dimensions, minimality, pairing classification, and factor extraction.

The dimension table frozen below is the package's ground truth: values
were derived by hand from the generator actions on each state (see the
individual comments) and double-checked against the independent numpy
rank oracle in test_rank.py.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import luorbit.analysis as analysis_mod
import luorbit.lie_action as lie_action
import luorbit.rank as rank_mod
import luorbit.states as states_mod
from luorbit import (
    EXACT,
    FLOAT,
    SUITES,
    InconsistentStructureError,
    LocalUnitary,
    NonCanonicalFactorError,
    NotMinimal,
    NotMinimalError,
    SingletPairing,
    StateVector,
    apply_local,
    basis_state,
    canonical_pair_state,
    classify_min_orbit,
    contract_pair,
    detect_singlet_pairs,
    detect_unentangled,
    embed_product,
    factor_state,
    is_minimum_orbit,
    min_orbit_dimension,
    orbit_dimension,
    orbit_report,
    pairing_equal,
    random_rational_state,
    random_state,
    singlet_product,
    tensor,
    verify_proposition,
)
from luorbit.tolerance import ORACLE_TOL, ROUNDOFF_ATOL


def ghz(n=3):
    amps = [0.0] * (1 << n)
    amps[0] = amps[-1] = 1.0
    return StateVector(amps)


def w_state():
    amps = [0.0] * 8
    amps[1] = amps[2] = amps[4] = 1.0
    return StateVector(amps)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_min_orbit_dimension_formula():
    # 3n/2 for even n, (3n+1)/2 for odd n
    assert [min_orbit_dimension(n) for n in range(1, 9)] == [2, 3, 5, 6, 8, 9, 11, 12]
    with pytest.raises(ValueError):
        min_orbit_dimension(0)


def test_canonical_dimension_table():
    assert orbit_dimension(basis_state(1, 0)) == 2
    assert orbit_dimension(canonical_pair_state()) == 3
    assert orbit_dimension(basis_state(2, 0)) == 4
    assert orbit_dimension(basis_state(3, 0)) == 6
    assert orbit_dimension(singlet_product(3, [(1, 2)], 3)) == 5
    assert orbit_dimension(ghz()) == 7
    assert orbit_dimension(w_state()) == 8
    assert orbit_dimension(random_state(3, 7)) == 9


def test_generic_two_qubit_dimension_is_5():
    # every 2-qubit state is LU-equivalent to a Schmidt form a|00> + b|11>;
    # for a != b the two triples span 5 directions and the last column adds
    # one more, so nothing at n=2 ever exceeds dimension 5
    assert orbit_dimension(random_state(2, 71)) == 5
    assert orbit_dimension(random_state(2, 72)) == 5


def test_orbit_dimension_is_lu_invariant():
    psi = random_state(4, 80)
    scrambled = apply_local(psi, LocalUnitary.random(4, 81))
    assert orbit_dimension(psi) == orbit_dimension(scrambled)


def test_theorem_guard_bounds_the_dimension_and_each_span():
    check = analysis_mod._check_theorems
    # the range theorem: min_orbit_dimension(n)..3n, and 2 at n = 1, 3..5 at n = 2
    for n, low, high in [(1, 2, 2), (2, 3, 5), (3, 5, 9), (6, 9, 18)]:
        for dim in (low, high):
            check(n, dim + 1, 0.1)
        for dim in (low - 1, high + 1):
            with pytest.raises(InconsistentStructureError, match="range theorem"):
                check(n, dim + 1, 0.1)
    # containment: no pair or lone span above the full rank
    check(4, 8, 0.1, [6, 4, 8])
    with pytest.raises(InconsistentStructureError, match="exceeds the full rank 8"):
        check(4, 8, 0.1, [6, 9, 4])


def test_is_minimum_orbit():
    verdict = is_minimum_orbit(canonical_pair_state())
    assert verdict
    assert verdict.is_minimal
    assert verdict.orbit_dimension == 3
    assert verdict.min_orbit_dimension == 3

    verdict = is_minimum_orbit(ghz())
    assert not verdict
    assert verdict.orbit_dimension == 7
    assert verdict.min_orbit_dimension == 5


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def test_detect_singlet_pairs_on_products():
    assert detect_singlet_pairs(singlet_product(4, [(1, 3), (2, 4)])) == ((1, 3), (2, 4))
    assert detect_singlet_pairs(singlet_product(2, [(1, 2)])) == ((1, 2),)
    assert detect_singlet_pairs(ghz()) == ()
    assert detect_singlet_pairs(random_state(3, 90)) == ()


def test_detect_singlet_pairs_survives_scrambling():
    psi = singlet_product(4, [(1, 4), (2, 3)])
    scrambled = apply_local(psi, LocalUnitary.random(4, 91))
    assert detect_singlet_pairs(scrambled) == ((1, 4), (2, 3))


def test_detect_unentangled():
    assert detect_unentangled(basis_state(3, 0)) == (1, 2, 3)
    assert detect_unentangled(singlet_product(3, [(1, 2)], 3)) == (3,)
    assert detect_unentangled(random_state(3, 92)) == ()
    assert detect_unentangled(ghz()) == ()


# ---------------------------------------------------------------------------
# pairing objects
# ---------------------------------------------------------------------------


def test_pairing_normalizes_and_validates():
    p = SingletPairing(n=4, pairs=frozenset({(3, 1), (2, 4)}))
    assert p.sorted_pairs == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        SingletPairing(n=4, pairs=frozenset({(1, 2), (2, 3)}))
    with pytest.raises(ValueError):
        SingletPairing(n=4, pairs=frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        SingletPairing(n=3, pairs=frozenset({(1, 2)}), lone=2)
    with pytest.raises(ValueError):
        SingletPairing(n=5, pairs=frozenset({(1, 2), (3, 4)}))


@pytest.mark.parametrize(
    "n, pairs, lone, valid",
    [
        (4, [(1, 1), (3, 4)], None, False),  # repeated qubit
        (4, [(1, 2), (2, 3)], None, False),  # overlapping pairs
        (4, [(1, 5), (2, 3)], None, False),  # out-of-range qubit
        (4, [(0, 1), (2, 3)], None, False),
        (5, [(1, 2), (3, 4)], 6, False),  # out-of-range lone qubit
        (4, [(1, 2), (3, 4)], 2, False),  # lone qubit with even n
        (5, [(1, 2), (3, 4)], None, False),  # missing lone qubit with odd n
        (5, [(1, 2), (3, 4)], 4, False),  # lone qubit inside a pair
        (4, [(1, 2)], None, False),  # incomplete cover
        (5, [(1, 2)], 3, False),
        (1, [], 1, True),
        (2, [(2, 1)], None, True),
        (4, [(3, 1), (2, 4)], None, True),
        (5, [(2, 5), (4, 1)], 3, True),
        (3, [(1, 2)], 3.0, False),  # non-integral lone qubit
        (4, [(1.0, 2), (3, 4)], None, False),  # non-integral pair member
        (3, [(1, 2, 3)], None, False),  # a three-qubit "pair"
    ],
)
def test_pairing_and_singlet_product_share_one_rule(n, pairs, lone, valid):
    pairs = frozenset(pairs)
    if valid:
        singlet_product(n, pairs, lone)
        pairing = SingletPairing(n=n, pairs=pairs, lone=lone)
        assert pairing.pairs == frozenset((min(a, b), max(a, b)) for a, b in pairs)
        return
    with pytest.raises(ValueError) as product_error:
        singlet_product(n, pairs, lone)
    with pytest.raises(ValueError) as pairing_error:
        SingletPairing(n=n, pairs=pairs, lone=lone)
    assert str(pairing_error.value) == str(product_error.value)


def test_pairing_equality():
    a = SingletPairing(n=4, pairs=frozenset({(1, 2), (3, 4)}))
    b = SingletPairing(n=4, pairs=frozenset({(4, 3), (2, 1)}))
    c = SingletPairing(n=4, pairs=frozenset({(1, 3), (2, 4)}))
    assert pairing_equal(a, b)
    assert not pairing_equal(a, c)
    d = SingletPairing(n=2, pairs=frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        pairing_equal(a, d)


def test_pairing_json_shape():
    p = SingletPairing(n=5, pairs=frozenset({(2, 5), (1, 4)}), lone=3)
    assert p.to_json_dict() == {"pairs": [[1, 4], [2, 5]], "lone": 3}


def test_pairing_and_singlet_product_take_numpy_qubits():
    # integral numpy qubits are stored and used as the ints they stand for
    import json

    p = SingletPairing(3, frozenset({(np.int64(1), 2)}), np.int64(3))
    assert type(p.lone) is int and {type(q) for pair in p.pairs for q in pair} == {int}
    assert json.dumps(p.to_json_dict()) == '{"pairs": [[1, 2]], "lone": 3}'
    assert p == SingletPairing(3, frozenset({(1, 2)}), 3)
    psi = singlet_product(3, [(np.int64(2), np.int64(1))], np.int64(3), mode=EXACT)
    assert np.array_equal(psi.parts, singlet_product(3, [(1, 2)], 3, mode=EXACT).parts)


def test_not_minimal_json_shape():
    out = classify_min_orbit(w_state())
    assert isinstance(out, NotMinimal)
    assert out.to_json_dict() == {"not_minimal": True, "orbit_dimension": 8}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_recovers_planted_pairing():
    plan = [(1, 4), (2, 6), (3, 5)]
    psi = apply_local(singlet_product(6, plan), LocalUnitary.random(6, 100))
    out = classify_min_orbit(psi)
    assert isinstance(out, SingletPairing)
    assert out.sorted_pairs == tuple(sorted(plan))
    assert out.lone is None


def test_classify_odd_n_finds_the_lone_qubit():
    psi = apply_local(singlet_product(5, [(2, 4), (3, 5)], 1), LocalUnitary.random(5, 101))
    out = classify_min_orbit(psi)
    assert out.lone == 1
    assert out.sorted_pairs == ((2, 4), (3, 5))


def test_classify_single_qubit():
    out = classify_min_orbit(random_state(1, 102))
    assert out.lone == 1
    assert out.sorted_pairs == ()


def test_classify_nonminimal_reports_dimensions():
    out = classify_min_orbit(ghz())
    assert isinstance(out, NotMinimal)
    assert out.orbit_dimension == 7
    assert out.min_orbit_dimension == 5


def test_classify_exact_backend():
    out = classify_min_orbit(singlet_product(4, [(1, 3), (2, 4)], mode=EXACT))
    assert isinstance(out, SingletPairing)
    assert out.sorted_pairs == ((1, 3), (2, 4))


def test_inconsistent_overlap_raises(monkeypatch):
    # defensive branch: a (hypothetical) minimal state whose detected pairs
    # overlap must error out rather than emit a malformed pairing
    psi = singlet_product(4, [(1, 2), (3, 4)])
    monkeypatch.setattr(
        analysis_mod, "detect_singlet_pairs", lambda tm, tol: ((1, 2), (2, 3))
    )
    with pytest.raises(InconsistentStructureError):
        analysis_mod.classify_min_orbit(psi)


def test_inconsistent_coverage_raises(monkeypatch):
    psi = singlet_product(4, [(1, 2), (3, 4)])
    monkeypatch.setattr(analysis_mod, "detect_singlet_pairs", lambda tm, tol: ())
    with pytest.raises(InconsistentStructureError):
        analysis_mod.classify_min_orbit(psi)


def _refuses_detected_unentangled(monkeypatch, n, pairs, lone, unentangled):
    psi = singlet_product(n, pairs, lone)
    monkeypatch.setattr(analysis_mod, "detect_unentangled", lambda tm, tol: unentangled)
    with pytest.raises(InconsistentStructureError) as error:
        analysis_mod.classify_min_orbit(psi)
    assert f"detected pairs {pairs} and unentangled qubits {list(unentangled)}" in str(error.value)


def test_inconsistent_detector_mismatch_raises(monkeypatch):
    _refuses_detected_unentangled(monkeypatch, 4, [(1, 2), (3, 4)], None, (4,))


@pytest.mark.parametrize("unentangled", [(1, 5), ()])  # two qubits, or none, where one is lone
def test_inconsistent_detector_mismatch_raises_at_odd_n(monkeypatch, unentangled):
    _refuses_detected_unentangled(monkeypatch, 5, [(1, 2), (3, 4)], 5, unentangled)


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


def test_factor_state_recovers_literal_products():
    psi = singlet_product(5, [(1, 4), (2, 3)], 5)
    out = factor_state(psi)
    assert out.pairs == ((1, 4), (2, 3))
    assert out.lone == 5
    assert out.residual.n == 1
    for factor in out.pair_factors:
        assert factor.allclose(canonical_pair_state())


def test_factor_state_reassembles():
    psi = singlet_product(4, [(1, 3), (2, 4)])
    out = factor_state(psi)
    rebuilt = embed_product(4, out.placements)
    assert rebuilt.proportional_to(psi)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("equal_bits", [True, False])
def test_factor_state_reassembly_reads_each_amplitude(monkeypatch, n, equal_bits):
    # psi is compared entry by entry, at ORACLE_TOL, with a multiple of the
    # canonical pairs tensored with the residual: twice that on one amplitude
    # is caught, half of it is not, on or off the pairs' equal bits
    pairs = [(1, 5), (2, 6), (3, 7), (4, 8)]
    lone = 9 if n == 9 else None
    pairing = SingletPairing(n, frozenset(pairs), lone)
    # the deviations keep the ranks of a product; the test is of the reassembly
    monkeypatch.setattr(analysis_mod, "classify_min_orbit", lambda tm, tol: pairing)
    code = 0 if equal_bits else 1 << (n - 1)
    for delta, caught in ((2 * ORACLE_TOL, True), (ORACLE_TOL / 2, False)):
        amplitudes = singlet_product(n, pairs, lone).vector.copy()
        amplitudes[code] += delta
        psi = StateVector(amplitudes)
        if caught:
            with pytest.raises(NonCanonicalFactorError, match="do not reassemble"):
                factor_state(psi)
        else:
            assert factor_state(psi).pairs == tuple(pairs)


def test_factor_state_exact_reassembly_is_exact(monkeypatch):
    # one amplitude 10**-30 off is no product of canonical pairs, in exact mode
    base = singlet_product(5, [(1, 4), (2, 3)], 5, mode=EXACT)
    assert factor_state(base).pairs == ((1, 4), (2, 3))
    pairing = SingletPairing(5, frozenset([(1, 4), (2, 3)]), 5)
    monkeypatch.setattr(analysis_mod, "classify_min_orbit", lambda tm, tol: pairing)
    for code in (0, 1 << 4):
        amplitudes = [Fraction(re) for re, _ in base.vector]
        amplitudes[code] += Fraction(1, 10**30)
        with pytest.raises(NonCanonicalFactorError, match="do not reassemble"):
            factor_state(StateVector(amplitudes, mode=EXACT))


def test_factor_state_tolerates_global_phase():
    base = singlet_product(4, [(1, 2), (3, 4)])
    psi = StateVector(np.exp(0.9j) * base.vector)
    assert factor_state(psi).pairs == ((1, 2), (3, 4))


def test_factor_state_exact():
    out = factor_state(singlet_product(4, [(1, 3), (2, 4)], mode=EXACT))
    assert out.pairs == ((1, 3), (2, 4))
    assert all(f.mode == EXACT for f in out.pair_factors)


def test_factor_state_rejects_nonminimal():
    with pytest.raises(NotMinimalError):
        factor_state(w_state())


def test_factor_state_rejects_scrambled_products():
    # LU images of products are minimal but not in canonical form; they
    # classify fine but cannot be factored literally
    psi = apply_local(singlet_product(4, [(1, 2), (3, 4)]), LocalUnitary.random(4, 110))
    with pytest.raises(NonCanonicalFactorError):
        factor_state(psi)
    assert isinstance(classify_min_orbit(psi), SingletPairing)


def test_factor_state_single_qubit():
    out = factor_state(basis_state(1, 0))
    assert out.pairs == ()
    assert out.lone == 1
    assert out.residual.n == 1


def _count_calls(monkeypatch, module, *names) -> list:
    """Wrap each module.<name> so that every call appends its name to the returned list."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_factor_state_builds_one_tangent_matrix(monkeypatch, mode):
    calls = _count_calls(monkeypatch, analysis_mod, "tangent_matrix")
    out = factor_state(singlet_product(7, [(1, 5), (2, 7), (3, 4)], 6, mode=mode))
    assert out.pairs == ((1, 5), (2, 7), (3, 4))
    assert calls == ["tangent_matrix"]


def _contract_in_turn(psi: StateVector, pairs) -> StateVector:
    """psi contracted against the canonical pair state one pair at a time, by ``contract_pair``."""
    labels, current = list(range(1, psi.n + 1)), psi
    for a, b in pairs:
        current = contract_pair(current, labels.index(a) + 1, labels.index(b) + 1)
        labels.remove(a)
        labels.remove(b)
    return current


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_factor_state_contracts_every_pair_in_one_pass(monkeypatch, mode):
    n, rng = 13, np.random.default_rng(355)
    order = [int(q) + 1 for q in rng.permutation(n)]
    pairs = [tuple(sorted(order[i : i + 2])) for i in range(0, n - 1, 2)]
    lone = random_rational_state(1, rng)
    placements = [(pair, canonical_pair_state(mode)) for pair in pairs]
    placements.append(((order[-1],), lone if mode == EXACT else lone.to_float()))
    psi = embed_product(n, placements)
    want = _contract_in_turn(psi, sorted(pairs))
    calls = _count_calls(monkeypatch, analysis_mod, "_contract_pairs")
    calls += _count_calls(monkeypatch, states_mod, "contract_pair")
    out = factor_state(psi)
    assert calls == ["_contract_pairs"]
    assert out.pairs == tuple(sorted(pairs)) and out.lone == order[-1]
    if mode == EXACT:
        assert (out.residual.parts.tolist(), out.residual.scale) == (want.parts.tolist(), want.scale)
    else:
        assert np.abs(out.residual.vector - want.vector).max() <= ROUNDOFF_ATOL


def test_factor_state_writes_only_live_rows(monkeypatch):
    # a canonical product at n = 12 has 64 nonzero amplitudes and 448 live
    # codes of 4096: R is factored from their rows, and no real view is built
    n = 12
    pairs = [(1, 9), (2, 4), (3, 12), (5, 6), (7, 11), (8, 10)]
    psi = embed_product(n, [(pair, canonical_pair_state()) for pair in pairs])
    live = lie_action.live_codes(psi.parts)
    assert live.size == 448
    written, built = [], []
    write, columns = lie_action._write_rows, lie_action.TangentMatrix.columns
    monkeypatch.setattr(
        lie_action, "_write_rows", lambda *args: written.append(args[2].shape[1]) or write(*args)
    )
    monkeypatch.setattr(
        lie_action.TangentMatrix, "columns", lambda tm, cols: built.append(tm.n) or columns(tm, cols)
    )
    out = factor_state(psi)
    assert out.pairs == tuple(sorted(pairs))
    assert 0 < sum(written) <= 2 * live.size
    assert built == []


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_frozen_ghz_tables():
    rep = orbit_report(ghz())
    assert rep.rank == 8
    assert rep.orbit_dimension == 7
    assert rep.min_orbit_dimension == 5
    assert not rep.is_minimal
    assert rep.pair_span == ((3, 5, 5), (5, 3, 5), (5, 5, 3))
    assert rep.lone_span == (4, 4, 4)
    assert rep.pairing is None


def test_report_frozen_product_tables():
    rep = orbit_report(basis_state(3, 0))
    assert rep.lone_span == (3, 3, 3)
    assert rep.orbit_dimension == 6

    rep = orbit_report(canonical_pair_state())
    assert rep.lone_span == (4, 4)
    assert rep.pair_span == ((3, 3), (3, 3))
    assert rep.is_minimal
    assert rep.pairing.sorted_pairs == ((1, 2),)


def test_report_mixed_lone_spans():
    rep = orbit_report(singlet_product(3, [(1, 2)], 3))
    # paired qubits read 4, the unentangled one reads 3
    assert rep.lone_span == (4, 4, 3)
    assert rep.pairing.lone == 3


def test_report_json_is_clean():
    rep = orbit_report(random_state(2, 120)).to_json_dict()
    assert set(rep) == {
        "n",
        "rank",
        "orbit_dimension",
        "min_orbit_dimension",
        "is_minimal",
        "pair_span",
        "lone_span",
        "pairing",
        "diagnostics",
    }
    assert rep["diagnostics"]["backend"] == "float"
    # inf gap ratios must serialize as null, never as Infinity
    import json

    json.dumps(rep, allow_nan=False)


def test_report_captures_pairing_errors(monkeypatch):
    psi = singlet_product(4, [(1, 2), (3, 4)])
    monkeypatch.setattr(analysis_mod, "detect_singlet_pairs", lambda tm, tol: ())
    rep = analysis_mod.orbit_report(psi)
    assert rep.is_minimal
    assert rep.pairing is None
    assert "pairing_error" in rep.diagnostics


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_report_computes_each_rank_once(monkeypatch, mode):
    # full rank, every pair span and every lone span, even though the
    # report and the classification it embeds both ask for all of them:
    # one verdict made for each, whichever way it was read
    calls = _count_calls(monkeypatch, rank_mod, "RankResult")
    n = 5
    rep = orbit_report(singlet_product(n, [(1, 3), (2, 5)], 4, mode=mode))
    assert rep.pairing.sorted_pairs == ((1, 3), (2, 5))
    assert len(calls) == 1 + math.comb(n, 2) + n


def _full_height_views(monkeypatch, psi) -> int:
    """How many views that _float_rank decomposes during orbit_report(psi) have every row.

    A verdict read from R does not pass through _float_rank, so every view
    it decomposes is the real view's columns.
    """
    heights = []
    original = rank_mod._float_rank

    def spy(view, tol):
        heights.append(view.shape[0])
        return original(view, tol)

    monkeypatch.setattr(rank_mod, "_float_rank", spy)
    orbit_report(psi)
    return heights.count(2 ** (psi.n + 1))


def test_report_reads_every_verdict_from_r(monkeypatch):
    # every verdict is read from the state's R factor, the rank-deficient
    # pair and lone spans included: none slices the real view
    assert _full_height_views(monkeypatch, random_state(8, 140)) == 0
    pairs = [(1, 5), (2, 3), (4, 8), (6, 7)]
    assert _full_height_views(monkeypatch, singlet_product(8, pairs)) == 0
    lone_product = singlet_product(9, pairs, lone=9)
    assert _full_height_views(monkeypatch, lone_product) == 0
    scrambled = apply_local(lone_product, LocalUnitary.random(9, 141))
    assert _full_height_views(monkeypatch, scrambled) == 0
    # R is square at every n, and serves the smallest states too
    for n in (1, 2, 3):
        assert _full_height_views(monkeypatch, random_state(n, 142 + n)) == 0
        product = singlet_product(n, [(1, 2)] if n > 1 else [], lone=n if n % 2 else None)
        assert _full_height_views(monkeypatch, product) == 0
        scrambled = apply_local(product, LocalUnitary.random(n, 145 + n))
        assert _full_height_views(monkeypatch, scrambled) == 0


@pytest.mark.parametrize("n", [8, 12])
def test_haar_report_runs_one_svd(monkeypatch, n):
    # the full selection is certified as full column rank, from R at n = 8
    # and from the row sample's one SVD at n = 12, past the sample's row
    # gate; every pair and lone verdict inherits from it
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    report = orbit_report(random_state(n, 150 + n))
    width = 3 * n + 1
    sampled = 2 ** (n + 1) > lie_action._SAMPLE_PAST_ROWS
    assert report.rank == width
    assert shapes == [(2 * lie_action._sample(n)[0].size, width) if sampled else (1, width, width)]
    assert {span for row in report.pair_span for span in row} == {3, 6}
    assert report.lone_span == (4,) * n


def test_scrambled_singlet_report_stacks_only_its_planted_pairs(monkeypatch):
    # the float Gram certifies every other pair and every lone qubit as full
    # column rank: after the full selection's SVD, one stack holds the six
    # planted pairs alone, and no lone slice is decomposed
    n = 12
    pairs = [(1, 7), (2, 9), (3, 12), (4, 8), (5, 11), (6, 10)]
    psi = apply_local(singlet_product(n, pairs), LocalUnitary.random(n, 160))
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    report = orbit_report(psi)
    width = 3 * n + 1
    assert shapes == [(1, width, width), (len(pairs), width, 6)]
    assert report.pairing.sorted_pairs == tuple(pairs)
    assert report.lone_span == (4,) * n


def test_report_past_one_block_builds_no_real_view(monkeypatch):
    # at n = 11, R is streamed from the state in row blocks: the report builds
    # no real view and factors no matrix of its 2^(n+1) rows
    n = 11
    rows, built = [], []
    for name in ("svd", "qr"):

        def spy(a, *args, _factor=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return _factor(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    columns = lie_action.TangentMatrix.columns

    def columns_spy(tm, cols):
        built.append(tm.n)
        return columns(tm, cols)

    monkeypatch.setattr(lie_action.TangentMatrix, "columns", columns_spy)
    pairs = [(1, 7), (2, 10), (3, 5), (4, 11), (6, 9)]
    product = apply_local(singlet_product(n, pairs, lone=8), LocalUnitary.random(n, 142))
    for psi in (random_state(n, 143), product):
        rows.clear()
        report = orbit_report(psi)
        assert built == []
        assert rows and max(rows) < 1 << (n + 1)
    assert report.pairing.sorted_pairs == tuple(sorted(pairs))
    assert report.pairing.lone == 8


def test_dimensions_add_across_tensor_products():
    a, b = random_state(2, 130), random_state(2, 131)
    assert orbit_dimension(tensor(a, b)) == orbit_dimension(a) + orbit_dimension(b)


def test_only_verify_and_fallbacks_generate_columns(monkeypatch):
    # reports and factoring read R or the Gram alone; of the verify suites only
    # twocommonstrong generates columns, its pair's six once a trial
    asked = []
    columns = lie_action.TangentMatrix.columns

    def columns_spy(tm, cols):
        cols = list(cols)
        asked.append(len(cols))
        return columns(tm, cols)

    monkeypatch.setattr(lie_action.TangentMatrix, "columns", columns_spy)
    for n in (4, 7, 9):
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
        lone = n if n % 2 else None
        for mode in (FLOAT, EXACT):
            product = singlet_product(n, pairs, lone, mode=mode)
            orbit_report(product)
            placements = [(pair, canonical_pair_state(mode=mode)) for pair in pairs]
            if lone is not None:
                placements.append(((lone,), basis_state(1, 1, mode=mode)))
            factor_state(embed_product(n, placements))
        orbit_report(random_state(n, 150 + n))
        orbit_report(random_rational_state(n, 160 + n))
        orbit_report(apply_local(product, LocalUnitary.random(n, 170 + n)))
    assert asked == []
    for n in (6, 8):
        for name, (_, min_n, max_n) in SUITES.items():
            if min_n <= n and (max_n is None or n <= max_n):
                assert verify_proposition(name, n, trials=4, seed=180 + n).passed, name
                assert asked == ([6] * 4 if name == "twocommonstrong" else []), (name, n)
                asked.clear()
