"""Orbit dimensions, minimality, pairing classification, and factor extraction.

The dimension table frozen below is the package's ground truth: values
were derived by hand from the generator actions on each state (see the
individual comments) and double-checked against the independent numpy
rank oracle in test_rank.py.
"""

import math

import numpy as np
import pytest

import luorbit.analysis as analysis_mod
import luorbit.rank as rank_mod
from luorbit import (
    EXACT,
    FLOAT,
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
    detect_singlet_pairs,
    detect_unentangled,
    embed_product,
    factor_state,
    is_minimum_orbit,
    min_orbit_dimension,
    orbit_dimension,
    orbit_report,
    pairing_equal,
    random_state,
    singlet_product,
    tensor,
)


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


def test_inconsistent_detector_mismatch_raises(monkeypatch):
    psi = singlet_product(4, [(1, 2), (3, 4)])
    monkeypatch.setattr(analysis_mod, "detect_unentangled", lambda tm, tol: (4,))
    with pytest.raises(InconsistentStructureError):
        analysis_mod.classify_min_orbit(psi)


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
    # report and the classification it embeds both ask for all of them
    calls = _count_calls(monkeypatch, rank_mod, "_float_rank", "_exact_rank")
    n = 5
    rep = orbit_report(singlet_product(n, [(1, 3), (2, 5)], 4, mode=mode))
    assert rep.pairing.sorted_pairs == ((1, 3), (2, 5))
    assert len(calls) == 1 + math.comb(n, 2) + n


def test_dimensions_add_across_tensor_products():
    a, b = random_state(2, 130), random_state(2, 131)
    assert orbit_dimension(tensor(a, b)) == orbit_dimension(a) + orbit_dimension(b)
