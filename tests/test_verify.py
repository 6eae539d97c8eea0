"""The randomized suite runner: registry, determinism, failure records."""

import sys
from itertools import combinations

import numpy as np
import pytest

import luorbit.lie_action as lie_action
import luorbit.verify as verify_mod
from luorbit import SUITES, StateVector, span_dims, verify_proposition
from luorbit.states import EXACT, FLOAT


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_small_run(name):
    _, min_n, _ = SUITES[name]
    n = max(3, min_n)
    report = verify_proposition(name, n=n, trials=12, seed=2024)
    assert report.passed, [f.messages for f in report.failures]
    assert report.suite == name
    assert report.trials == 12
    assert "PASS" in report.summary_line()


@pytest.mark.parametrize("n", [2, 4])
def test_suites_pass_at_other_sizes(n):
    for name in SUITES:
        _, min_n, max_n = SUITES[name]
        if n < min_n or (max_n is not None and n > max_n):
            continue
        report = verify_proposition(name, n=n, trials=6, seed=n)
        assert report.passed, (name, [f.messages for f in report.failures])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_proposition("nosuchsuite", n=3, trials=1, seed=0)


def test_qubit_bounds_enforced():
    with pytest.raises(ValueError):
        verify_proposition("twocommonstrong", n=1, trials=1, seed=0)
    with pytest.raises(ValueError):
        verify_proposition("bipartiteranksadd", n=7, trials=1, seed=0)


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        verify_proposition("triplesprop", n=2, trials=0, seed=0)


def test_reports_are_deterministic():
    a = verify_proposition("ranktripluinv", n=3, trials=5, seed=9)
    b = verify_proposition("ranktripluinv", n=3, trials=5, seed=9)
    assert a == b
    c = verify_proposition("ranktripluinv", n=3, trials=5, seed=10)
    assert a != c or a.failures == c.failures  # seeds differ, reports may too


def test_tolerance_abuse_produces_structured_failures():
    # cranking the rank tolerance far past sanity makes honest instances
    # violate the subset floor; the report must carry replayable evidence
    report = verify_proposition("minrankMstrong", n=3, trials=4, seed=0, tol=0.45)
    assert not report.passed
    assert "FAIL" in report.summary_line()
    failure = report.failures[0]
    assert failure.messages
    assert "floor" in failure.messages[0]
    # the dumped state reloads and is a genuine 3-qubit state
    reloaded = StateVector.from_json_dict(failure.states[0])
    assert reloaded.n == 3


def test_registry_is_complete():
    assert set(SUITES) == {
        "triplesprop",
        "ranktripluinv",
        "twocommonstrong",
        "twocommonstronggen",
        "twotripspan5",
        "minrankMstrong",
        "bipartiteranksadd",
        "twotripspan3factors",
        "trippluslonelyspan3",
        "unentrank",
        "pair_span_trichotomy",
        "minorbclassthm_roundtrip",
    }


def test_inconsistent_classification_is_a_trial_failure():
    # at tol 0.45 a scrambled pair product can look minimal with no pair
    # detected; classify_min_orbit raises, and the suite must record that
    report = verify_proposition("minorbclassthm_roundtrip", n=4, trials=10, seed=0, tol=0.45)
    assert not report.passed
    failure = next(f for f in report.failures if "classification failed" in f.messages[0])
    assert StateVector.from_json_dict(failure.states[0]).n == 4


def test_ranktripluinv_reports_failures_in_subset_order(monkeypatch):
    # spans are LU-invariant, so force disagreements: the scrambled state's
    # ranks (the second family asked) gain 1 on every third selection
    asked = []

    def disagreeing(tm, selectors, tol):
        asked.append(tm)
        ranks = span_dims(tm, selectors, tol)
        bump = len(asked) % 2 == 0
        return [r + (bump and i % 3 == 0) for i, r in enumerate(ranks)]

    monkeypatch.setattr(verify_mod, "span_dims", disagreeing)
    n = 4
    report = verify_proposition("ranktripluinv", n=n, trials=2, seed=3, tol=0.3)
    queries = [
        (subset, include_last)
        for size in range(1, n + 1)
        for subset in combinations(range(1, n + 1), size)
        for include_last in (False, True)
    ]
    assert len(report.failures) == 2
    for failure in report.failures:
        prefixes = [m.split(" changed")[0] for m in failure.messages]
        assert prefixes == [
            f"span of triples {subset} (last={include_last})"
            for i, (subset, include_last) in enumerate(queries)
            if i % 3 == 0
        ]


def test_each_tangent_matrix_streams_its_live_rows_once(monkeypatch):
    # R serves every float reader, the float Gram and the twotripspan5
    # complements included, and the Gram every exact one: each matrix these
    # suites build writes its live rows in one stream, and no other rows
    built, streams = [], []
    row_blocks, tangent_matrix = lie_action._row_blocks, verify_mod.tangent_matrix

    def blocks_spy(parts, codes, bits=None, last=True):
        streams.append((parts, codes, bits, last))
        return row_blocks(parts, codes, bits, last)

    def matrix_spy(psi):
        built.append(tangent_matrix(psi))
        return built[-1]

    # wherever a module of the package holds the stream, so a copy imported by name is seen too
    for name, module in list(sys.modules.items()):
        if name.startswith("luorbit") and vars(module).get("_row_blocks") is row_blocks:
            monkeypatch.setattr(module, "_row_blocks", blocks_spy)
    monkeypatch.setattr(verify_mod, "tangent_matrix", matrix_spy)
    # R streamed, not built from the factors of a product state
    monkeypatch.setattr(lie_action, "_product_r", lambda tm: None)
    for n in (6, 8):
        for name in ("triplesprop", "twocommonstronggen", "twotripspan5"):
            built.clear()
            streams.clear()
            assert verify_proposition(name, n=n, trials=6, seed=40 + n).passed, (name, n)
            assert built and len(streams) == len(built), (name, n)
            for tm in built:
                live = lie_action.live_codes(tm.parts)
                mine = [
                    (bits, last)
                    for parts, codes, bits, last in streams
                    if np.array_equal(parts, tm.parts) and np.array_equal(codes, live)
                ]
                assert mine == [(None, True)], (name, n, tm.mode)
            if name == "triplesprop":
                assert {tm.mode for tm in built} == {FLOAT, EXACT}, n
