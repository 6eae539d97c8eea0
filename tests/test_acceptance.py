"""Release gate: five end-to-end criteria, one reported line each.

Each criterion prints a PASS/FAIL line into the pytest terminal summary
(see conftest.py) with its runtime, so a green run shows the whole gate
at a glance.  Criteria:

1. canonical dimension table, integer-exact with healthy spectral gaps, < 1 s
2. classification round-trip at n in {2,3,4,5,6,8}, 100 trials each, < 60 s
3. seven property suites, >= 200 fresh instances each at n <= 4, zero violations
4. float/exact backend agreement on 50 rational states (all canonical ones
   included), full matrix and every triple pair, < 30 s
5. 200 generic states classify NotMinimal and 200 scrambled pair products
   classify minimal with a valid pairing; no structural inconsistencies
"""

import math
import time

import numpy as np
import pytest

from luorbit import (
    EXACT,
    InconsistentStructureError,
    LocalUnitary,
    NotMinimal,
    SingletPairing,
    StateVector,
    apply_local,
    basis_state,
    canonical_pair_state,
    classify_min_orbit,
    orbit_report,
    pairing_equal,
    random_rational_state,
    random_state,
    real_rank,
    singlet_product,
    span_dim,
    tangent_matrix,
    verify_proposition,
)
from luorbit.rank import ColumnSelector


@pytest.fixture
def accept(request):
    """Record one PASS/FAIL line for the terminal summary."""
    config = request.config
    if not hasattr(config, "_acceptance_lines"):
        config._acceptance_lines = []
    # test names follow test_criterion_<id>_...
    criterion = request.node.name.split("_")[2]

    def _record(started: float, detail: str):
        elapsed = time.perf_counter() - started
        config._acceptance_lines.append(
            f"[criterion {criterion}] PASS — {detail} ({elapsed:.2f} s)"
        )

    yield _record
    if getattr(request.node, "rep_failed", False):
        config._acceptance_lines.append(
            f"[criterion {criterion}] FAIL — see {request.node.nodeid}"
        )


def ghz(n=3, mode="float"):
    amps = [0] * (1 << n)
    amps[0] = amps[-1] = 1
    if mode == EXACT:
        return StateVector.from_rational(amps)
    return StateVector([float(a) for a in amps])


def w(n=3, mode="float"):
    amps = [0] * (1 << n)
    for k in range(n):
        amps[1 << k] = 1
    if mode == EXACT:
        return StateVector.from_rational(amps)
    return StateVector([float(a) for a in amps])


def canonical_states(mode="float"):
    return [
        ("ground_1", basis_state(1, 0, mode=mode), 2),
        ("pair", canonical_pair_state(mode=mode), 3),
        ("ground_2", basis_state(2, 0, mode=mode), 4),
        ("ground_3", basis_state(3, 0, mode=mode), 6),
        ("pair_x_qubit", singlet_product(3, [(1, 2)], 3, mode=mode), 5),
        ("ghz_3", ghz(mode=mode), 7),
        ("w_3", w(mode=mode), 8),
    ]


#: Orbit dimensions of named families, derived by hand from the stabilizer
#: algebra, the kernel of the tangent matrix (orbit dimension = 3n minus its
#: dimension): GHZ_n is stabilized by the traceless combinations of the z
#: generators (n - 1 dimensions), W_n by the sum of the z generators combined
#: with n - 2 times the phase (1), and a basis state by each qubit's z
#: generator combined with the phase (n).
_NAMED_FAMILIES = {
    "ghz": (ghz, lambda n: 2 * n + 1),
    "w": (w, lambda n: 3 * n - 1),
    "basis": (lambda n, mode: basis_state(n, (1 << n) // 3, mode=mode), lambda n: 2 * n),
}

_NAMED_FAMILY_CASES = (
    [(f, n, mode, False) for f in _NAMED_FAMILIES for n in range(3, 8) for mode in ("float", EXACT)]
    + [(f, n, "float", False) for f in _NAMED_FAMILIES for n in (11, 12, 13)]
    + [(f, n, "float", True) for f in _NAMED_FAMILIES for n in (3, 4, 7, 11)]
)


@pytest.mark.parametrize("family, n, mode, scrambled", _NAMED_FAMILY_CASES)
def test_named_families_have_their_orbit_dimensions(family, n, mode, scrambled):
    build, dimension = _NAMED_FAMILIES[family]
    psi = build(n, mode)
    if scrambled:
        psi = apply_local(psi, LocalUnitary.random(n, 400 + n))
    assert real_rank(tangent_matrix(psi)).rank - 1 == dimension(n)


def test_no_theorem_guard_fires_at_the_default_tol():
    # orbit_report and classify_min_orbit check every verdict against the
    # range theorem and containment; on the canonical table and the named
    # families, in both modes and scrambled, none fires
    states = [psi for mode in ("float", EXACT) for _, psi, _ in canonical_states(mode)]
    for family, n, mode, scrambled in _NAMED_FAMILY_CASES:
        psi = _NAMED_FAMILIES[family][0](n, mode)
        states.append(apply_local(psi, LocalUnitary.random(n, 400 + n)) if scrambled else psi)
    for psi in states:
        report = orbit_report(psi)
        assert "pairing_error" not in report.diagnostics
        classify_min_orbit(psi)


def random_pairing(n, rng):
    order = [int(q) + 1 for q in rng.permutation(n)]
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)]
    lone = order[-1] if n % 2 else None
    return pairs, lone


def test_criterion_1_canonical_table(accept):
    started = time.perf_counter()
    checked = 0
    for name, psi, want in canonical_states():
        result = real_rank(tangent_matrix(psi))
        assert result.rank - 1 == want, f"{name}: dimension {result.rank - 1} != {want}"
        assert result.gap_ratio >= 1e6, f"{name}: gap ratio {result.gap_ratio}"
        checked += 1
    generic = real_rank(tangent_matrix(random_state(3, 7)))
    assert generic.rank - 1 == 9
    assert generic.gap_ratio >= 1e6
    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"table took {elapsed:.3f} s"
    accept(started, f"all {checked} canonical dimensions integer-exact")


def test_criterion_2_roundtrip(accept):
    started = time.perf_counter()
    trials_per_n = 100
    total = 0
    for n in (2, 3, 4, 5, 6, 8):
        root = np.random.SeedSequence(1000 + n)
        for child in root.spawn(trials_per_n):
            rng = np.random.default_rng(child)
            pairs, lone = random_pairing(n, rng)
            psi = apply_local(
                singlet_product(n, pairs, lone), LocalUnitary.random(n, rng)
            )
            out = classify_min_orbit(psi)
            expected = SingletPairing(n=n, pairs=frozenset(pairs), lone=lone)
            assert isinstance(out, SingletPairing), f"n={n}: classified {out}"
            assert pairing_equal(out, expected), (
                f"n={n}: recovered {out.to_json_dict()}, planted {expected.to_json_dict()}"
            )
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"round-trip took {elapsed:.1f} s"
    accept(started, f"{total}/{total} pairings recovered across n=2..8")


def test_criterion_3_property_suites(accept):
    started = time.perf_counter()
    suites = (
        "triplesprop",
        "pair_span_trichotomy",
        "minrankMstrong",
        "ranktripluinv",
        "bipartiteranksadd",
        "unentrank",
        "twocommonstrong",
    )
    total = 0
    for name in suites:
        for n, trials in ((3, 100), (4, 100)):
            report = verify_proposition(name, n=n, trials=trials, seed=42)
            assert report.passed, (
                name,
                n,
                [f.messages for f in report.failures[:3]],
            )
            total += trials
    accept(started, f"7 suites x 200 instances (n=3,4), zero violations")


def test_criterion_4_backend_agreement(accept):
    started = time.perf_counter()
    states = [psi for _, psi, _ in canonical_states(mode=EXACT)]
    seed = 0
    sizes = [1, 2, 3, 4]
    while len(states) < 50:
        states.append(random_rational_state(sizes[seed % 4], 5000 + seed))
        seed += 1
    for psi in states:
        te = tangent_matrix(psi)
        tf = tangent_matrix(psi.to_float())
        assert real_rank(te).rank == real_rank(tf).rank, psi
        n = psi.n
        for l in range(1, n + 1):
            for lp in range(l + 1, n + 1):
                assert span_dim(te, (l, lp)) == span_dim(tf, (l, lp)), (psi, l, lp)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"agreement sweep took {elapsed:.1f} s"
    accept(started, f"{len(states)} rational states, float == exact everywhere")


def test_criterion_5_soundness_completeness(accept):
    started = time.perf_counter()
    n = 4
    inconsistencies = 0

    root = np.random.SeedSequence(77)
    for child in root.spawn(200):
        rng = np.random.default_rng(child)
        psi = random_state(n, rng)
        try:
            out = classify_min_orbit(psi)
        except InconsistentStructureError:
            inconsistencies += 1
            continue
        assert isinstance(out, NotMinimal), f"generic state classified as {out}"

    root = np.random.SeedSequence(78)
    for child in root.spawn(200):
        rng = np.random.default_rng(child)
        pairs, lone = random_pairing(n, rng)
        psi = apply_local(singlet_product(n, pairs, lone), LocalUnitary.random(n, rng))
        try:
            out = classify_min_orbit(psi)
        except InconsistentStructureError:
            inconsistencies += 1
            continue
        assert isinstance(out, SingletPairing), f"product classified as {out}"
        covered = set()
        for a, b in out.sorted_pairs:
            covered.update((a, b))
        assert covered == set(range(1, n + 1)), out
    assert inconsistencies == 0, f"{inconsistencies} structural inconsistencies"
    accept(started, "200 generic NotMinimal + 200 products minimal, 0 inconsistencies")
