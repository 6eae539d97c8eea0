"""Randomized, seeded verification suites for the package's structural claims.

Each registered suite draws instances (random states, scrambled pair
products, partially entangled pairs, ...) and checks one structural
property of the tangent matrix against independent evidence such as
Schmidt coefficients or reduced-state purity.  Failures are reported with
full state dumps so any counterexample can be replayed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .analysis import (
    InconsistentStructureError,
    NotMinimal,
    SingletPairing,
    _lone_selectors,
    _pair_selectors,
    classify_min_orbit,
    min_orbit_dimension,
    orbit_dimension,
    pairing_equal,
)
from .lie_action import tangent_matrix
from .lu import LocalUnitary, apply_local
from .rank import ColumnSelector, SelectorFamily, _complement_coeffs, span_dim, span_dims
from .states import (
    EXACT,
    FLOAT,
    StateVector,
    _pair_rows,
    canonical_pair_state,
    embed_product,
    random_rational_state,
    random_state,
    singlet_product,
    tensor,
)
from .tolerance import DEFAULT_TOL, INNER_PRODUCT_ATOL, ORACLE_TOL, ROUNDOFF_ATOL


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    messages: tuple
    states: tuple  # JSON dumps of the states involved


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: object
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} of {self.trials} trials)"
        return f"{status} {self.suite} n={self.n} trials={self.trials} seed={self.seed}"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _scramble(psi: StateVector, rng) -> StateVector:
    return apply_local(psi, LocalUnitary.random(psi.n, rng))


def _random_pairing(n: int, rng):
    order = [int(q) + 1 for q in rng.permutation(n)]
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)]
    lone = order[-1] if n % 2 else None
    return pairs, lone


def _random_pair_positions(n: int, rng):
    l, lp = sorted(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
    return l, lp


def _with_rest(n: int, rng, placements: list, filler) -> StateVector:
    """``embed_product`` of ``placements`` plus ``filler(m, rng)`` on the m qubits they leave."""
    used = {p for positions, _ in placements for p in positions}
    rest = tuple(p for p in range(1, n + 1) if p not in used)
    if rest:
        placements = placements + [(rest, filler(len(rest), rng))]
    return embed_product(n, placements)


def _pair_product(n: int, rng, l: int, lp: int, mode: str = FLOAT) -> StateVector:
    """Canonical pair on (l, lp) tensored with a random state on the rest."""
    filler = random_rational_state if mode == EXACT else random_state
    return _with_rest(n, rng, [((l, lp), canonical_pair_state(mode=mode))], filler)


def _partial_pair_state(n: int, rng, l: int, lp: int) -> StateVector:
    """alpha|00> + beta|11> on (l, lp), |alpha| and |beta| clearly different."""
    theta = rng.uniform(0.15, math.pi / 4 - 0.15)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
    chi = StateVector(
        [math.cos(theta) * phases[0], 0.0, 0.0, math.sin(theta) * phases[1]],
        mode=FLOAT,
    )
    return _with_rest(n, rng, [((l, lp), chi)], random_state)


def _unentangled_product(n: int, rng, positions) -> StateVector:
    """Independent single-qubit states on ``positions``, one random state on the rest."""
    placements = [((p,), random_state(1, rng)) for p in positions]
    return _with_rest(n, rng, placements, random_state)


def _scrambled_singlet_product(n: int, rng) -> StateVector:
    pairs, lone = _random_pairing(n, rng)
    return _scramble(singlet_product(n, pairs, lone), rng)


def _mixed_pool(n: int, rng) -> StateVector:
    """A state drawn from the structured + generic instance families."""
    kind = int(rng.integers(4))
    if kind == 0 and n >= 2:
        return _scrambled_singlet_product(n, rng)
    if kind == 1 and n >= 2:
        l, lp = _random_pair_positions(n, rng)
        return _scramble(_pair_product(n, rng, l, lp), rng)
    if kind == 2 and n >= 2:
        k = int(rng.integers(1, n + 1))
        positions = sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
        return _scramble(_unentangled_product(n, rng, positions), rng)
    return random_state(n, rng)


# ---------------------------------------------------------------------------
# independent evidence helpers
# ---------------------------------------------------------------------------


def _pair_factor_evidence(psi: StateVector, l: int, lp: int) -> tuple:
    """(product_across_cut, schmidt_balanced): the tangent-free factor oracle."""
    mat = _pair_rows(psi, l, lp).view(np.complex128)[..., 0]
    u, s, _ = np.linalg.svd(mat)
    is_product = len(s) < 2 or s[1] <= ORACLE_TOL * s[0]
    chi = u[:, 0].reshape(2, 2)
    cs = np.linalg.svd(chi, compute_uv=False)
    balanced = abs(cs[0] - cs[1]) <= ORACLE_TOL
    return is_product, is_product and balanced


def _purity(psi: StateVector, j: int) -> float:
    """tr(rho_j^2) of the reduced single-qubit state; 1 iff unentangled."""
    n = psi.n
    shaped = psi.vector.reshape(1 << (j - 1), 2, 1 << (n - j))
    rho = np.einsum("aib,ajb->ij", shaped, shaped.conj())
    return float(np.real(np.trace(rho @ rho)))


def _pair_isolation(tm, l: int, lp: int, tol) -> list:
    """Failures of pair (l, lp) to span 3 dimensions orthogonal to all other columns."""
    failures = []
    span = span_dim(tm, (l, lp), tol=tol)
    if span != 3:
        failures.append(f"pair ({l},{lp}) spans {span} dimensions, expected 3")
    pair_cols = [*tm.triple_indices(l), *tm.triple_indices(lp)]
    other_cols = [c for c in range(tm.column_count) if c not in pair_cols]
    # an exact Gram holds integers, so a nonzero dot is at least 1 and clears the slack
    gram = tm.gram
    worst = max(abs(gram[a][b]) for a in pair_cols for b in other_cols)
    if worst > INNER_PRODUCT_ATOL:
        failures.append(f"pair span leaks onto other columns (dot {worst / tm.scale**2:.3e})")
    return failures


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_triplesprop(n, rng, tol):
    """Within every qubit's triple, the three columns are mutually orthogonal."""
    kind = int(rng.integers(3))
    if kind == 2:
        psi = random_rational_state(n, rng)
    elif kind == 1 and n >= 2:
        psi = _scrambled_singlet_product(n, rng)
    else:
        psi = random_state(n, rng)
    tm = tangent_matrix(psi)
    failures = []
    gram = tm.gram
    for k in range(1, n + 1):
        idx = tm.triple_indices(k)
        for a, b in combinations(idx, 2):
            dot = gram[a][b]
            if abs(dot) > INNER_PRODUCT_ATOL:
                failures.append(f"triple {k}: columns {a},{b} have dot {dot / tm.scale**2:.3e}")
    return failures, [psi]


@functools.lru_cache(maxsize=4)
def _triple_union_selectors(n: int) -> tuple:
    """``(queries, selectors)``: every nonempty triple subset, without and with the last column.

    Built once per n, so the selectors' column indices and the family's
    walk plan (``rank.SelectorFamily``) are too.  There are 2 * (2**n - 1)
    of them, so only the last few n are held.
    """
    queries = tuple(
        (subset, include_last)
        for size in range(1, n + 1)
        for subset in combinations(range(1, n + 1), size)
        for include_last in (False, True)
    )
    return queries, SelectorFamily(ColumnSelector(*query) for query in queries)


@functools.lru_cache(maxsize=4)
def _subsets_with_last(n: int) -> tuple:
    """``(subsets, selectors)``: every nonempty triple subset, and the family of its selectors with the last column.

    The with-last half of ``_triple_union_selectors``, in its order and
    with its selectors, kept as a family of its own once per n.
    """
    queries, selectors = _triple_union_selectors(n)
    return tuple(subset for subset, _ in queries[1::2]), SelectorFamily(selectors[1::2])


def _suite_ranktripluinv(n, rng, tol):
    """Every triple-union span (with or without the last column) is LU-invariant."""
    psi = _mixed_pool(n, rng)
    scrambled = _scramble(psi, rng)
    tm_a, tm_b = tangent_matrix(psi), tangent_matrix(scrambled)
    queries, selectors = _triple_union_selectors(n)
    dims = zip(queries, span_dims(tm_a, selectors, tol), span_dims(tm_b, selectors, tol))
    failures = [
        f"span of triples {subset} (last={include_last}) changed "
        f"under a local unitary: {da} -> {db}"
        for (subset, include_last), da, db in dims
        if da != db
    ]
    return failures, [psi, scrambled]


def _suite_twocommonstrong(n, rng, tol):
    """On canonical pair products the z/x columns of the pair coincide, the y
    columns are opposite, the pair spans 3 dimensions, and that span is
    orthogonal to every other column including the last."""
    l, lp = _random_pair_positions(n, rng)
    exact = bool(rng.integers(2))
    psi = _pair_product(n, rng, l, lp, mode=EXACT if exact else FLOAT)
    tm = tangent_matrix(psi)
    failures = []
    zl, yl, xl, zr, yr, xr = tm.columns(tm.triple_indices(l) + tm.triple_indices(lp)).T

    def _close(a, b, sign=1):
        # exact columns hold integers, so the slack tells them apart as zero does
        return np.abs(a - sign * b).max() <= ROUNDOFF_ATOL

    if not _close(zl, zr):
        failures.append("z-generator columns of the paired qubits differ")
    if not _close(xl, xr):
        failures.append("x-generator columns of the paired qubits differ")
    if not _close(yl, yr, sign=-1):
        failures.append("y-generator columns of the paired qubits are not opposite")
    return failures + _pair_isolation(tm, l, lp, tol), [psi]


def _suite_twocommonstronggen(n, rng, tol):
    """Any LU image of a pair product keeps the 3-dimensional pair span and its
    orthogonality to all remaining columns."""
    l, lp = _random_pair_positions(n, rng)
    psi = _scramble(_pair_product(n, rng, l, lp), rng)
    return _pair_isolation(tangent_matrix(psi), l, lp, tol), [psi]


def _suite_twotripspan5(n, rng, tol):
    """Whenever a pair of triples spans five dimensions, each triple holds at
    least two directions orthogonal to everything else, and the two triples'
    complements are jointly at least four-dimensional."""
    l, lp = _random_pair_positions(n, rng)
    if rng.integers(2):
        psi = _scramble(_partial_pair_state(n, rng, l, lp), rng)
    else:
        psi = _scramble(_unentangled_product(n, rng, (l, lp)), rng)
    tm = tangent_matrix(psi)
    failures = []
    span = span_dim(tm, (l, lp), tol=tol)
    if span != 5:
        failures.append(f"pair ({l},{lp}) spans {span} dimensions, expected 5")
    others = ColumnSelector(
        (k for k in range(1, n + 1) if k not in (l, lp)), include_last=True
    )
    # each complement in R's coordinates: Q is orthonormal, so the joint rank is the real view's
    bases = []
    for k, coeffs in zip((l, lp), _complement_coeffs(tm, (l, lp), others, tol)):
        if len(coeffs) < 2:
            failures.append(
                f"complement of triple {k} against the other columns is "
                f"{len(coeffs)}-dimensional"
            )
        bases.append(tm.r_factor[:, list(tm.triple_indices(k))] @ coeffs.T)
    stacked = np.hstack(bases)
    joint = int(np.count_nonzero(np.linalg.svd(stacked, compute_uv=False) > ORACLE_TOL))
    if joint < 4:
        failures.append(f"the two complements are jointly {joint}-dimensional, expected >= 4")
    return failures, [psi]


def _suite_minrankMstrong(n, rng, tol):
    """Every union of q triples plus the last column spans at least
    3q/2 + 1 (q even) or (3q+1)/2 + 1 (q odd) dimensions."""
    psi = _mixed_pool(n, rng)
    tm = tangent_matrix(psi)
    subsets, selectors = _subsets_with_last(n)
    failures = []
    for subset, span in zip(subsets, span_dims(tm, selectors, tol)):
        floor = min_orbit_dimension(len(subset)) + 1
        if span < floor:
            failures.append(f"triples {subset} plus last span {span} < floor {floor}")
    return failures, [psi]


def _suite_bipartiteranksadd(n, rng, tol):
    """Orbit dimensions add across tensor products, and each factor's spans are
    reproduced verbatim inside the product's tangent matrix."""
    lo = max(1, n - 3)
    hi = min(3, n - 1)
    n1 = int(rng.integers(lo, hi + 1))
    n2 = n - n1

    def _factor(m):
        if m >= 2 and rng.integers(2):
            return _scrambled_singlet_product(m, rng)
        return random_state(m, rng)

    psi1, psi2 = _factor(n1), _factor(n2)
    product = tensor(psi1, psi2)
    tm1, tm2, tm = tangent_matrix(psi1), tangent_matrix(psi2), tangent_matrix(product)
    failures = []
    d1, d2 = orbit_dimension(tm1, tol=tol), orbit_dimension(tm2, tol=tol)
    d = orbit_dimension(tm, tol=tol)
    if d != d1 + d2:
        failures.append(f"orbit dimensions do not add: {d} != {d1} + {d2}")
    block1 = tuple(range(1, n1 + 1))
    block2 = tuple(range(n1 + 1, n + 1))
    for block, tm_factor, label in ((block1, tm1, 1), (block2, tm2, 2)):
        inside = span_dim(tm, block, include_last=True, tol=tol)
        alone = span_dim(tm_factor, range(1, tm_factor.n + 1), include_last=True, tol=tol)
        if inside != alone:
            failures.append(
                f"factor {label} triples plus last span {inside} in the product "
                f"but {alone} alone"
            )
    size = int(rng.integers(1, n1 + 1))
    subset = tuple(sorted(int(q) + 1 for q in rng.choice(n1, size=size, replace=False)))
    inside = span_dim(tm, subset, include_last=False, tol=tol)
    alone = span_dim(tm1, subset, include_last=False, tol=tol)
    if inside != alone:
        failures.append(
            f"triples {subset} of factor 1 span {inside} in the product but {alone} alone"
        )
    return failures, [psi1, psi2]


def _suite_twotripspan3factors(n, rng, tol):
    """A pair of triples spans exactly three dimensions precisely when the two
    qubits carry a maximally entangled factor of the state (checked against a
    Schmidt-coefficient oracle that never looks at the tangent matrix)."""
    kind = int(rng.integers(3))
    failures = []
    if kind == 0:
        l, lp = _random_pair_positions(n, rng)
        psi = _scramble(_pair_product(n, rng, l, lp), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (l, lp), tol=tol)
        if span != 3:
            failures.append(f"pair ({l},{lp}) spans {span}, expected 3")
        is_product, balanced = _pair_factor_evidence(psi, l, lp)
        if not (is_product and balanced):
            failures.append(
                f"oracle disagrees: product={is_product}, balanced={balanced}"
            )
    elif kind == 1:
        l, lp = _random_pair_positions(n, rng)
        psi = _scramble(_partial_pair_state(n, rng, l, lp), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (l, lp), tol=tol)
        if span == 3:
            failures.append(f"unbalanced pair ({l},{lp}) wrongly spans 3")
        _, balanced = _pair_factor_evidence(psi, l, lp)
        if balanced:
            failures.append("oracle wrongly calls the unbalanced pair maximally entangled")
    else:
        psi = random_state(n, rng)
        pairs, selectors = _pair_selectors(n)
        spans = span_dims(tangent_matrix(psi), selectors, tol)
        for (l, lp), span in zip(pairs, spans):
            span3 = span == 3
            is_product, balanced = _pair_factor_evidence(psi, l, lp)
            if span3 != (is_product and balanced):
                failures.append(
                    f"pair ({l},{lp}): span-3 is {span3} but oracle says "
                    f"product={is_product}, balanced={balanced}"
                )
    return failures, [psi]


def _suite_trippluslonelyspan3(n, rng, tol):
    """A qubit's triple plus the last column spans three dimensions exactly when
    the qubit is unentangled (checked against reduced-state purity)."""
    failures = []
    if rng.integers(2) and n >= 1:
        j = int(rng.integers(1, n + 1))
        psi = _scramble(_unentangled_product(n, rng, (j,)), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (j,), include_last=True, tol=tol)
        if span != 3:
            failures.append(f"unentangled qubit {j} has triple+last span {span}")
        if abs(_purity(psi, j) - 1.0) > ORACLE_TOL:
            failures.append(f"construction failed: qubit {j} purity {_purity(psi, j)}")
    else:
        psi = random_state(n, rng)
        spans = span_dims(tangent_matrix(psi), _lone_selectors(n), tol)
        for j, span in enumerate(spans, start=1):
            span3 = span == 3
            pure = _purity(psi, j) > 1.0 - ORACLE_TOL
            if span3 != pure:
                failures.append(
                    f"qubit {j}: triple+last span-3 is {span3} but purity says {pure}"
                )
    return failures, [psi]


def _suite_unentrank(n, rng, tol):
    """k unentangled qubits contribute a (2k+1)-dimensional span (their triples
    plus the last column), no matter what the rest of the state does."""
    k = int(rng.integers(1, n + 1))
    positions = tuple(sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False)))
    psi = _scramble(_unentangled_product(n, rng, positions), rng)
    tm = tangent_matrix(psi)
    got = span_dim(tm, positions, include_last=True, tol=tol)
    failures = []
    if got != 2 * k + 1:
        failures.append(f"{k} unentangled qubits {positions} span {got}, expected {2 * k + 1}")
    return failures, [psi]


def _suite_pair_span_trichotomy(n, rng, tol):
    """Every pair of triples spans exactly 3, 5, or 6 real dimensions."""
    psi = _mixed_pool(n, rng)
    pairs, selectors = _pair_selectors(n)
    spans = span_dims(tangent_matrix(psi), selectors, tol)
    failures = [
        f"pair ({l},{lp}) spans {span}, outside {{3, 5, 6}}"
        for (l, lp), span in zip(pairs, spans)
        if span not in (3, 5, 6)
    ]
    return failures, [psi]


def _suite_minorbclassthm_roundtrip(n, rng, tol):
    """Classification recovers the exact pairing a scrambled pair product was
    built from, and generic states classify as not minimal."""
    failures = []
    if n >= 2 and int(rng.integers(4)) == 3:
        psi, expected = random_state(n, rng), None
    else:
        pairs, lone = _random_pairing(n, rng)
        psi = _scramble(singlet_product(n, pairs, lone), rng)
        expected = SingletPairing(n=n, pairs=frozenset(pairs), lone=lone)
    try:
        outcome = classify_min_orbit(psi, tol=tol)
    except InconsistentStructureError as exc:
        return [f"classification failed: {exc}"], [psi]
    if expected is None:
        if not isinstance(outcome, NotMinimal):
            failures.append("a generic random state classified as minimal")
    elif isinstance(outcome, NotMinimal):
        failures.append(
            f"scrambled pair product classified as not minimal "
            f"(orbit dimension {outcome.orbit_dimension})"
        )
    elif not pairing_equal(outcome, expected):
        failures.append(
            f"recovered pairing {outcome.to_json_dict()} != planted {expected.to_json_dict()}"
        )
    return failures, [psi]


#: suite name -> (trial function, smallest supported n, largest supported n or None)
SUITES: dict = {
    "triplesprop": (_suite_triplesprop, 1, None),
    "ranktripluinv": (_suite_ranktripluinv, 1, None),
    "twocommonstrong": (_suite_twocommonstrong, 2, None),
    "twocommonstronggen": (_suite_twocommonstronggen, 2, None),
    "twotripspan5": (_suite_twotripspan5, 2, None),
    "minrankMstrong": (_suite_minrankMstrong, 1, None),
    "bipartiteranksadd": (_suite_bipartiteranksadd, 2, 6),
    "twotripspan3factors": (_suite_twotripspan3factors, 2, None),
    "trippluslonelyspan3": (_suite_trippluslonelyspan3, 1, None),
    "unentrank": (_suite_unentrank, 1, None),
    "pair_span_trichotomy": (_suite_pair_span_trichotomy, 2, None),
    "minorbclassthm_roundtrip": (_suite_minorbclassthm_roundtrip, 1, None),
}


def verify_proposition(
    name: str,
    n: int,
    trials: int,
    seed,
    tol: float = DEFAULT_TOL,
) -> SuiteReport:
    """Run one registered suite for ``trials`` seeded instances.

    Unknown suite names raise ValueError.  Each trial gets its own child
    seed, so reports are reproducible from (name, n, trials, seed).
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; registered suites: {known}")
    fn, min_n, max_n = SUITES[name]
    if n < min_n:
        raise ValueError(f"suite {name!r} needs at least {min_n} qubits")
    if max_n is not None and n > max_n:
        raise ValueError(f"suite {name!r} supports at most {max_n} qubits")
    if trials < 1:
        raise ValueError("trials must be positive")
    root = np.random.SeedSequence(seed)
    failures = []
    for trial, child in enumerate(root.spawn(trials)):
        rng = np.random.default_rng(child)
        messages, states = fn(n, rng, tol)
        if messages:
            failures.append(
                TrialFailure(
                    trial=trial,
                    messages=tuple(messages),
                    states=tuple(s.to_json_dict() for s in states),
                )
            )
    return SuiteReport(
        suite=name, n=n, trials=trials, seed=seed, failures=tuple(failures)
    )
